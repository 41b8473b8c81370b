"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with -s or -rA to see them all).

Criterion 7 (centrality of every constructed covering) is marked as a strict
expected failure: the suite itself exhibits minimal counterexamples — e.g.
the symmetric group S3 arises as a perfectly valid covering of the
pre-prolongation with kernel Z3 and quotient Z2 acting by inversion, and its
kernel is not central.  The companion test right after it verifies the
correct refinement: a constructed covering is central exactly when the
induced action on the kernel is trivial.
"""

import itertools
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from prolong.classify import (
    are_equivalent,
    to_crossed_product,
    torsor_act,
    witness_is_valid,
)
from prolong.cohomology import (
    coboundary,
    cohomology_group,
    free_positions,
    cochain_from_values,
    is_cocycle,
    pi_module,
    trivial_module,
)
from prolong.crossed import check_crossed_module, induce_crossed_module
from prolong.extensions import is_central, make_extension
from prolong.fixtures import builtin, builtin_names
from prolong.groups import (
    Homomorphism,
    automorphism_group,
    center,
    enumerate_subgroups,
    identity_hom,
    is_normal,
    quotient,
    trivial_hom,
)
from prolong.obstruction import (
    PreProlongation,
    derive,
    lift_factor_set,
    obstruction_class,
    obstruction_cocycle,
    verify_covering,
)
from prolong.sweep import check, landscape

from oracles import (
    brute_automorphisms,
    brute_center,
    brute_cosets,
    count_free_cochains,
    enumerate_cohomology,
    equivalent_class_pair,
)

DESCRIPTIONS = {
    1: "group core matches exhaustive brute-force oracles (< 10 s)",
    2: "coboundary of coboundary vanishes on 100 seeded cochains per pair",
    3: "cohomology matches exhaustive enumeration for all feasible cases (< 60 s)",
    4: "obstruction class independent of 10 seeded section/lift choices",
    5: "obstruction cochain is a kernel-valued 3-cocycle for every choice",
    6: "construction succeeds iff class vanishes iff coverings exist (< 5 min)",
    7: "every constructed covering is a central extension",
    8: "induced crossed modules satisfy both axioms on every covering",
    9: "class count equals |H^2| equals covering count; torsor free+transitive",
    10: "crossed-product reduction witness satisfies all three conditions",
}


def report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] acceptance {num:02d}: {DESCRIPTIONS[num]}{suffix}",
          flush=True)


# --- named pre-prolongation fixtures -----------------------------------------

def pre_canonical():
    z1, z2 = builtin("Z1"), builtin("Z2")
    e0 = make_extension(identity_hom(z2), trivial_hom(z2, z1))
    return PreProlongation(e0=e0, alpha=identity_hom(z2),
                           gamma=Homomorphism(z1, z2, (0,)),
                           theta=((0, 1), (0, 1)))


def pre_trivial3():
    z1, z2, z3 = builtin("Z1"), builtin("Z2"), builtin("Z3")
    e0 = make_extension(identity_hom(z3), trivial_hom(z3, z1))
    return PreProlongation(e0=e0, alpha=identity_hom(z3),
                           gamma=Homomorphism(z1, z2, (0,)),
                           theta=((0, 1, 2), (0, 1, 2)))


def pre_inversion():
    z2, z3, z4, z6 = (builtin(n) for n in ("Z2", "Z3", "Z4", "Z6"))
    e0 = make_extension(Homomorphism(z3, z6, (0, 2, 4)),
                        Homomorphism(z6, z2, (0, 1, 0, 1, 0, 1)))
    ident, inv = tuple(range(6)), (0, 5, 4, 3, 2, 1)
    return PreProlongation(e0=e0, alpha=identity_hom(z3),
                           gamma=Homomorphism(z2, z4, (0, 2)),
                           theta=(ident, inv, ident, inv))


def pre_obstructed():
    z2, z4 = builtin("Z2"), builtin("Z4")
    e0 = make_extension(Homomorphism(z2, z4, (0, 2)),
                        Homomorphism(z4, z2, (0, 1, 0, 1)))
    ident, inv = (0, 1, 2, 3), (0, 3, 2, 1)
    return PreProlongation(e0=e0, alpha=identity_hom(z2),
                           gamma=Homomorphism(z2, z4, (0, 2)),
                           theta=(ident, inv, ident, inv))


def pre_z8():
    base = pre_obstructed()
    ident = (0, 1, 2, 3)
    return PreProlongation(e0=base.e0, alpha=base.alpha, gamma=base.gamma,
                           theta=(ident,) * 4)


def pre_identity_gamma():
    z2, z4 = builtin("Z2"), builtin("Z4")
    e0 = make_extension(Homomorphism(z2, z4, (0, 2)),
                        Homomorphism(z4, z2, (0, 1, 0, 1)))
    ident = (0, 1, 2, 3)
    return PreProlongation(e0=e0, alpha=identity_hom(z2),
                           gamma=identity_hom(z2), theta=(ident, ident))


def pre_z3_over_z3():
    z1, z3 = builtin("Z1"), builtin("Z3")
    e0 = make_extension(identity_hom(z3), trivial_hom(z3, z1))
    ident = (0, 1, 2)
    return PreProlongation(e0=e0, alpha=identity_hom(z3),
                           gamma=Homomorphism(z1, z3, (0,)),
                           theta=(ident, ident, ident))


def pre_klein_quotient():
    z1, z2, v4 = builtin("Z1"), builtin("Z2"), builtin("V4")
    e0 = make_extension(identity_hom(z2), trivial_hom(z2, z1))
    return PreProlongation(e0=e0, alpha=identity_hom(z2),
                           gamma=Homomorphism(z1, v4, (0,)),
                           theta=((0, 1),) * 4)


PRE_FIXTURES = {
    "canonical": pre_canonical,
    "trivial3": pre_trivial3,
    "inversion": pre_inversion,
    "obstructed": pre_obstructed,
    "z8": pre_z8,
    "identity_gamma": pre_identity_gamma,
    "z3_over_z3": pre_z3_over_z3,
    "klein_quotient": pre_klein_quotient,
}

COHOMOLOGY_MODULES = [
    trivial_module(builtin("Z2"), builtin("Z2")),
    trivial_module(builtin("Z2"), builtin("Z3")),
    pi_module(builtin("Z2"), builtin("Z3"), ((0, 1, 2), (0, 2, 1))),
    trivial_module(builtin("Z3"), builtin("Z3")),
    trivial_module(builtin("Z2"), builtin("Z4")),
    pi_module(builtin("Z2"), builtin("Z4"), ((0, 1, 2, 3), (0, 3, 2, 1))),
    trivial_module(builtin("Z4"), builtin("Z2")),
    trivial_module(builtin("V4"), builtin("Z2")),
    trivial_module(builtin("Z2"), builtin("V4")),
    trivial_module(builtin("Z3"), builtin("Z2")),
]

ENUMERATION_BOUND = 1 << 20

SWEEP_DEFAULT_PIN = Path(__file__).parent / "data" / "sweep_default.txt"


@pytest.fixture(scope="module")
def sweep_data(default_sweep):
    """The sweep's check of every default-sweep input, and the time the
    checks took (shared by criteria 6, 7, 8, 9)."""
    t0 = time.monotonic()
    reports = [check(pre) for pre in default_sweep]
    return SimpleNamespace(reports=reports, elapsed=time.monotonic() - t0)


@pytest.fixture(scope="module")
def fixture_coverings():
    """The sweep's check of each named fixture, by name: its covering,
    enumerated classes and exhaustive search (shared by criteria 6-10)."""
    data = {name: check(factory()) for name, factory in PRE_FIXTURES.items()}
    for name, r in data.items():
        assert equivalent_class_pair(r.classes) is None, name
    return data


def test_criterion_01_group_core_vs_oracles():
    t0 = time.monotonic()
    checked = 0
    for name in builtin_names():
        g = builtin(name)
        assert center(g).members == brute_center(g), name
        for sub in enumerate_subgroups(g):
            if not is_normal(sub):
                continue
            q = quotient(g, sub)
            cosets = brute_cosets(g, sub.members)
            assert q.reps == tuple(c[0] for c in cosets), name
            for idx, coset in enumerate(cosets):
                assert all(q.projection.map[x] == idx for x in coset), name
            index = {c: i for i, c in enumerate(cosets)}
            for i, ci in enumerate(cosets):
                for k, ck in enumerate(cosets):
                    prod = tuple(sorted(
                        {g.table[a][b] for a in ci for b in ck}))
                    assert q.quotient.table[i][k] == index[prod], name
            checked += 1
        auts = automorphism_group(g)
        assert sorted(a.map for a in auts) == sorted(brute_automorphisms(g)), name
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    report(1, ok, f"{len(builtin_names())} groups, {checked} quotients, "
                  f"{elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_02_double_coboundary_vanishes():
    failures = 0
    pairs = 0
    for module in COHOMOLOGY_MODULES:
        for degree in (0, 1, 2):
            pairs += 1
            rng = random.Random(10_000 * module.pi.order
                                + 100 * module.a.order + degree)
            for _ in range(100):
                positions = free_positions(module.pi.order, degree)
                c = cochain_from_values(
                    module, degree,
                    {pos: rng.randrange(module.a.order) for pos in positions})
                if not coboundary(coboundary(c)).is_zero():
                    failures += 1
    ok = failures == 0
    report(2, ok, f"{pairs} (degree, module) pairs x 100 cochains")
    assert ok


def test_criterion_03_cohomology_vs_enumeration():
    t0 = time.monotonic()
    cases = skipped = 0
    for module in COHOMOLOGY_MODULES:
        for degree in (1, 2, 3):
            if count_free_cochains(module, degree) > ENUMERATION_BOUND:
                skipped += 1
                continue
            cases += 1
            num_z, num_b, factors = enumerate_cohomology(module, degree)
            h = cohomology_group(degree, module)
            assert h.order == num_z // num_b
            assert h.invariant_factors == factors
    # the two pinned values
    m22 = trivial_module(builtin("Z2"), builtin("Z2"))
    assert cohomology_group(2, m22).invariant_factors == (2,)
    assert cohomology_group(3, m22).invariant_factors == (2,)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    report(3, ok, f"{cases} cases enumerated, {skipped} beyond 2^20, "
                  f"{elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_04_class_choice_independence():
    for name, factory in PRE_FIXTURES.items():
        pre = factory()
        canonical = obstruction_class(pre)
        for seed in range(10):
            rechosen = obstruction_class(pre, rng=random.Random(seed))
            assert rechosen.coordinates == canonical.coordinates, (name, seed)
    report(4, True, f"{len(PRE_FIXTURES)} fixtures x 10 seeds")


def test_criterion_05_obstruction_cochain_validity():
    for name, factory in PRE_FIXTURES.items():
        pre = factory()
        d = derive(pre)
        i_image = set(d.i.map)
        choices = [None] + [random.Random(seed) for seed in range(10)]
        for rng in choices:
            lfs = lift_factor_set(pre, rng=rng)
            k = obstruction_cocycle(lfs)  # raises on non-central / non-kernel
            assert is_cocycle(k), name
            for value in k.values:
                assert d.i.map[value] in i_image, name
    report(5, True, f"{len(PRE_FIXTURES)} fixtures x 11 choices")


def test_criterion_06_existence_three_ways(sweep_data, fixture_coverings):
    vanishing = obstructed = 0
    for r in [*sweep_data.reports, *fixture_coverings.values()]:
        constructed = r.result.covering is not None
        assert constructed == r.result.vanishes == bool(r.coverings), r.pre
        if r.result.vanishes:
            vanishing += 1
        else:
            obstructed += 1
    elapsed = sweep_data.elapsed
    ok = elapsed < 300.0
    report(6, ok, f"{len(sweep_data.reports)} sweep members + "
                  f"{len(fixture_coverings)} fixtures "
                  f"({vanishing} vanishing, {obstructed} obstructed), "
                  f"{elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 5 min"


def test_default_sweep_landscape_is_pinned(sweep_data):
    """The default sweep agrees with itself on every input, and its tallies
    and non-central coverings are the pinned ones."""
    assert [r.disagreement for r in sweep_data.reports] == [None] * 1101
    assert landscape(sweep_data.reports) == SWEEP_DEFAULT_PIN.read_text().splitlines()


def _all_produced_prolongations(sweep_data, fixture_coverings):
    for r in [*sweep_data.reports, *fixture_coverings.values()]:
        if r.result.prolongation is not None:
            yield r.pre, r.result.prolongation
        for c in r.classes:
            yield r.pre, c.representative
        for p in r.coverings:
            yield r.pre, p


@pytest.mark.xfail(
    strict=True,
    reason="valid coverings with a nontrivial induced action on the kernel "
           "are not central extensions; the smallest counterexample built by "
           "the sweep is S3 covering the Z3-kernel pre-prolongation whose "
           "quotient Z2 acts by inversion")
def test_criterion_07_centrality_of_constructed_coverings(
        sweep_data, fixture_coverings):
    noncentral = []
    total = 0
    for pre, p in _all_produced_prolongations(sweep_data, fixture_coverings):
        total += 1
        if not is_central(p.e):
            noncentral.append(p.e.b.order_profile())
    ok = not noncentral
    detail = f"{total} coverings"
    if noncentral:
        smallest = min(noncentral, key=len)
        detail += (f"; {len(noncentral)} NON-central, smallest has order "
                   f"profile {smallest}")
    report(7, ok, detail)
    assert ok, f"noncentral coverings found: {sorted(set(noncentral))}"


def test_centrality_holds_exactly_for_trivial_actions(
        sweep_data, fixture_coverings):
    """The correct refinement of criterion 7, verified over the same data."""
    for pre, p in _all_produced_prolongations(sweep_data, fixture_coverings):
        trivial_action = all(perm == tuple(range(pre.a.order))
                             for perm in derive(pre).module.action)
        assert is_central(p.e) == trivial_action


def test_criterion_08_induced_crossed_modules(sweep_data, fixture_coverings):
    total = 0
    for pre, p in _all_produced_prolongations(sweep_data, fixture_coverings):
        icm = induce_crossed_module(p)
        rep = check_crossed_module(icm.cm)
        assert rep.ok, rep.failures()
        total += 1
    report(8, True, f"{total} coverings checked")


def test_criterion_09_classification(sweep_data, fixture_coverings):
    # named fixtures: counts, pairwise-distinct classes, free + transitive
    for name, r in fixture_coverings.items():
        if not r.result.vanishes:
            assert r.coverings == ()
            continue
        h2 = cohomology_group(2, derive(r.pre).module)
        assert len(r.classes) == h2.order == len(r.coverings), name
        coords_space = list(itertools.product(
            *(range(d) for d in h2.invariant_factors)))
        base = r.result.prolongation
        for coords in coords_space:
            acted = torsor_act(coords, base)
            hit_base = are_equivalent(acted, base) is not None
            assert hit_base == all(c == 0 for c in coords), (name, coords)
        for c in r.classes:
            hits = [p for p in r.coverings
                    if are_equivalent(c.representative, p) is not None]
            assert len(hits) == 1, (name, c.coordinates)
    # sweep-wide count agreement
    for r in sweep_data.reports:
        if r.result.vanishes:
            assert len(r.classes) == r.h2_order == len(r.coverings)
    # the canonical scenario yields exactly the cyclic and Klein forms
    canonical = fixture_coverings["canonical"]
    profiles = sorted(c.representative.e.b.order_profile()
                      for c in canonical.classes)
    assert profiles == [(1, 2, 2, 2), (1, 2, 4, 4)]
    report(9, True, f"{len(fixture_coverings)} fixtures + "
                    f"{len(sweep_data.reports)} sweep members")


def test_criterion_10_reduction_witnesses(fixture_coverings):
    total = 0
    for name, r in fixture_coverings.items():
        all_coverings = list(r.coverings)
        if r.result.prolongation is not None:
            all_coverings.append(r.result.prolongation)
            all_coverings.extend(c.representative for c in r.classes)
        for p in all_coverings:
            reduced, witness = to_crossed_product(p)
            assert witness_is_valid(witness), name
            assert verify_covering(reduced, r.pre), name
            total += 1
    report(10, True, f"{total} reductions")

import io
import itertools
import random
import sys
from collections import Counter

import pytest

from prolong.cli import run
from prolong.classify import (
    are_equivalent,
    brute_force_coverings,
    difference_cocycle,
    enumerate_classes,
    to_crossed_product,
    torsor_act,
    witness_is_valid,
)
from prolong import classify, crossed, extensions, groups, obstruction
from prolong.cohomology import cohomology_group, same_class
from prolong.crossed import induce_crossed_module
from prolong.errors import (
    MismatchedFrame,
    ObstructionNonzero,
    PreconditionFailed,
    ProlongError,
    SearchBoundExceeded,
)
from prolong.extensions import make_extension, validate_prolongation
from prolong.fixtures import builtin
from prolong.groups import Homomorphism, identity_hom, compose, trivial_hom
from prolong.obstruction import (
    PreProlongation,
    build_prolongation,
    crossed_product,
    derive,
    lift_factor_set,
    obstruction_class,
    verify_covering,
)
from prolong.scenario import load_scenario
from prolong.sweep import check

from oracles import (
    SCENARIOS,
    equivalent_class_pair,
    equivalent_extensions,
    inverse_hom,
    reference_brute_force_coverings,
    reference_crossed_product,
    reference_induced_action,
    reference_verify_covering,
)
from test_seeded_pins import _clear_caches

from test_obstruction import (
    pre_canonical,
    pre_identity_gamma,
    pre_inversion,
    pre_obstructed,
    pre_z8,
)


def pre_z3_over_z3():
    """Kernel Z3 over a trivial base quotient with target quotient Z3."""
    z1, z3 = builtin("Z1"), builtin("Z3")
    e0 = make_extension(identity_hom(z3), trivial_hom(z3, z1))
    ident = (0, 1, 2)
    return PreProlongation(e0=e0, alpha=identity_hom(z3),
                           gamma=Homomorphism(z1, z3, (0,)),
                           theta=(ident, ident, ident))


VANISHING = [pre_canonical, pre_identity_gamma, pre_inversion, pre_z8,
             pre_z3_over_z3]


def canonical_classes():
    return enumerate_classes(pre_canonical())


# --- equivalence -----------------------------------------------------------------

def test_self_equivalence_gives_identity_witness():
    p = build_prolongation(pre_canonical()).prolongation
    w = are_equivalent(p, p)
    assert w is not None and witness_is_valid(w)
    assert w.beta_star.map == tuple(range(p.e.b.order))


def test_klein_vs_cyclic_not_equivalent():
    classes = canonical_classes()
    assert are_equivalent(classes[0].representative,
                          classes[1].representative) is None


def test_equivalence_is_symmetric_and_transitive():
    base = build_prolongation(pre_z8()).prolongation
    other = torsor_act((0,), base)
    third = torsor_act((0,), other)
    w12 = are_equivalent(base, other)
    w21 = are_equivalent(other, base)
    w23 = are_equivalent(other, third)
    assert w12 and w21 and w23
    # the inverse of a witness is a witness for the reversed pair
    inv = inverse_hom(w12.beta_star)
    assert all(inv.map[other.e.j.map[a]] == base.e.j.map[a]
               for a in base.e.a.elements())
    # composition of witnesses is a witness for the composite pair
    composed = compose(w23.beta_star, w12.beta_star)
    w13 = are_equivalent(base, third)
    assert w13 is not None
    assert all(base.e.p.map[b] == third.e.p.map[composed.map[b]]
               for b in base.e.b.elements())


def test_mismatched_frame_raises():
    p1 = build_prolongation(pre_canonical()).prolongation
    p2 = build_prolongation(pre_z8()).prolongation
    with pytest.raises(MismatchedFrame):
        are_equivalent(p1, p2)


def test_search_bound(monkeypatch):
    p = build_prolongation(pre_canonical()).prolongation
    monkeypatch.setattr(classify, "MAX_EQUIVALENCE_CANDIDATES", 1)
    with pytest.raises(SearchBoundExceeded) as err:
        are_equivalent(p, p)
    assert str(err.value) == (
        "equivalence search space 2 exceeds MAX_EQUIVALENCE_CANDIDATES = 1")


def test_lift_enumeration_bound(monkeypatch):
    """Four positions with three lifts each: of the 3 + 9 + 27 + 81 nodes of
    the full product, the search visits 66, and the first node past the
    bound is named."""
    monkeypatch.setattr(classify, "MAX_LIFT_CANDIDATES", 65)
    with pytest.raises(SearchBoundExceeded) as err:
        brute_force_coverings(pre_z3_over_z3())
    assert str(err.value) == "lift search node 66 exceeds MAX_LIFT_CANDIDATES = 65"
    monkeypatch.setattr(classify, "MAX_LIFT_CANDIDATES", 66)
    assert len(brute_force_coverings(pre_z3_over_z3())) == 3


def test_bare_extension_equivalence():
    z2, z4, v4 = builtin("Z2"), builtin("Z4"), builtin("V4")
    cyclic_ext = make_extension(Homomorphism(z2, z4, (0, 2)),
                                Homomorphism(z4, z2, (0, 1, 0, 1)))
    klein_ext = make_extension(Homomorphism(z2, v4, (0, 2)),
                               Homomorphism(v4, z2, (0, 1, 0, 1)))
    assert equivalent_extensions(cyclic_ext, cyclic_ext) is not None
    assert equivalent_extensions(cyclic_ext, klein_ext) is None


# --- reduction to crossed products --------------------------------------------------

def test_to_crossed_product_identity_on_canonical_form():
    p = build_prolongation(pre_canonical()).prolongation
    target, witness = to_crossed_product(p)
    assert witness_is_valid(witness)
    assert witness.beta_star.map == tuple(range(p.e.b.order))
    assert target.e.b.table == p.e.b.table


def test_to_crossed_product_of_plain_ladder():
    """A hand-built cyclic ladder reduces to the crossed product with h != 0."""
    z1, z2, z4 = builtin("Z1"), builtin("Z2"), builtin("Z4")
    e0 = make_extension(identity_hom(z2), trivial_hom(z2, z1))
    ext = make_extension(Homomorphism(z2, z4, (0, 2)),
                         Homomorphism(z4, z2, (0, 1, 0, 1)))
    ladder = __import__("prolong.extensions", fromlist=["Prolongation"]).Prolongation(
        e0=e0, e=ext, alpha=identity_hom(z2),
        beta=Homomorphism(z2, z4, (0, 2)), gamma=Homomorphism(z1, z2, (0,)))
    assert validate_prolongation(ladder).ok
    target, witness = to_crossed_product(ladder)
    assert witness_is_valid(witness)
    assert target.e.b.order_profile() == (1, 2, 4, 4)
    # the Klein-form covering reduces with h identically zero
    klein = build_prolongation(pre_canonical()).prolongation
    target2, witness2 = to_crossed_product(klein)
    assert witness_is_valid(witness2)
    assert target2.e.b.order_profile() == (1, 2, 2, 2)


# --- difference cocycles -------------------------------------------------------------

def test_difference_with_itself_is_zero():
    p = build_prolongation(pre_canonical()).prolongation
    assert difference_cocycle(p, p).is_zero()


def test_difference_klein_vs_cyclic():
    classes = canonical_classes()
    by_profile = {c.representative.e.b.order_profile(): c.representative
                  for c in classes}
    klein = by_profile[(1, 2, 2, 2)]
    cyclic4 = by_profile[(1, 2, 4, 4)]
    r = difference_cocycle(klein, cyclic4)
    assert r.value((1, 1)) == 1 and not r.is_zero()


def test_relative_class_is_difference_from_base():
    classes = canonical_classes()
    base = build_prolongation(pre_canonical()).prolongation
    h2 = cohomology_group(2, derive(pre_canonical()).module)
    for c in classes:
        rel = difference_cocycle(base, c.representative)
        assert h2.coordinates(rel) == c.coordinates


def test_difference_realizes_torsor_shift():
    pre = pre_z8()
    base = build_prolongation(pre).prolongation
    h2 = cohomology_group(2, derive(pre).module)
    for coords in itertools.product(*(range(d) for d in h2.invariant_factors)):
        shifted = torsor_act(coords, base)
        r = difference_cocycle(base, shifted)
        assert h2.coordinates(r) == coords
        assert same_class(r, h2.from_coordinates(coords))


def test_difference_requires_same_theta():
    # the inversion frame carries two valid thetas; their coverings share the
    # frame but induce different crossed modules
    pre_inv = pre_inversion()
    ident6 = tuple(range(6))
    pre_triv = PreProlongation(e0=pre_inv.e0, alpha=pre_inv.alpha,
                               gamma=pre_inv.gamma, theta=(ident6,) * 4)
    p1 = build_prolongation(pre_inv).prolongation
    p2 = build_prolongation(pre_triv).prolongation
    with pytest.raises(MismatchedFrame):
        difference_cocycle(p1, p2)


# --- torsor action ---------------------------------------------------------------------

def test_torsor_zero_acts_trivially():
    for factory in (pre_canonical, pre_z8, pre_inversion):
        base = build_prolongation(factory()).prolongation
        h2 = cohomology_group(2, derive(factory()).module)
        zero = (0,) * len(h2.invariant_factors)
        acted = torsor_act(zero, base)
        assert are_equivalent(base, acted) is not None


def test_torsor_moves_klein_to_cyclic():
    base = build_prolongation(pre_canonical()).prolongation
    acted = torsor_act((1,), base)
    assert acted.e.b.order_profile() == (1, 2, 4, 4)
    assert are_equivalent(base, acted) is None


def test_torsor_involution_returns():
    base = build_prolongation(pre_canonical()).prolongation
    twice = torsor_act((1,), torsor_act((1,), base))
    assert are_equivalent(base, twice) is not None


def test_torsor_freeness():
    for factory in VANISHING:
        pre = factory()
        base = build_prolongation(pre).prolongation
        h2 = cohomology_group(2, derive(pre).module)
        for coords in itertools.product(*(range(d) for d in h2.invariant_factors)):
            acted = torsor_act(coords, base)
            equivalent = are_equivalent(base, acted) is not None
            assert equivalent == all(c == 0 for c in coords)


def test_torsor_transitivity_by_difference():
    pre = pre_z3_over_z3()
    classes = enumerate_classes(pre)
    for c1 in classes:
        for c2 in classes:
            tau = difference_cocycle(c1.representative, c2.representative)
            h2 = cohomology_group(2, derive(pre).module)
            moved = torsor_act(h2.coordinates(tau), c1.representative)
            assert are_equivalent(moved, c2.representative) is not None


# --- enumeration and the exhaustive oracle ----------------------------------------------

def test_trivial_quotient_single_class():
    assert len(enumerate_classes(pre_identity_gamma())) == 1
    assert len(brute_force_coverings(pre_identity_gamma())) == 1


def test_canonical_two_classes():
    classes = canonical_classes()
    assert len(classes) == 2
    profiles = sorted(c.representative.e.b.order_profile() for c in classes)
    assert profiles == [(1, 2, 2, 2), (1, 2, 4, 4)]
    assert len(brute_force_coverings(pre_canonical())) == 2


def test_z3_kernel_single_class():
    """Quotient Z2 with kernel Z3 and trivial action: gcd kills H^2."""
    z1, z2, z3 = builtin("Z1"), builtin("Z2"), builtin("Z3")
    e0 = make_extension(identity_hom(z3), trivial_hom(z3, z1))
    ident = (0, 1, 2)
    pre = PreProlongation(e0=e0, alpha=identity_hom(z3),
                          gamma=Homomorphism(z1, z2, (0,)),
                          theta=(ident, ident))
    classes = enumerate_classes(pre)
    assert equivalent_class_pair(classes) is None
    assert len(classes) == 1
    assert len(brute_force_coverings(pre)) == 1


def test_z3_over_z3_three_classes():
    pre = pre_z3_over_z3()
    classes = enumerate_classes(pre)
    assert equivalent_class_pair(classes) is None
    assert len(classes) == 3
    profiles = sorted(c.representative.e.b.order_profile() for c in classes)
    assert profiles[0] == (1, 3, 3, 3, 3, 3, 3, 3, 3)
    assert profiles[1] == profiles[2] == (1, 3, 3, 9, 9, 9, 9, 9, 9)
    assert len(brute_force_coverings(pre)) == 3


def test_klein_quotient_eight_classes():
    """Rank-2 quotient: H^2(V4, Z2) = (Z2)^3 gives eight covering classes,
    realizing the four groups of order 8 with a center containing the kernel."""
    from collections import Counter
    z1, z2, v4 = builtin("Z1"), builtin("Z2"), builtin("V4")
    e0 = make_extension(identity_hom(z2), trivial_hom(z2, z1))
    pre = PreProlongation(e0=e0, alpha=identity_hom(z2),
                          gamma=Homomorphism(z1, v4, (0,)),
                          theta=((0, 1),) * 4)
    h2 = cohomology_group(2, derive(pre).module)
    assert h2.invariant_factors == (2, 2, 2)
    classes = enumerate_classes(pre)
    coverings = brute_force_coverings(pre)
    assert len(classes) == len(coverings) == 8
    expected = Counter({
        (1, 2, 2, 2, 2, 2, 2, 2): 1,   # elementary abelian
        (1, 2, 2, 2, 4, 4, 4, 4): 3,   # Z4 x Z2
        (1, 2, 2, 2, 2, 2, 4, 4): 3,   # dihedral
        (1, 2, 4, 4, 4, 4, 4, 4): 1,   # quaternion
    })
    assert Counter(c.representative.e.b.order_profile() for c in classes) == expected
    assert Counter(p.e.b.order_profile() for p in coverings) == expected


def test_obstructed_has_no_coverings():
    assert brute_force_coverings(pre_obstructed()) == ()
    with pytest.raises(ObstructionNonzero):
        enumerate_classes(pre_obstructed())


@pytest.mark.parametrize("factory", VANISHING)
def test_counts_agree_with_h2(factory):
    pre = factory()
    classes = enumerate_classes(pre)
    assert equivalent_class_pair(classes) is None
    coverings = brute_force_coverings(pre)
    h2 = cohomology_group(2, derive(pre).module)
    assert len(classes) == len(coverings) == h2.order
    for c in classes:
        assert validate_prolongation(c.representative).ok
        assert verify_covering(c.representative, pre)
        hits = [p for p in coverings
                if are_equivalent(c.representative, p) is not None]
        assert len(hits) == 1


def test_outputs_deterministic():
    first = brute_force_coverings(pre_canonical())
    second = brute_force_coverings(pre_canonical())
    assert [p.e.b.table for p in first] == [p.e.b.table for p in second]
    c1 = enumerate_classes(pre_z8())
    c2 = enumerate_classes(pre_z8())
    assert [c.representative.e.b.table for c in c1] == \
        [c.representative.e.b.table for c in c2]


# --- certification reuse ------------------------------------------------------------

def _outcome(check, p, pre):
    try:
        return check(p, pre)
    except ProlongError as exc:
        return type(exc)


def _sweep_frames(pres) -> dict:
    """The default-sweep inputs grouped by frame, in sweep order."""
    frames: dict = {}
    for pre in pres:
        frames.setdefault((pre.e0, pre.alpha, pre.gamma), []).append(pre)
    return frames


def _record_crossed_products(monkeypatch) -> list:
    """(pre, crossed product) for every later crossed_product call that
    returns, from any prolong module."""
    built = []
    real = obstruction.crossed_product

    def recorded(pre, *args, **kwargs):
        cp = real(pre, *args, **kwargs)
        built.append((pre, cp))
        return cp

    for module in (obstruction, classify):
        monkeypatch.setattr(module, "crossed_product", recorded)
    return built


def test_verify_covering_matches_full_path(monkeypatch, default_sweep):
    """Every ladder brute_force_coverings assembles and crossed_product
    certifies, over every tenth frame of the default sweep, gets the same
    answer against each theta of its frame whether or not its crossed module
    is certified anew."""
    frames = _sweep_frames(default_sweep)
    built = _record_crossed_products(monkeypatch)
    for thetas in list(frames.values())[::10]:
        for pre in thetas:
            brute_force_coverings(pre)
    monkeypatch.undo()
    assembled = [(cp.ladder, pre) for pre, cp in built]
    answers = []
    for p, pre in assembled:
        for other in frames[(pre.e0, pre.alpha, pre.gamma)]:
            answer = _outcome(verify_covering, p, other)
            assert answer == _outcome(reference_verify_covering, p, other)
            answers.append((other.theta == pre.theta, answer))
    assert (True, True) in answers and (False, False) in answers
    assert {answer for _, answer in answers} == {True, False}


def test_crossed_product_reads_off_the_induced_crossed_module(monkeypatch,
                                                               default_sweep):
    """Over every tenth frame of the default sweep, every ladder that the
    sweep's check builds (the canonical covering, the oracle's and the
    enumerated classes) carries the crossed module induce_crossed_module derives from it: the same
    theta, phi, eps and projection of the induced row."""
    built = _record_crossed_products(monkeypatch)
    for thetas in list(_sweep_frames(default_sweep).values())[::10]:
        for pre in thetas:
            check(pre)
    monkeypatch.undo()
    assert len(built) > 100
    noncentral = 0
    for pre, cp in built:
        read, full = cp.icm, induce_crossed_module(cp.ladder)
        assert read.cm == full.cm and read.cm.theta == full.cm.theta == pre.theta
        assert read.phi == full.phi
        assert read.induced.eps.map == full.induced.eps.map
        assert read.induced.seq.p.map == full.induced.seq.p.map
        noncentral += any(p != read.phi[0] for p in read.phi)
    assert noncentral


def test_section_read_matches_full_read(monkeypatch, default_sweep):
    """The theta and phi that induce_crossed_module and ladder_crossed_module
    read off the least section are those of the full read, which conjugates
    every element of B over all of E0 (reference_induced_action): on every
    crossed product the sweep's check builds over every tenth frame of the
    default sweep, and on the ladders of klein_ladder.json and
    ladder_pair.json."""
    built = _record_crossed_products(monkeypatch)
    for thetas in list(_sweep_frames(default_sweep).values())[::10]:
        for pre in thetas:
            check(pre)
    monkeypatch.undo()
    ladders = list({id(cp): cp.ladder for _, cp in built}.values())
    assert len(ladders) > 100
    for name in ("klein_ladder.json", "ladder_pair.json"):
        ladders.extend(load_scenario(SCENARIOS / name).ladders)
    nontrivial = 0
    for p in ladders:
        _, phi, theta = reference_induced_action(p)
        for icm in (induce_crossed_module(p), obstruction.ladder_crossed_module(p)):
            assert icm.cm.theta == theta and icm.phi == phi
        nontrivial += any(t != theta[0] for t in theta)
    assert nontrivial


def test_section_travels_once(monkeypatch):
    """prolong equiv on ladder_pair.json picks each ladder's least section
    once: section_action reads theta off it, the induced crossed module
    keeps it, and the reduction of the first ladder reuses it."""
    calls = []
    real = extensions.choose_section

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("prolong") and getattr(module, "choose_section", None) is real:
            monkeypatch.setattr(module, "choose_section", counted)
    out = io.StringIO()
    assert run(["--format", "json", "equiv", str(SCENARIOS / "ladder_pair.json")],
               out=out) == 3
    assert len(calls) == 2
    for p in load_scenario(SCENARIOS / "ladder_pair.json").ladders:
        assert obstruction.ladder_crossed_module(p).least == real(p.e).u


DIFFERENCE_MUTANTS = {
    # the second reduction's factor set moved off the identified kernel
    "kernel": ("next(e for e in d.e0.elements() if e not in d.i.map)",
               "difference at (1, 1) must lie in the identified kernel"),
    # moved by i(1) at (1, 1) only, which A_theta's inversion makes no cocycle
    "cocycle": ("d.i.map[1]", "difference of lifts must be a 2-cocycle"),
}


@pytest.mark.parametrize("mutant", sorted(DIFFERENCE_MUTANTS))
def test_difference_cocycle_certificates_catch_mutants(mutant):
    """Under python -O, difference_cocycle fed a second lift that no longer
    lies over the first one's factor set raises CertificateFailed."""
    import subprocess
    from pathlib import Path
    shift, message = DIFFERENCE_MUTANTS[mutant]
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import prolong.classify as cl\n"
        "from prolong.errors import CertificateFailed\n"
        "from prolong.extensions import FactorSet\n"
        "from prolong.obstruction import build_prolongation, derive\n"
        "from test_obstruction import pre_inversion\n"
        "d = derive(pre_inversion())\n"
        "p = build_prolongation(pre_inversion()).prolongation\n"
        "real, calls = cl._reduce, []\n"
        "def mutant(ladder):\n"
        "    red = real(ladder)\n"
        "    calls.append(ladder)\n"
        "    if len(calls) == 1:\n"
        "        return red\n"
        "    f = [list(row) for row in red.fs.f]\n"
        f"    f[1][1] = d.e0.mul(f[1][1], {shift})\n"
        "    return cl._Reduction(red.icm, red.u,\n"
        "                         FactorSet(red.fs.ext, red.fs.section, f))\n"
        "cl._reduce = mutant\n"
        "try:\n"
        "    cl.difference_cocycle(p, p)\n"
        "except CertificateFailed as exc:\n"
        "    print('certificate:', exc)\n"
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": f"{src}:{Path(__file__).resolve().parent}"})
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"certificate: {message}\n"


def test_base_covering_is_its_own_reduction(default_sweep):
    """Over every tenth frame of the default sweep, the covering of each
    vanishing class is a crossed product over coker.reps whose reduction is
    its own u and h, the data enumerate_classes acts on."""
    checked = 0
    for thetas in list(_sweep_frames(default_sweep).values())[::10]:
        for pre in thetas:
            base = obstruction_class(pre).covering
            if base is None:
                continue
            red = classify._reduction(base.ladder, base.icm)
            assert red.u == base.u and red.fs.f == base.h
            checked += 1
    assert checked > 50


LIFTS_PER_FRAME = 64


def _lifts(e0_order: int, npi: int, rng: random.Random) -> list:
    """Normalized lifts with values drawn from all of E0 at each position
    (x, y), x, y >= 1: every one when there are at most LIFTS_PER_FRAME,
    else that many drawn at random."""
    positions = [(x, y) for x in range(1, npi) for y in range(1, npi)]
    if e0_order ** len(positions) <= LIFTS_PER_FRAME:
        combos = list(itertools.product(range(e0_order), repeat=len(positions)))
    else:
        combos = [[rng.randrange(e0_order) for _ in positions]
                  for _ in range(LIFTS_PER_FRAME)]
    lifts = []
    for combo in combos:
        h = [[0] * npi for _ in range(npi)]
        for (x, y), e in zip(positions, combo):
            h[x][y] = e
        lifts.append(h)
    return lifts


def _construction(build, pre, u, h):
    """B_h and the ladder's maps, or the exception's type and message."""
    try:
        cp = build(pre, u, h)
    except ProlongError as exc:
        return type(exc), str(exc)
    bh, induced = cp.ext.b, cp.icm.induced
    return (bh.table, bh.inv, bh.gens, bh.labels, bh.name, cp.ext.j.map,
            cp.ext.p.map, cp.beta.map, induced.eps.map, induced.seq.p.map,
            cp.icm.phi, cp.u, cp.h)


def test_crossed_product_matches_reference_construction(default_sweep):
    """Over every tenth frame of the default sweep and every theta on it,
    crossed_product and the construction that composes phi_x phi_y on all of
    E0 and proves B_h a group with validate_group agree on every lift drawn
    from E0: the same group, labels, name and ladder maps, or the same
    exception and message."""
    rng = random.Random(9)
    outcomes = Counter()
    for thetas in list(_sweep_frames(default_sweep).values())[::10]:
        d = derive(thetas[0])
        lifts = _lifts(d.e0.order, d.pi0.order, rng)
        for pre in thetas:
            u = lift_factor_set(pre).u
            for h in lifts:
                fast = _construction(crossed_product, pre, u, h)
                assert fast == _construction(reference_crossed_product, pre, u, h)
                outcomes[fast[0].__name__ if isinstance(fast[0], type) else "accepted"] += 1
    assert outcomes.keys() == {"accepted", "PreconditionFailed", "NotHomomorphism"}


def test_brute_force_coverings_matches_reference(default_sweep):
    """On every tenth input of the default sweep, keeping the lifts
    crossed_product accepts gives the ladders, in order, that filtering by an
    associative pairing table and the induced theta gives."""
    sizes = set()
    for pre in default_sweep[::10]:
        fast = brute_force_coverings(pre)
        slow = reference_brute_force_coverings(pre)
        assert fast == slow
        assert [p.e.b.labels for p in fast] == [p.e.b.labels for p in slow]
        sizes.add(len(fast))
    assert {0, 1, 2} <= sizes


# --- one build per lift, and the backtracking oracle ---------------------------------

def test_products_equal_fresh_builds(monkeypatch, default_sweep):
    """On every default-sweep input, every crossed product the check gets
    back (the obstruction's covering, the oracle's lifts and the classes)
    is the one object built for its lift, and equals what the reference
    construction builds fresh from the same u and h."""
    built = _record_crossed_products(monkeypatch)
    for pre in default_sweep:
        check(pre)
    monkeypatch.undo()
    first: dict = {}
    for pre, cp in built:
        key = (pre, pre._tags, cp.u, cp.h)
        assert first.setdefault(key, cp) is cp
    assert len(first) == 1822 < len(built)
    for (pre, _, u, h), cp in first.items():
        assert (_construction(lambda *_: cp, pre, u, h)
                == _construction(reference_crossed_product, pre, u, h))


def test_canonical_lift_is_computed_once_per_input(monkeypatch, default_sweep):
    """A cold default pass computes one canonical lift per input: the
    obstruction and the oracle of an input share it."""
    _clear_caches()
    lifts = _record_calls(monkeypatch, obstruction._lift)
    for pre in default_sweep:
        check(pre)
    assert len(lifts) == len(default_sweep) == 1101
    assert all(rng is None for _, rng in lifts)


def test_failing_lift_raises_on_every_call(monkeypatch):
    """A lift that fails a precondition is built on each call, raises each
    time, and is never stored."""
    pre = pre_z3_over_z3()
    u = lift_factor_set(pre).u
    h = ((0, 0, 0), (0, 1, 0), (0, 0, 0))
    builds = _record_calls(monkeypatch, obstruction._build_crossed_product)
    for _ in range(2):
        with pytest.raises(PreconditionFailed) as err:
            crossed_product(pre, u, h)
        assert err.value.which == "cocycle"
    assert len(builds) == 2
    assert (u, h) not in obstruction._products(pre, pre._tags)


def test_renamed_pre_prolongations_get_their_own_products():
    """Two pre-prolongations equal up to group names and labels each get
    products with their own names and labels, also when asked in turn."""
    from prolong.record import replace

    def pre_named(suffix):
        z2, z3, z6 = (replace(builtin(n), name=n + suffix) for n in ("Z2", "Z3", "Z6"))
        z4 = replace(builtin("Z4"), name="Z4" + suffix,
                     labels=tuple(f"g{k}{suffix}" for k in range(4)))
        e0 = make_extension(Homomorphism(z3, z6, (0, 2, 4)),
                            Homomorphism(z6, z2, (0, 1, 0, 1, 0, 1)))
        ident, inv = tuple(range(6)), (0, 5, 4, 3, 2, 1)
        return PreProlongation(e0=e0, alpha=identity_hom(z3),
                               gamma=Homomorphism(z2, z4, (0, 2)),
                               theta=(ident, inv, ident, inv))

    plain, primed = pre_named(""), pre_named("'")
    assert plain == primed
    u, h = (0, 1), ((0, 0), (0, 3))
    for pre, suffix in ((plain, ""), (primed, "'"), (plain, "")):
        cp = crossed_product(pre, u, h)
        assert cp is crossed_product(pre, u, h)
        assert cp.ext.b.name == f"[Z6{suffix}/{{0}};Z4{suffix}/{{0,2}}]"
        assert cp.ext.b.labels[1] == f"([0],[g1{suffix}])"
        assert cp.ext.g.name == "Z4" + suffix


def test_memo_holds_one_pre_prolongation():
    """The memo keeps the products of the last pre-prolongation asked
    about, and clearing the functools caches empties it."""
    canonical, z8 = pre_canonical(), pre_z8()
    first = build_prolongation(canonical).covering
    assert crossed_product(canonical, first.u, first.h) is first
    base = build_prolongation(z8).covering
    assert obstruction._products.cache_info().currsize == 1
    assert obstruction._products(z8, z8._tags) == {(base.u, base.h): base}
    again = crossed_product(canonical, first.u, first.h)
    assert again is not first and again.ext.b.table == first.ext.b.table
    _clear_caches()
    assert obstruction._products.cache_info().currsize == 0


def test_lift_search_leaves_are_the_accepted_lifts(default_sweep):
    """On every tenth default-sweep input, the leaves of the backtracking
    search are the lifts of the full itertools.product walk over the fibers
    that crossed_product accepts, in the same order."""
    leaves_seen = 0
    for pre in default_sweep[::10]:
        d, lfs = derive(pre), lift_factor_set(pre)
        npi = d.pi0.order
        over = groups.fibers(d.gammapi)
        positions = [(x, y) for x in range(1, npi) for y in range(1, npi)]
        accepted = []
        for combo in itertools.product(*(over[lfs.f[x][y]] for x, y in positions)):
            h = [[0] * npi for _ in range(npi)]
            for (x, y), e in zip(positions, combo):
                h[x][y] = e
            try:
                accepted.append(crossed_product(pre, lfs.u, h).h)
            except PreconditionFailed:
                continue
        leaves = [tuple(map(tuple, h)) for h in classify._cocycle_lifts(pre, lfs)]
        assert leaves == accepted
        leaves_seen += len(leaves)
    assert leaves_seen > 100


@pytest.mark.parametrize("g_name,center_element,coverings", [("Z6", 3, 3),
                                                            ("D4", 2, 1)])
def test_oracle_checks_middle_groups_past_sixteen(g_name, center_element,
                                                  coverings):
    """Kernel Z3 in B0 = Z6, gamma: Z2 -> G onto a central subgroup, theta
    trivial: middle groups of order 18 and 24, past the default max_order,
    which the larger sweep used to leave oracle-unchecked.  Given their own
    order, the oracle finds |H^2| coverings, the classes enumerate_classes
    finds."""
    z2, z3, z6, g = (builtin(n) for n in ("Z2", "Z3", "Z6", g_name))
    e0 = make_extension(Homomorphism(z3, z6, (0, 2, 4)),
                        Homomorphism(z6, z2, (0, 1, 0, 1, 0, 1)))
    pre = PreProlongation(e0=e0, alpha=identity_hom(z3),
                          gamma=Homomorphism(z2, g, (0, center_element)),
                          theta=(tuple(range(6)),) * g.order)
    order = 3 * g.order
    with pytest.raises(SearchBoundExceeded) as err:
        brute_force_coverings(pre)
    assert str(err.value) == f"middle group order {order} exceeds max_order = 16"
    found = brute_force_coverings(pre, max_order=order)
    classes = enumerate_classes(pre)
    assert len(found) == len(classes) == coverings
    assert cohomology_group(2, derive(pre).module).order == coverings
    for p in found:
        assert p.e.b.order == order
        assert validate_prolongation(p).ok and verify_covering(p, pre)
        assert sum(are_equivalent(p, c.representative) is not None
                   for c in classes) == 1


def _record_calls(monkeypatch, func) -> list:
    """The arguments of every later call to func, in every prolong module holding it."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "prolong" or name.startswith("prolong."))
                and getattr(module, func.__name__, None) is func):
            monkeypatch.setattr(module, func.__name__, recorded)
    return calls


def _inversion_scenario():
    scenario = SCENARIOS / "inversion_action.json"
    return load_scenario(scenario).pre_prolongation()


@pytest.mark.parametrize("factory,classes", [(_inversion_scenario, 1),
                                             (pre_canonical, 2)])
def test_built_ladders_are_not_validated_again(monkeypatch, factory, classes):
    """From cold caches, building, the brute-force search (which reduces its
    second ladder for the dedup when there is one) and the class enumeration
    read every ladder's crossed module off its construction: no ladder is
    validated or induced again, the one crossed module is checked once, and
    the only tables validated are the frame's two quotients, E0 and Pi0."""
    pre = factory()
    _clear_caches()
    validations = _record_calls(monkeypatch, extensions.validate_prolongation)
    inductions = _record_calls(monkeypatch, extensions.induced_sequence)
    checks = _record_calls(monkeypatch, crossed.check_crossed_module)
    tables = _record_calls(monkeypatch, groups.validate_group)
    build_prolongation(pre)
    assert len(brute_force_coverings(pre)) == len(enumerate_classes(pre)) == classes
    assert validations == [] and inductions == []
    d = derive(pre)
    assert checks == [(d.cm,)]
    assert [tuple(map(tuple, table)) for table, *_ in tables] == [d.e0.table,
                                                                  d.pi0.table]


def test_frames_and_crossed_modules_are_certified_once(monkeypatch):
    """From cold caches, the sweep's four checks on one scenario build its E0
    quotient and its cokernel once each and check its crossed module once."""
    scenario = SCENARIOS / "inversion_action.json"
    pre = load_scenario(scenario).pre_prolongation()
    _clear_caches()
    quotients = _record_calls(monkeypatch, groups.quotient)
    checks = _record_calls(monkeypatch, crossed.check_crossed_module)
    assert obstruction_class(pre).vanishes
    build_prolongation(pre)
    assert len(brute_force_coverings(pre)) == len(enumerate_classes(pre))
    d = derive(pre)
    assert len(quotients) == 2
    assert set(quotients) == {(pre.e0.b, d.e0_data.normal), (pre.g, d.coker.normal)}
    assert checks == [(d.cm,)]

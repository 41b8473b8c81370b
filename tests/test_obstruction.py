import io
import json
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import prolong.sweep
from prolong import obstruction
from prolong.cli import run
from prolong.cohomology import coboundary, is_coboundary
from prolong.errors import (
    ImageNotNormal,
    InvalidCrossedModule,
    MismatchedBase,
    NotAssociative,
    NotCentral,
    NotInjective,
    NotSurjective,
    ObstructionNonzero,
    PreconditionFailed,
    ProlongError,
)
from prolong.crossed import induce_crossed_module
from prolong.extensions import (
    induced_sequence,
    is_central,
    make_extension,
    validate_prolongation,
)
from prolong.fixtures import builtin
from prolong.groups import Homomorphism, identity_hom, trivial_hom, validate_group
from prolong.obstruction import (
    PreProlongation,
    build_prolongation,
    crossed_product,
    derive,
    ladder_crossed_module,
    lift_factor_set,
    obstruction_class,
    obstruction_cocycle,
    pairing_table,
    validate_pre,
    verify_covering,
)
from prolong.scenario import load_scenario
from prolong.sweep import SweepConfig, generate_pre_prolongations

from oracles import SCENARIOS, reference_pairing_table
from test_cohomology import _forbid_lattice, _record_lattices
from test_seeded_pins import _clear_caches


def pre_canonical():
    """Kernel Z2 over a trivial base quotient, target quotient Z2."""
    z1, z2 = builtin("Z1"), builtin("Z2")
    e0 = make_extension(identity_hom(z2), trivial_hom(z2, z1))
    return PreProlongation(e0=e0, alpha=identity_hom(z2),
                           gamma=Homomorphism(z1, z2, (0,)),
                           theta=((0, 1), (0, 1)))


def pre_obstructed():
    """E0 = Z4 with theta inverting; the class is the nonzero element of H^3."""
    z2, z4 = builtin("Z2"), builtin("Z4")
    e0 = make_extension(Homomorphism(z2, z4, (0, 2)),
                        Homomorphism(z4, z2, (0, 1, 0, 1)))
    ident, inv = (0, 1, 2, 3), (0, 3, 2, 1)
    return PreProlongation(e0=e0, alpha=identity_hom(z2),
                           gamma=Homomorphism(z2, z4, (0, 2)),
                           theta=(ident, inv, ident, inv))


def pre_z8():
    """Same frame as pre_obstructed but trivial theta: two cyclic coverings."""
    base = pre_obstructed()
    ident = (0, 1, 2, 3)
    return PreProlongation(e0=base.e0, alpha=base.alpha, gamma=base.gamma,
                           theta=(ident,) * 4)


def pre_inversion():
    """Kernel Z3 with inversion action; builds the dicyclic group of order 12."""
    z2, z3, z4, z6 = (builtin(n) for n in ("Z2", "Z3", "Z4", "Z6"))
    e0 = make_extension(Homomorphism(z3, z6, (0, 2, 4)),
                        Homomorphism(z6, z2, (0, 1, 0, 1, 0, 1)))
    ident, inv = tuple(range(6)), (0, 5, 4, 3, 2, 1)
    return PreProlongation(e0=e0, alpha=identity_hom(z3),
                           gamma=Homomorphism(z2, z4, (0, 2)),
                           theta=(ident, inv, ident, inv))


def test_derive_keeps_group_names_apart():
    """Two pre-prolongations equal up to group names each get their own names,
    from derive and from the induced sequence and crossed module of a ladder."""
    from prolong.record import replace

    def pre_named(suffix):
        z2, z3, z4, z6 = (replace(builtin(n), name=n + suffix)
                          for n in ("Z2", "Z3", "Z4", "Z6"))
        e0 = make_extension(Homomorphism(z3, z6, (0, 2, 4)),
                            Homomorphism(z6, z2, (0, 1, 0, 1, 0, 1)))
        ident, inv = tuple(range(6)), (0, 5, 4, 3, 2, 1)
        return PreProlongation(e0=e0, alpha=identity_hom(z3),
                               gamma=Homomorphism(z2, z4, (0, 2)),
                               theta=(ident, inv, ident, inv))

    plain, primed = pre_named(""), pre_named("'")
    assert plain == primed
    for pre, suffix in ((plain, ""), (primed, "'"), (plain, "")):
        d = derive(pre)
        assert d.e0.name.startswith("Z6" + suffix + "/")
        assert d.pi0.name.startswith("Z4" + suffix + "/")
        assert d.top.g.name == "Z2" + suffix
        ladder = build_prolongation(pre).prolongation
        ind = induced_sequence(ladder)
        assert ind.e0_data.quotient.name.startswith("Z6" + suffix + "/")
        assert ind.coker.quotient.name.startswith("Z4" + suffix + "/")
        assert ind.top.g.name == "Z2" + suffix
        for icm in (induce_crossed_module(ladder), ladder_crossed_module(ladder)):
            assert icm.cm.b.name.startswith("Z6" + suffix + "/")
            assert icm.cm.d_group.name == "Z4" + suffix
            assert icm.induced.coker.quotient.name.startswith("Z4" + suffix + "/")


def test_derive_refuses_alpha_off_the_base_row():
    pre = pre_inversion()
    wrong = PreProlongation(e0=pre.e0, alpha=Homomorphism(builtin("Z6"), builtin("Z3"),
                                                          (0, 1, 2, 0, 1, 2)),
                            gamma=pre.gamma, theta=pre.theta)
    with pytest.raises(MismatchedBase):
        derive(wrong)


def pre_identity_gamma():
    """gamma the identity: trivial cokernel, covering isomorphic to E0."""
    z2, z4 = builtin("Z2"), builtin("Z4")
    e0 = make_extension(Homomorphism(z2, z4, (0, 2)),
                        Homomorphism(z4, z2, (0, 1, 0, 1)))
    # C1 forces theta = conjugation on the whole image, trivial here
    ident = (0, 1, 2, 3)
    return PreProlongation(e0=e0, alpha=identity_hom(z2),
                           gamma=identity_hom(z2), theta=(ident, ident))


ALL_PRES = [pre_canonical, pre_obstructed, pre_z8, pre_inversion,
            pre_identity_gamma]


# --- validation ----------------------------------------------------------------

@pytest.mark.parametrize("factory", ALL_PRES)
def test_fixtures_validate(factory):
    assert validate_pre(factory()).ok


def test_corrupt_theta_fails_c1():
    pre = pre_inversion()
    ident = tuple(range(6))
    inv = (0, 5, 4, 3, 2, 1)
    bad = PreProlongation(e0=pre.e0, alpha=pre.alpha, gamma=pre.gamma,
                          theta=(ident, inv, inv, ident))
    report = validate_pre(bad)
    assert not report.ok
    assert any("crossed theta" in item.name or item.name.startswith("crossed_")
               for item in report.failures())


def test_validate_pre_checks_crossed_module_once(monkeypatch):
    import prolong.crossed
    import prolong.obstruction
    calls = []
    original = prolong.crossed.check_crossed_module

    def counted(cm):
        calls.append(cm)
        return original(cm)

    monkeypatch.setattr(prolong.crossed, "check_crossed_module", counted)
    monkeypatch.setattr(prolong.obstruction, "check_crossed_module", counted)
    derive.cache_clear()
    assert validate_pre(pre_inversion()).ok
    assert len(calls) == 1


# the error derive raises when an item fails first in validate_pre's report;
# every crossed_ item maps to InvalidCrossedModule
FIRST_FAILURE_ERRORS = {
    "wiring": MismatchedBase,
    "e0_central": NotCentral,
    "alpha_epi": NotSurjective,
    "gamma_mono": NotInjective,
    "gamma_image_normal": ImageNotNormal,
    "theta_shape": InvalidCrossedModule,
}


def _broken_pres() -> list:
    """pre_inversion with each frame item and theta's shape broken in turn,
    and a base row that is not central."""
    z1, z2, z3, z4, z6, s3 = (builtin(n) for n in ("Z1", "Z2", "Z3", "Z4", "Z6", "S3"))
    pre = pre_inversion()
    frame = {"e0": pre.e0, "alpha": pre.alpha, "gamma": pre.gamma, "theta": pre.theta}
    non_central = make_extension(Homomorphism(z3, s3, (0, 3, 4)),
                                 Homomorphism(s3, z2, (0, 1, 1, 0, 0, 1)))
    changes = [
        {"alpha": Homomorphism(z6, z3, (0, 1, 2, 0, 1, 2))},
        {"gamma": identity_hom(z4)},
        {"alpha": trivial_hom(z3, z3)},
        {"gamma": trivial_hom(z2, z4)},
        {"gamma": Homomorphism(z2, s3, (0, 1))},
        {"theta": pre.theta[:3]},
        {"e0": non_central, "alpha": trivial_hom(z3, z1), "gamma": identity_hom(z2),
         "theta": ((0, 1), (0, 1))},
    ]
    return [PreProlongation(**{**frame, **change}) for change in changes]


def test_derive_raises_exactly_when_validate_pre_fails(monkeypatch):
    """Over every candidate the default generation would try without its C2
    filter, the shipped scenarios and broken variants of one input, derive
    raises exactly when validate_pre's report fails, with the error its first
    failing item maps to; a crossed-module failure carries the report's
    details.  Generation derives nothing, and keeps exactly the candidates
    derive accepts, in order."""
    derive.cache_clear()
    accepted = generate_pre_prolongations(SweepConfig())
    assert obstruction._derive.cache_info()[:2] == (0, 0)
    monkeypatch.setattr(prolong.sweep, "c2_on_generators", lambda cm: True)
    tried = generate_pre_prolongations(SweepConfig())
    monkeypatch.undo()
    assert (len(tried), len(accepted)) == (3117, 1101)
    shipped = [load_scenario(path).pre_prolongation()
               for path in sorted(SCENARIOS.glob("*.json"))
               if "theta" in json.loads(path.read_text())]
    broken = _broken_pres()
    derive.cache_clear()
    failing = Counter()
    derived = []
    for pre in [*tried, *shipped, *broken]:
        report = validate_pre(pre)
        try:
            derive(pre)
            raised = None
            derived.append(pre)
        except ProlongError as exc:
            raised = exc
        failing[tuple(item.name for item in report.failures())] += 1
        if report.ok:
            assert raised is None
            continue
        first = report.failures()[0].name
        if first.startswith("crossed_"):
            assert type(raised) is InvalidCrossedModule
            assert str(raised) == "invalid crossed module: " + "; ".join(
                f"{item.name.removeprefix('crossed_')}: {item.detail or 'failed'}"
                for item in report.failures())
        else:
            assert isinstance(raised, FIRST_FAILURE_ERRORS[first]), (first, raised)
    assert failing[()] == 1101 + len(shipped)
    assert failing[("crossed_axiom_c2",)] == 2016
    assert derived == [*accepted, *shipped]
    assert [next(item.name for item in validate_pre(pre).failures())
            for pre in broken] == ["wiring", "wiring", "alpha_epi", "gamma_mono",
                                   "gamma_image_normal", "theta_shape", "e0_central"]


def test_certificates_survive_python_O():
    """A failed self-check raises CertificateFailed even when asserts are off."""
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import prolong.crossed as crossed\n"
        "import prolong.obstruction as ob\n"
        "from prolong.errors import CertificateFailed\n"
        "from test_obstruction import pre_canonical\n"
        "crossed._conjugates_by_theta = lambda *args: False\n"
        "try:\n"
        "    ob.build_prolongation(pre_canonical())\n"
        "except CertificateFailed as exc:\n"
        "    print('certificate:', exc)\n"
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": f"{src}:{Path(__file__).resolve().parent}"})
    assert res.returncode == 0, res.stderr
    assert "certificate: crossed-product ladder must induce theta" in res.stdout


# The certificates of crossed_product, fed mutated data: a theta changed at
# the image of one generator of B_h, and a beta that breaks the squares.
MUTANTS = {
    "theta": (
        "real = crossed._conjugates_by_theta\n"
        "def mutant(bh, e0, eps, p, theta):\n"
        "    g = next(p[s] for s in bh.gens if p[s] != 0)\n"
        "    theta = list(theta)\n"
        "    theta[g] = next(t for t in theta if t != theta[g])\n"
        "    return real(bh, e0, eps, p, theta)\n"
        "crossed._conjugates_by_theta = mutant\n",
        "crossed-product ladder must induce theta"),
    "beta": (
        "from prolong.groups import trivial_hom\n"
        "from prolong.record import replace\n"
        "real = ob.ladder_checks\n"
        "def mutant(p):\n"
        "    bad = replace(p, beta=trivial_hom(p.beta.source, p.beta.target))\n"
        "    if any(item.ok for item in real(bad)[:2]):\n"
        "        raise SystemExit('the mutant keeps a square')\n"
        "    return real(bad)\n"
        "ob.ladder_checks = mutant\n",
        "crossed-product ladder must validate"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_crossed_product_certificates_catch_mutants(mutant):
    """Under python -O, a crossed product whose certificates read a wrong
    theta or a beta that breaks both squares raises CertificateFailed."""
    import subprocess
    import sys
    from pathlib import Path
    patch, message = MUTANTS[mutant]
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import prolong.crossed as crossed\n"
        "import prolong.obstruction as ob\n"
        "from prolong.errors import CertificateFailed\n"
        "from test_obstruction import pre_inversion\n"
        + patch +
        "try:\n"
        "    ob.build_prolongation(pre_inversion())\n"
        "except CertificateFailed as exc:\n"
        "    print('certificate:', exc)\n"
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": f"{src}:{Path(__file__).resolve().parent}"})
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"certificate: {message}\n"


@pytest.mark.parametrize("name", ["klein_ladder.json", "ladder_pair.json"])
def test_user_ladder_certificate_catches_a_changed_theta(name):
    """Under python -O, verify_covering on a user ladder whose theta is
    changed at the image of one generator of B raises CertificateFailed."""
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import prolong.crossed as crossed\n"
        "from prolong.errors import CertificateFailed\n"
        "from prolong.obstruction import verify_covering\n"
        "from prolong.scenario import load_scenario\n"
        "from oracles import SCENARIOS\n"
        "real = crossed._conjugates_by_theta\n"
        "def mutant(b, e0, eps, p, theta):\n"
        "    g = next(p[s] for s in b.gens if p[s] != 0)\n"
        "    theta = list(theta)\n"
        "    theta[g] = theta[g][::-1]\n"
        "    return real(b, e0, eps, p, theta)\n"
        "crossed._conjugates_by_theta = mutant\n"
        f"scn = load_scenario(SCENARIOS / {name!r})\n"
        "try:\n"
        "    verify_covering(scn.ladders[0], scn.pre_prolongation())\n"
        "except CertificateFailed as exc:\n"
        "    print('certificate:', exc)\n"
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": f"{src}:{Path(__file__).resolve().parent}"})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "certificate: ladder must induce theta\n"


# --- lifting ---------------------------------------------------------------------

def test_lift_trivial_quotient():
    pre = pre_identity_gamma()
    lfs = lift_factor_set(pre)
    assert lfs.u == (0,)
    assert lfs.h == ((0,),)


def test_lift_canonical_is_least_index():
    lfs = lift_factor_set(pre_canonical())
    assert lfs.u == (0, 1)
    assert lfs.f == ((0, 0), (0, 0))
    assert lfs.h == ((0, 0), (0, 0))


def test_lift_fibers_respected():
    pre = pre_obstructed()
    d = derive(pre)
    for seed in range(6):
        lfs = lift_factor_set(pre, random.Random(seed))
        for x in d.pi0.elements():
            assert d.coker.projection.map[lfs.u[x]] == x
            for y in d.pi0.elements():
                assert d.gammapi.map[lfs.h[x][y]] == lfs.f[x][y]
                if x == 0 or y == 0:
                    assert lfs.h[x][y] == 0
    assert lfs.u[0] == 0


# --- the obstruction cocycle -------------------------------------------------------

def test_cocycle_zero_for_trivial_quotient():
    assert obstruction_cocycle(lift_factor_set(pre_identity_gamma())).is_zero()


def test_cocycle_zero_when_h_vanishes():
    assert obstruction_cocycle(lift_factor_set(pre_canonical())).is_zero()


def test_cocycle_value_of_obstructed_fixture():
    lfs = lift_factor_set(pre_obstructed())
    k = obstruction_cocycle(lfs)
    # canonical lift picks h(1,1) = 1 in E0 = Z4; k(1,1,1) = -1 - 1 = 2 = i(1)
    assert k.value((1, 1, 1)) == 1
    assert not k.is_zero()


def test_corrupted_lift_detected():
    """A lift value outside its fiber is flagged when the cochain is formed."""
    from prolong.errors import NotInKernel
    from prolong.obstruction import LiftedFactorSet
    pre = pre_z8()
    good = lift_factor_set(pre)
    bad = LiftedFactorSet(pre=pre, u=good.u, f=good.f,
                          h=((0, 0), (0, 0)))  # h(1,1) must map onto f(1,1) != 0
    with pytest.raises(NotInKernel):
        obstruction_cocycle(bad)


def test_class_zero_cases():
    assert obstruction_class(pre_canonical()).vanishes
    assert obstruction_class(pre_identity_gamma()).vanishes
    assert obstruction_class(pre_inversion()).vanishes


def test_class_nonzero_case():
    res = obstruction_class(pre_obstructed())
    assert res.h3.invariant_factors == (2,)
    assert res.coordinates == (1,)
    assert not res.vanishes


@pytest.mark.parametrize("factory", ALL_PRES)
def test_class_independent_of_choices(factory):
    pre = factory()
    canonical = obstruction_class(pre)
    for seed in range(10):
        rechosen = obstruction_class(pre, rng=random.Random(seed))
        assert rechosen.coordinates == canonical.coordinates


# --- crossed products ---------------------------------------------------------------

def test_crossed_product_direct_product_case():
    pre = pre_canonical()
    lfs = lift_factor_set(pre)
    cp = crossed_product(pre, lfs.u, lfs.h)
    assert cp.ext.b.order_profile() == (1, 2, 2, 2)  # Klein four-group
    assert is_central(cp.ext)


def test_crossed_product_with_twisting_cocycle():
    pre = pre_canonical()
    lfs = lift_factor_set(pre)
    h = ((0, 0), (0, 1))  # shift the lift by the nontrivial 2-cocycle
    cp = crossed_product(pre, lfs.u, h)
    assert cp.ext.b.order_profile() == (1, 2, 4, 4)  # cyclic of order 4


@st.composite
def pairings(draw):
    """An E0 and a Pi0 from the fixtures, with arbitrary phi and h over them."""
    e0 = builtin(draw(st.sampled_from(("Z1", "Z2", "Z3", "V4", "S3", "D4", "Q8"))))
    pi0 = builtin(draw(st.sampled_from(("Z1", "Z2", "Z3", "Z4", "V4"))))
    npi, element = pi0.order, st.integers(0, e0.order - 1)
    phi = draw(st.lists(st.lists(element, min_size=e0.order, max_size=e0.order),
                        min_size=npi, max_size=npi))
    h = draw(st.lists(st.lists(element, min_size=npi, max_size=npi),
                      min_size=npi, max_size=npi))
    return e0, npi, pi0.table, phi, h


@given(pairings())
def test_pairing_table_matches_oracle(case):
    assert pairing_table(*case) == reference_pairing_table(*case)


def test_crossed_product_rejects_non_cocycle():
    pre = pre_obstructed()
    lfs = lift_factor_set(pre)
    with pytest.raises(PreconditionFailed) as info:
        crossed_product(pre, lfs.u, lfs.h)
    assert info.value.which == "cocycle"


@pytest.mark.parametrize("factory,expected_outcomes", [
    (pre_z8, {True}),            # trivial action: every lift works
    (pre_obstructed, {False}),   # nonzero class: no lift works
    (pre_inversion, {True, False}),  # mixed: one lift out of three survives
])
def test_associativity_iff_preconditions(factory, expected_outcomes):
    """The raw pairing is associative exactly when the preconditions hold."""
    pre = factory()
    d = derive(pre)
    lfs = lift_factor_set(pre)
    phi = tuple(pre.theta[lfs.u[x]] for x in d.pi0.elements())
    fiber = [e for e in d.e0.elements()
             if d.gammapi.map[e] == lfs.f[1][1]]
    seen = set()
    for e in fiber:
        h = ((0, 0), (0, e))
        table = pairing_table(d.e0, 2, d.pi0.table, phi, h)
        try:
            validate_group(table)
            associative = True
        except NotAssociative:
            associative = False
        try:
            crossed_product(pre, lfs.u, h)
            preconditions_hold = True
        except PreconditionFailed:
            preconditions_hold = False
        assert associative == preconditions_hold
        seen.add(associative)
    assert seen == expected_outcomes


def test_obstructed_pairing_fails_associativity_with_witness():
    pre = pre_obstructed()
    d = derive(pre)
    lfs = lift_factor_set(pre)
    phi = tuple(pre.theta[lfs.u[x]] for x in d.pi0.elements())
    table = pairing_table(d.e0, 2, d.pi0.table, phi, lfs.h)
    with pytest.raises(NotAssociative) as info:
        validate_group(table)
    a, b, c = info.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_crossed_product_refuses_unnormalized_lift():
    """A constant h = c on an abelian E0 with trivial theta satisfies both
    identities but is not normalized: (0, 0) would not be B_h's identity."""
    pre = pre_z8()
    lfs = lift_factor_set(pre)
    c = 1
    h = ((c, c), (c, c))
    with pytest.raises(PreconditionFailed) as info:
        crossed_product(pre, lfs.u, h)
    assert info.value.which == "normalized"
    assert info.value.witness == (0, 0)


# --- building coverings ----------------------------------------------------------------

def test_build_identity_gamma_gives_e0():
    built = build_prolongation(pre_identity_gamma())
    assert built.prolongation.e.b.order_profile() == (1, 2, 4, 4)
    assert validate_prolongation(built.prolongation).ok


def test_build_canonical_gives_klein():
    built = build_prolongation(pre_canonical())
    b = built.prolongation.e.b
    assert b.order_profile() == (1, 2, 2, 2)
    assert b.table == builtin("V4").table
    assert verify_covering(built.prolongation, pre_canonical())


def test_build_obstructed_raises():
    with pytest.raises(ObstructionNonzero) as info:
        build_prolongation(pre_obstructed())
    assert info.value.coordinates == (1,)
    assert info.value.invariant_factors == (2,)


def test_build_inversion_gives_noncentral_dicyclic():
    built = build_prolongation(pre_inversion())
    b = built.prolongation.e.b
    assert b.order == 12
    assert b.order_profile() == (1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 6, 6)
    assert validate_prolongation(built.prolongation).ok
    assert verify_covering(built.prolongation, pre_inversion())
    # the covering exists and is perfectly valid, yet it is not central:
    # the induced action on the kernel is inversion, not the identity
    assert not is_central(built.prolongation.e)


def test_build_with_seeded_choices_still_covers():
    pre = pre_z8()
    for seed in (1, 2, 3):
        built = build_prolongation(pre, rng=random.Random(seed))
        assert validate_prolongation(built.prolongation).ok
        assert verify_covering(built.prolongation, pre)


# --- verify_covering -------------------------------------------------------------------

def test_verify_covering_detects_wrong_theta():
    built = build_prolongation(pre_z8())
    assert verify_covering(built.prolongation, pre_z8())
    assert not verify_covering(built.prolongation, pre_obstructed())


def test_verify_covering_checks_base():
    from prolong.errors import MismatchedBase
    built = build_prolongation(pre_canonical())
    with pytest.raises(MismatchedBase):
        verify_covering(built.prolongation, pre_z8())


def test_trivial_quotient_every_ladder_covers():
    pre = pre_identity_gamma()
    built = build_prolongation(pre)
    assert verify_covering(built.prolongation, pre)


# --- decisions without the integer lattice ------------------------------------------



def _cold_scenario(name):
    """The pre-prolongation of a shipped scenario, with every cache emptied."""
    pre = load_scenario(SCENARIOS / f"{name}.json").pre_prolongation()
    _clear_caches()
    return pre


def test_vanishing_class_needs_no_lattice(monkeypatch):
    """A vanishing obstruction is decided and built, and `prolong cohomology`
    answers without --basis, with no integer lattice in any degree; the
    witness found while deciding is the one build corrects h by."""
    pre = _cold_scenario("klein_quotient")
    _forbid_lattice(monkeypatch)
    solves = []
    monkeypatch.setattr(obstruction, "is_coboundary",
                        lambda c: solves.append(c) or is_coboundary(c))
    res = obstruction_class(pre)
    assert res.h3.invariant_factors == (2, 2, 2, 2)
    assert res.vanishes and res.coordinates == (0, 0, 0, 0)
    assert coboundary(res.witness).values == res.cocycle.values
    built = build_prolongation(pre)
    assert validate_prolongation(built.prolongation).ok
    assert len(solves) == 1          # one solve, shared by the class and build
    for degree in ("1", "2", "3"):
        out = io.StringIO()
        assert run(["--format", "json", "cohomology", "--degree", degree,
                    str(SCENARIOS / "klein_quotient.json")], out=out) == 0
        assert json.loads(out.getvalue())["invariant_factors"]


def test_class_covering_and_classes_share_one_solve(monkeypatch):
    """On a cold cache, the class, the covering and the classes of one input
    cost one obstruction cocycle, one coboundary solve and one constructed
    crossed product.  Only _solve resolves obstruction.crossed_product at
    call time, so the calls counted there are the constructed coverings."""
    from prolong.classify import enumerate_classes
    pre = _cold_scenario("klein_quotient")
    calls = {"obstruction_cocycle": 0, "is_coboundary": 0, "crossed_product": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(obstruction, name, wrapper)

    for name in calls:
        counted(name, getattr(obstruction, name))
    res = obstruction_class(pre)
    assert build_prolongation(pre) is res
    assert len(enumerate_classes(pre)) == 8
    assert calls == {"obstruction_cocycle": 1, "is_coboundary": 1, "crossed_product": 1}


def test_degree_two_matrix_is_factored_once_for_witness_and_lattice(monkeypatch):
    """On a cold cache, classifying the Klein quotient (Pi0 = V4, A = Z2)
    factors the 27x36 matrix [d_2 | moduli] once, keeping the 9 rows of v
    that give C^2 coordinates: the degree-3 witness and H^2's cocycle
    lattice are both read from it, and the lattice takes two more
    factorizations, of its generators and of the quotient."""
    from prolong import snf
    from prolong.classify import enumerate_classes
    pre = _cold_scenario("klein_quotient")
    real = snf.smith_normal_form
    shapes = []
    monkeypatch.setattr(snf, "smith_normal_form", lambda a, rows=None, cols=None, **k: (
        shapes.append((rows, cols, k.get("track"), k.get("v_rows")))
        or real(a, rows, cols, **k)))
    built = _record_lattices(monkeypatch)
    assert len(enumerate_classes(pre)) == 8
    assert built == [2]
    degree_two = [shape for shape in shapes if shape[:2] == (27, 36)]
    assert degree_two == [(27, 36, "uv", 9)]
    assert shapes[shapes.index(degree_two[0]) + 1:] == [(9, 9, "uU", None),
                                                        (9, 12, "uU", None)]


def test_nonzero_class_builds_only_the_degree_three_lattice(monkeypatch):
    pre = _cold_scenario("obstructed")
    built = _record_lattices(monkeypatch)
    res = obstruction_class(pre)
    assert res.coordinates == (1,) and res.witness is None
    assert built == [3]
    with pytest.raises(ObstructionNonzero) as info:
        build_prolongation(pre)
    assert info.value.coordinates == (1,)
    assert built == [3]


def test_oracle_on_an_obstructed_input_builds_no_lattice(monkeypatch):
    """prolong oracle decides the class vanishes before it enumerates, and
    the coordinates of a nonzero class are read only when asked for, so an
    obstructed input builds no integer lattice; the answer is unchanged."""
    pre = _cold_scenario("obstructed")
    built = _record_lattices(monkeypatch)
    out = io.StringIO()
    assert run(["--format", "json", "oracle", str(SCENARIOS / "obstructed.json")],
               out=out) == 0
    assert json.loads(out.getvalue()) == {
        "command": "oracle", "brute_force_count": 0, "enumerated_count": 0,
        "match": True}
    res = obstruction_class(pre)
    assert not res.vanishes and built == []
    assert res.coordinates == (1,) and built == [3]

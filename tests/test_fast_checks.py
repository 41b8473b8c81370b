"""The structural checks on generating sets against their full-loop oracles.

validate_group (Light's test), Homomorphism (the check on generators),
is_normal and is_central (conjugation and commutation by generators) and
check_crossed_module (theta, C1 and C2 on generators) must agree with the
full loops in tests/oracles.py on acceptance, exception type, message,
witness and every report item.  The inputs of the default and the larger
sweep are pinned by hash, so the faster checks and the generation that no
longer derives its candidates provably give the same pre-prolongations.
"""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from prolong.crossed import CrossedModule, check_crossed_module
from prolong.errors import NotAssociative, ProlongError
from prolong.extensions import is_central, make_extension
from prolong.fixtures import builtin, builtin_names
from prolong.groups import (
    FiniteGroup,
    Homomorphism,
    all_homomorphisms,
    automorphism_group_table,
    enumerate_subgroups,
    generating_set,
    identity_hom,
    is_normal,
    quotient,
    subgroup_as_group,
    trivial_hom,
    validate_group,
)
from prolong.sweep import SweepConfig, generate_pre_prolongations

from oracles import (
    brute_center,
    brute_is_normal,
    reference_check_crossed_module,
    reference_check_homomorphism,
    reference_generating_set,
    reference_validate_group,
)

SMALL = tuple(n for n in builtin_names() if builtin(n).order <= 8)
# E0 candidates whose automorphism groups keep theta enumeration small
ACTED_ON = ("Z1", "Z2", "Z3", "Z4", "V4", "Z6", "S3", "D4", "Q8")


def outcome(fn, *args):
    """What a check did: its exception type, message and witness, or None."""
    try:
        fn(*args)
    except ProlongError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


def random_loop(n: int, rnd: random.Random) -> list[list[int]]:
    """An identity-pinned Latin square of order n, by randomized backtracking."""
    rows = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        free = [v for v in range(n) if v not in used]
        rnd.shuffle(free)
        for v in free:
            rows[i][j] = v
            if fill(k + 1):
                return True
        rows[i][j] = -1
        return False

    fill(0)
    return rows


def relabel(table, perm):
    """The table transported along perm (a permutation fixing 0)."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


@st.composite
def tables(draw):
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("loop", "group", "altered")))
    if kind == "loop":
        return random_loop(draw(st.integers(1, 8)), rnd)
    g = builtin(draw(st.sampled_from(builtin_names())))
    rest = list(range(1, g.order))
    rnd.shuffle(rest)
    table = relabel(g.table, [0] + rest)
    if kind == "altered" and g.order > 1:
        a, b = rnd.randrange(g.order), rnd.randrange(g.order)
        table[a][b] = rnd.randrange(g.order)
    return table


@given(tables())
def test_validate_group_matches_oracle(table):
    fast = outcome(validate_group, table)
    assert fast == outcome(reference_validate_group, table)
    if fast is None:
        g, ref = validate_group(table), reference_validate_group(table)
        assert (g.table, g.inv) == (ref.table, ref.inv)
        assert g.gens == reference_generating_set(g)


def test_non_associative_loops_name_the_first_triple():
    rnd = random.Random(7)
    found = 0
    for n in range(5, 9):
        for _ in range(5):
            table = random_loop(n, rnd)
            fast = outcome(validate_group, table)
            assert fast == outcome(reference_validate_group, table)
            found += fast is not None and fast[0] is NotAssociative
    assert found > 0


def test_order_one_table():
    g = validate_group([[0]])
    assert g.gens == () and generating_set(g) == ()
    assert outcome(validate_group, [[0]]) == outcome(reference_validate_group, [[0]])


def test_gens_are_always_derived_from_the_table():
    # the checks trust gens, so no caller may supply a set that does not generate
    v4 = builtin("V4")
    with pytest.raises(TypeError):
        FiniteGroup(order=4, table=v4.table, inv=v4.inv, gens=(1,))
    renamed = FiniteGroup(order=4, table=v4.table, inv=v4.inv, name="K")
    assert renamed.gens == v4.gens == reference_generating_set(v4)


@st.composite
def maps(draw):
    source = builtin(draw(st.sampled_from(SMALL)))
    target = builtin(draw(st.sampled_from(SMALL)))
    homs = all_homomorphisms(source, target)
    m = list(draw(st.sampled_from(homs)).map)
    if draw(st.booleans()):
        a = draw(st.integers(0, source.order - 1))
        m[a] = draw(st.integers(0, target.order - 1))
    return source, target, tuple(m)


@given(maps())
def test_homomorphism_matches_oracle(case):
    source, target, m = case
    assert (outcome(Homomorphism, source, target, m)
            == outcome(reference_check_homomorphism, source, target, m))


@pytest.mark.parametrize("name", builtin_names())
def test_trivial_source_homomorphisms(name):
    z1, g = builtin("Z1"), builtin(name)
    assert Homomorphism(z1, g, (0,)).map == (0,)
    for m in ((0, 0), (1,)) if g.order > 1 else ((0, 0),):
        rejected = outcome(Homomorphism, z1, g, m)
        assert rejected is not None
        assert rejected == outcome(reference_check_homomorphism, z1, g, m)


def thetas_into_aut(g, b):
    """Every homomorphism G -> Aut(b) as a theta table."""
    aut_group, auts = automorphism_group_table(b)
    return [tuple(auts[h.map[x]].map for x in g.elements())
            for h in all_homomorphisms(g, aut_group)]


@st.composite
def crossed_modules(draw):
    """Thetas into Aut(b) that are homomorphisms, have one permutation's entries
    swapped, are assigned at random, are conjugated by a permutation of b (a
    homomorphism into Sym(b)), or are twisted per left coset of <s> for the
    first generator s of G (multiplicative at s, in general nowhere else)."""
    b = builtin(draw(st.sampled_from(ACTED_ON)))
    g = builtin(draw(st.sampled_from(SMALL)))
    d = draw(st.sampled_from(all_homomorphisms(b, g)))
    auts = automorphism_group_table(b)[1]
    kind = draw(st.sampled_from(("homomorphic", "swapped", "assigned",
                                 "conjugated", "twisted")))
    if kind == "assigned":
        theta = [draw(st.sampled_from(auts)).map for _ in g.elements()]
    else:
        theta = list(draw(st.sampled_from(thetas_into_aut(g, b))))
    if kind == "swapped" and b.order > 1:
        k = draw(st.integers(0, g.order - 1))
        x, y = draw(st.lists(st.integers(0, b.order - 1), min_size=2, max_size=2,
                             unique=True))
        perm = list(theta[k])
        perm[x], perm[y] = perm[y], perm[x]
        theta[k] = tuple(perm)
    if kind == "conjugated":
        sigma = [0] + draw(st.permutations(range(1, b.order)))
        back = [sigma.index(x) for x in b.elements()]
        theta = [tuple(sigma[p[back[x]]] for x in b.elements()) for p in theta]
    if kind == "twisted" and g.order > 1:
        s = g.gens[0]
        cyclic = [0, s]
        while cyclic[-1] != 0:
            cyclic.append(g.mul(cyclic[-1], s))
        rep = {x: min(g.mul(x, c) for c in cyclic) for x in g.elements()}
        twist = {r: draw(st.sampled_from(auts)).map for r in set(rep.values())}
        twist[0] = tuple(b.elements())
        theta = [tuple(twist[rep[x]][y] for y in p)
                 for x, p in zip(g.elements(), theta)]
    return CrossedModule(b, g, d, tuple(theta))


@given(crossed_modules())
def test_check_crossed_module_matches_oracle(cm):
    assert check_crossed_module(cm) == reference_check_crossed_module(cm)


def test_inner_action_crossed_modules_match_oracle():
    for name in ACTED_ON:
        b = builtin(name)
        theta = tuple(tuple(b.conjugate(x, y) for y in b.elements())
                      for x in b.elements())
        cm = CrossedModule(b, b, identity_hom(b), theta)
        report = check_crossed_module(cm)
        assert report.ok and report == reference_check_crossed_module(cm)


def test_trivial_group_with_non_identity_theta0():
    z3, z1 = builtin("Z3"), builtin("Z1")
    cm = CrossedModule(z3, z1, trivial_hom(z3, z1), ((0, 2, 1),))
    report = check_crossed_module(cm)
    assert report == reference_check_crossed_module(cm)
    hom = next(item for item in report.items if item.name == "theta_homomorphism")
    assert not hom.ok and hom.detail == "theta[0]theta[0] != theta[0*0]"


def test_homomorphic_theta_of_non_automorphisms():
    # theta[1] preserves every product x*1 of Z2^3 but not x*2: (6+1 -> 7+1
    # holds, 2+4 -> 2+4 = 6 != 7); G = Z2 acts through it homomorphically
    z2cubed, z2 = builtin("Z2xZ2xZ2"), builtin("Z2")
    cm = CrossedModule(z2cubed, z2, trivial_hom(z2cubed, z2),
                       (tuple(range(8)), (0, 1, 2, 3, 4, 5, 7, 6)))
    report = check_crossed_module(cm)
    assert report == reference_check_crossed_module(cm)
    assert [f.name for f in report.failures()] == ["theta_automorphisms"]


def test_c1_failure_over_homomorphic_theta():
    s3 = builtin("S3")
    cm = CrossedModule(s3, s3, identity_hom(s3), ((0, 1, 2, 3, 4, 5),) * 6)
    report = check_crossed_module(cm)
    assert report == reference_check_crossed_module(cm)
    assert [f.name for f in report.failures()] == ["axiom_c1", "axiom_c2"]


def test_c2_failure_over_homomorphic_theta():
    z3, s3 = builtin("Z3"), builtin("S3")
    d = next(h for h in all_homomorphisms(z3, s3) if h.map[1] != 0)
    cm = CrossedModule(z3, s3, d, ((0, 1, 2),) * 6)
    report = check_crossed_module(cm)
    assert report == reference_check_crossed_module(cm)
    assert [f.name for f in report.failures()] == ["axiom_c2"]


@pytest.mark.parametrize("name", builtin_names())
def test_normal_and_central_match_oracles(name):
    g = builtin(name)
    center = set(brute_center(g))
    for sub in enumerate_subgroups(g):
        assert is_normal(sub) == brute_is_normal(g, sub.members)
        if is_normal(sub):
            inclusion = subgroup_as_group(sub)[1]
            row = make_extension(inclusion, quotient(g, sub).projection)
            assert is_central(row) == center.issuperset(sub.members)


@pytest.mark.parametrize("name", builtin_names())
def test_generating_set_matches_oracle(name):
    # all_homomorphisms starts from the pinned elements: a subgroup's members
    g = builtin(name)
    starts = [()] + [tuple(m for m in sub.members if m != 0)
                     for sub in enumerate_subgroups(g)]
    for start in starts:
        assert generating_set(g, start) == reference_generating_set(g, start)


@given(st.sampled_from(builtin_names()), st.data())
def test_generating_set_matches_oracle_on_any_start(name, data):
    g = builtin(name)
    start = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    assert generating_set(g, start) == reference_generating_set(g, start)


# SHA-256 of the default sweep's inputs, recorded before the checks moved to
# generating sets: the same tables, maps and thetas in the same order
SWEEP_INPUTS_SHA256 = "13c42071046c6bebaac9cad09223b845569db39d3fb815893001bd6e819a49af"
# the same digest of the larger sweep's inputs (--max-cokernel 4 --max-total 32),
# recorded while generation still derived every candidate
LARGER_SWEEP_INPUTS_SHA256 = (
    "3ad11671aa0aeeb698ccc0d05326558d2a82a8dd92b1570141d14e33f22dca80")


def _inputs_digest(pres) -> str:
    digest = hashlib.sha256()
    for pre in pres:
        e0 = pre.e0
        digest.update(repr((e0.a.table, e0.b.table, e0.g.table, e0.j.map, e0.p.map,
                            pre.alpha.target.table, pre.alpha.map,
                            pre.gamma.target.table, pre.gamma.map,
                            pre.theta)).encode())
    return digest.hexdigest()


def test_default_sweep_inputs_are_pinned(default_sweep):
    assert len(default_sweep) == 1101
    assert _inputs_digest(default_sweep) == SWEEP_INPUTS_SHA256


def test_larger_sweep_inputs_are_pinned():
    pres = generate_pre_prolongations(SweepConfig(max_cokernel=4, max_total=32))
    assert len(pres) == 2868
    assert _inputs_digest(pres) == LARGER_SWEEP_INPUTS_SHA256

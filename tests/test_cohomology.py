import functools
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from prolong.cohomology import (
    Cochain,
    abelian_structure,
    coboundary,
    cochain_add,
    cochain_from_values,
    cochain_sub,
    cohomology_group,
    free_positions,
    is_coboundary,
    is_cocycle,
    pi_module,
    same_class,
    trivial_module,
    zero_cochain,
)
from prolong.errors import (
    CertificateFailed,
    DegreeOutOfRange,
    NotAbelian,
    NotCocycle,
    NotNormalized,
    SizeBoundExceeded,
)
from prolong import cohomology, snf
from prolong.fixtures import builtin, cyclic
from prolong.groups import all_homomorphisms, automorphism_group_table, direct_product
from prolong.obstruction import derive
from prolong.record import replace

from oracles import (
    ReferenceCohomology,
    enumerate_cohomology,
    invariant_factors_from_orders,
    iter_normalized_cochains,
    reference_check_cochain,
    reference_coboundary,
    reference_delta_matrix,
    reference_is_coboundary,
)

Z2 = builtin("Z2")
Z3 = builtin("Z3")
Z4 = builtin("Z4")

INV3 = (0, 2, 1)
INV4 = (0, 3, 2, 1)

MODULES = [
    trivial_module(Z2, Z2),
    trivial_module(Z2, Z3),
    pi_module(Z2, Z3, ((0, 1, 2), INV3)),
    trivial_module(Z3, Z3),
    trivial_module(Z2, Z4),
    pi_module(Z2, Z4, ((0, 1, 2, 3), INV4)),
    trivial_module(builtin("V4"), Z2),
    trivial_module(Z4, Z2),
    trivial_module(Z2, builtin("V4")),
]


def random_cochain(module, degree, rng):
    positions = free_positions(module.pi.order, degree)
    return cochain_from_values(
        module, degree,
        {pos: rng.randrange(module.a.order) for pos in positions})


# --- coefficient decomposition ------------------------------------------------

@pytest.mark.parametrize("name,factors", [
    ("Z1", ()), ("Z2", (2,)), ("Z6", (6,)), ("V4", (2, 2)),
    ("Z4xZ2", (2, 4)), ("Z2xZ2xZ2", (2, 2, 2)), ("Z9", (9,)), ("Z3xZ3", (3, 3)),
])
def test_abelian_structure_factors(name, factors):
    g = builtin(name)
    s = abelian_structure(g)
    assert s.factors == factors
    oracle = invariant_factors_from_orders(
        lambda x: g.element_order(x), g.order)
    assert s.factors == oracle
    # vec/element are mutually inverse and additive
    for a in g.elements():
        assert s.element(s.vec(a)) == a
    for a in g.elements():
        for b in g.elements():
            summed = tuple(x + y for x, y in zip(s.vec(a), s.vec(b)))
            assert s.element(summed) == g.mul(a, b)


def test_abelian_structure_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        abelian_structure(builtin("S3"))


# --- cochains -------------------------------------------------------------------

def test_normalization_enforced():
    m = trivial_module(Z2, Z2)
    with pytest.raises(NotNormalized):
        Cochain(m, 2, (1, 0, 0, 1))
    with pytest.raises(DegreeOutOfRange):
        Cochain(m, 5, (0,) * 32)


def _outcome(check, *args):
    """(exception class, message) of check(*args), or None when it passes."""
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# (module, degree, values) that Cochain must reject: a value out of range
# before a nonzero value at an identity position and the reverse, negative
# values (one at an identity position, where the range is checked first),
# the first value past the range, a wrong size, and degrees outside 0..4.
_Z3 = trivial_module(Z3, Z3)
MALFORMED = [
    (_Z3, 2, (0, 0, 0, 0, 5, 0, 1, 0, 0)),
    (_Z3, 2, (0, 1, 0, 0, 0, 0, 0, 0, 5)),
    (_Z3, 2, (0, 0, 0, 0, 1, -1, 0, 0, 0)),
    (_Z3, 2, (-1, 0, 0, 0, 1, 2, 0, 0, 0)),
    (_Z3, 1, (0, 3, 0)),
    (_Z3, 2, (0,) * 8),
    (_Z3, 5, (0,) * 3 ** 5),
    (_Z3, -1, (0,)),
    (pi_module(Z2, Z4, ((0, 1, 2, 3), INV4)), 3, (0,) * 7 + (4,)),
]


@pytest.mark.parametrize("module,degree,values", MALFORMED)
def test_cochain_rejects_as_the_per_position_loop(module, degree, values):
    """The one-pass check falls back to the per-position loop, which names
    the first bad position: the same exception class and message as that
    loop (kept as reference_check_cochain) on each malformed table."""
    expected = _outcome(reference_check_cochain, module, degree, values)
    assert expected is not None
    assert _outcome(Cochain, module, degree, values) == expected


@given(st.sampled_from(MODULES), st.integers(0, 3), st.lists(st.integers(-2, 5), max_size=3),
       st.integers(0, 2**32))
def test_cochain_checks_match_the_per_position_loop(module, degree, changes, seed):
    """On random normalized tables with a few values overwritten, anywhere
    and with values in and out of range, Cochain raises exactly what the
    per-position loop raises, and accepts exactly what it accepts."""
    rng = random.Random(seed)
    values = list(random_cochain(module, degree, rng).values)
    for v in changes:
        values[rng.randrange(len(values))] = v
    expected = _outcome(reference_check_cochain, module, degree, values)
    assert _outcome(Cochain, module, degree, values) == expected


def test_coboundary_of_zero():
    m = trivial_module(Z2, Z2)
    assert coboundary(zero_cochain(m, 2)).is_zero()


def test_coboundary_degree1_example():
    m = trivial_module(Z2, Z2)
    t = cochain_from_values(m, 1, {(1,): 1})
    assert coboundary(t).is_zero()


def test_coboundary_degree2_example():
    m = trivial_module(Z2, Z2)
    h = cochain_from_values(m, 2, {(1, 1): 1})
    assert coboundary(h).is_zero()


def test_coboundary_degree_bound():
    m = trivial_module(Z2, Z2)
    with pytest.raises(DegreeOutOfRange):
        coboundary(zero_cochain(m, 4))


@given(st.sampled_from(MODULES), st.integers(0, 2), st.integers(0, 10**6))
def test_delta_squared_zero(module, degree, seed):
    # degree <= 2 so the double coboundary stays inside the stored range
    c = random_cochain(module, degree, random.Random(seed))
    assert coboundary(coboundary(c)).is_zero()


# --- cocycles and coboundaries -----------------------------------------------

def test_zero_is_coboundary_with_zero_witness():
    m = trivial_module(Z2, Z2)
    w = is_coboundary(zero_cochain(m, 2))
    assert w is not None and w.is_zero()


def test_nontrivial_two_cocycle_is_not_coboundary():
    m = trivial_module(Z2, Z2)
    h = cochain_from_values(m, 2, {(1, 1): 1})
    assert is_cocycle(h)
    # oracle: both normalized 1-cochains have zero coboundary
    images = {coboundary(t).values for t in iter_normalized_cochains(m, 1)}
    assert images == {(0, 0, 0, 0)}
    assert is_coboundary(h) is None


@given(st.sampled_from(MODULES), st.integers(1, 3), st.integers(0, 10**6))
def test_coboundary_round_trip(module, degree, seed):
    c = random_cochain(module, degree - 1, random.Random(seed))
    d = coboundary(c)
    witness = is_coboundary(d)
    assert witness is not None
    assert coboundary(witness).values == d.values


@pytest.mark.parametrize("degree,pi,a", [(2, "S3", "Z2"), (3, "V4", "Z2"),
                                         (2, "Z4", "V4")])
def test_changed_witness_value_fails_its_certificate(monkeypatch, degree, pi, a):
    """Mutation check of the witness certificate: a witness with one free
    value changed no longer bounds the cocycle, and is_coboundary raises."""
    module = trivial_module(builtin(pi), builtin(a))
    c = coboundary(random_cochain(module, degree - 1, random.Random(degree)))
    assert is_coboundary(c) is not None
    real = cohomology._devectorize

    def changed(module, degree, vec):
        values = list(real(module, degree, vec).values)
        idx = cohomology._free_flat(module.pi.order, degree)[0]
        values[idx] = module.a.mul(values[idx], 1)
        return Cochain(module, degree, values)

    monkeypatch.setattr(cohomology, "_devectorize", changed)
    with pytest.raises(CertificateFailed):
        is_coboundary(c)


# --- cohomology groups ----------------------------------------------------------

def test_trivial_acting_group():
    m = trivial_module(builtin("Z1"), Z4)
    for n in (1, 2, 3):
        assert cohomology_group(n, m).invariant_factors == ()


def test_h2_h3_of_z2_z2():
    m = trivial_module(Z2, Z2)
    assert cohomology_group(2, m).invariant_factors == (2,)
    assert cohomology_group(3, m).invariant_factors == (2,)


def test_size_bound(monkeypatch):
    monkeypatch.setattr(cohomology, "MAX_COMPLEX_CELLS", 10)
    cohomology_group.cache_clear()
    with pytest.raises(SizeBoundExceeded) as err:
        cohomology_group(3, trivial_module(Z4, Z2))
    assert str(err.value) == "complex size 64 exceeds MAX_COMPLEX_CELLS = 10"


@pytest.mark.parametrize("m,k", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 6), (4, 2), (4, 6)])
def test_h2_gcd_law(m, k):
    module = trivial_module(cyclic(m), cyclic(k))
    assert cohomology_group(2, module).order == math.gcd(m, k)


@pytest.mark.parametrize("module", MODULES)
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_cohomology_matches_enumeration(module, degree):
    from oracles import count_free_cochains
    if count_free_cochains(module, degree) > 4096:
        pytest.skip("enumeration too large for a unit test")
    num_z, num_b, factors = enumerate_cohomology(module, degree)
    h = cohomology_group(degree, module)
    assert num_z % num_b == 0
    assert h.order == num_z // num_b
    assert h.invariant_factors == factors


def test_symmetric_group_known_values():
    """Classical values, used as cross-checks where enumeration is infeasible."""
    s3 = builtin("S3")
    assert cohomology_group(1, trivial_module(s3, Z2)).invariant_factors == (2,)
    assert cohomology_group(2, trivial_module(s3, Z2)).invariant_factors == (2,)
    assert cohomology_group(1, trivial_module(s3, Z3)).invariant_factors == ()
    assert cohomology_group(2, trivial_module(s3, Z3)).invariant_factors == ()


def test_basis_elements_pairwise_inequivalent():
    module = trivial_module(builtin("V4"), Z2)
    h = cohomology_group(2, module)
    assert h.order == 8  # three Z/2 factors for the Klein four-group
    for i, b1 in enumerate(h.basis):
        coords = h.coordinates(b1)
        expected = tuple(1 if k == i else 0 for k in range(len(h.basis)))
        assert coords == expected
        for b2 in h.basis[i + 1:]:
            assert not same_class(b1, b2)


def test_coordinates_constant_on_classes():
    module = trivial_module(Z2, Z2)
    h = cohomology_group(2, module)
    c = cochain_from_values(module, 2, {(1, 1): 1})
    rng = random.Random(7)
    for _ in range(5):
        t = random_cochain(module, 1, rng)
        shifted = cochain_add(c, coboundary(t))
        assert h.coordinates(shifted) == h.coordinates(c)
        assert same_class(c, shifted)


def test_same_class_rejects_non_cocycles():
    module = trivial_module(Z3, Z3)
    c = cochain_from_values(module, 2, {(1, 1): 1})
    if not is_cocycle(c):
        with pytest.raises(NotCocycle):
            same_class(c, c)
    bad = cochain_from_values(module, 2, {(1, 2): 1})
    if not is_cocycle(bad):
        with pytest.raises(NotCocycle):
            cohomology_group(2, module).coordinates(bad)


def test_distinct_classes_on_z2():
    module = trivial_module(Z2, Z2)
    c0 = zero_cochain(module, 2)
    c1 = cochain_from_values(module, 2, {(1, 1): 1})
    assert same_class(c0, c0) and same_class(c1, c1)
    assert not same_class(c0, c1)


def test_from_coordinates_round_trip():
    module = pi_module(Z2, Z4, ((0, 1, 2, 3), INV4))
    h = cohomology_group(2, module)
    import itertools
    for coords in itertools.product(*(range(d) for d in h.invariant_factors)):
        rep = h.from_coordinates(coords)
        assert is_cocycle(rep)
        assert h.coordinates(rep) == coords


def test_cochain_sub_add_inverse():
    module = trivial_module(Z3, Z3)
    rng = random.Random(3)
    c1, c2 = (random_cochain(module, 2, rng) for _ in range(2))
    assert cochain_add(cochain_sub(c1, c2), c2).values == c1.values


# --- differential: the engine against the reference slow path ------------------

def _ladder_module(pi_name, a_name, action):
    pi, a = builtin(pi_name), builtin(a_name)
    ident = tuple(range(a.order))
    if action == "invert":      # a generator of the cyclic Pi0 inverts A
        return pi_module(pi, a, [tuple(a.inv) if x % 2 else ident
                                 for x in pi.elements()])
    if action == "swap":        # the nontrivial element swaps two factors of V4
        swap = next(h.map for h in all_homomorphisms(a, a, injective_only=True)
                    if h.map[1] != 1 and h.map[h.map[1]] == 1)
        return pi_module(pi, a, [ident, swap])
    if action == "aut":         # S3 acting on V4 through an isomorphism S3 -> Aut(V4)
        aut, maps = automorphism_group_table(a)
        iso = all_homomorphisms(pi, aut, injective_only=True)[0]
        return pi_module(pi, a, [maps[iso.map[x]].map for x in pi.elements()])
    if action == "rotate":      # a generator of Z3 permutes the nonzero elements of V4
        return pi_module(pi, a, [ident, (0, 2, 3, 1), (0, 3, 1, 2)])
    return trivial_module(pi, a)


# H^n cases decided in well under a second, with nontrivial actions among them.
LADDER = [
    (2, "Z2", "Z2", None), (2, "Z3", "Z3", None), (2, "V4", "Z2", None),
    (2, "V4", "V4", None), (2, "Z4", "Z2", None), (2, "Z4", "V4", None),
    (2, "Z5", "Z2", None), (2, "S3", "Z2", None), (2, "S3", "Z3", None),
    (2, "Z6", "Z2", None), (2, "Z6", "Z3", None),
    (2, "Z2", "Z3", "invert"), (2, "Z2", "V4", "swap"), (2, "Z4", "Z3", "invert"),
    (3, "Z2", "Z2", None), (3, "Z3", "Z3", None), (3, "Z3", "Z2", None),
    (3, "V4", "Z2", None), (3, "Z4", "Z2", None), (3, "Z4", "Z3", None),
    (3, "Z2", "Z3", "invert"), (3, "Z2", "V4", "swap"), (3, "Z4", "Z3", "invert"),
]


# The same, with trivial Z2 coefficients over two groups of order 8.
WITH_ORDER_EIGHT = LADDER + [(2, "D4", "Z2", None), (2, "Q8", "Z2", None)]


def _densified(module, degree):
    """The sparse rows of d_degree scattered into dense rows, with the shape."""
    sparse, cols = cohomology._delta_matrix(module, degree)
    return cohomology._scatter(module, degree, cols), len(sparse), cols


@pytest.mark.parametrize("degree,pi,a,action", LADDER)
def test_delta_matrix_matches_elementary_cochains(degree, pi, a, action):
    module = _ladder_module(pi, a, action)
    for n in range(degree + 1):
        assert _densified(module, n) == reference_delta_matrix(module, n)


@given(case=st.sampled_from(WITH_ORDER_EIGHT), degree=st.integers(0, 3),
       seed=st.integers(0, 2**32))
def test_coboundary_matches_reference(case, degree, seed):
    """The flat-index coboundary over free positions equals the tuple-lookup
    one over all positions on random normalized cochains of every ladder
    module and of trivial Z2 over D4 and Q8."""
    _, pi, a, action = case
    module = _ladder_module(pi, a, action)
    c = random_cochain(module, degree, random.Random(seed))
    assert coboundary(c) == reference_coboundary(c)


@given(case=st.sampled_from(WITH_ORDER_EIGHT), degree=st.integers(0, 3),
       bounding=st.booleans(), seed=st.integers(0, 2**32))
def test_is_cocycle_matches_reference(case, degree, bounding, seed):
    """is_cocycle, which stops at the first nonzero value, agrees with the
    full tuple-lookup coboundary on random normalized cochains (mostly not
    cocycles) and on coboundaries of random cochains."""
    _, pi, a, action = case
    module = _ladder_module(pi, a, action)
    rng = random.Random(seed)
    if bounding and degree:
        c = reference_coboundary(random_cochain(module, degree - 1, rng))
        assert is_cocycle(c)
    else:
        c = random_cochain(module, degree, rng)
    assert is_cocycle(c) == reference_coboundary(c).is_zero()


@pytest.mark.parametrize("name", ["D4", "Q8"])
def test_delta_matrix_order_eight(name):
    module = trivial_module(builtin(name), Z2)
    assert _densified(module, 2) == reference_delta_matrix(module, 2)


# --- the head-indexed walk against the tuple-lookup coboundary ----------------

# Nontrivial actions (Z3 and Z4 inverted, V4 swapped, S3 acting on V4
# through Aut(V4), Z3 rotating V4), Z4 and Z4xZ2 coefficients, and D4 and
# Q8 as Pi0; each is walked in degrees 0..3.
WALK_MODULES = [("Z2", "Z3", "invert"), ("Z4", "Z3", "invert"), ("Z2", "V4", "swap"),
                ("S3", "V4", "aut"), ("Z3", "V4", "rotate"), ("Z2", "Z4", "invert"),
                ("V4", "Z4", None), ("Z3", "Z4xZ2", None), ("D4", "Z2", None),
                ("Q8", "Z2", None)]


def _walk_matches_reference(c):
    """_coboundary_values gives one row per head, in the order of the free
    positions, holding the tuple-lookup coboundary's values there;
    coboundary equals it and is_cocycle tells whether it is zero."""
    ref = reference_coboundary(c)
    npi = c.module.pi.order
    rows = list(cohomology._coboundary_values(c))
    assert [start for start, _ in rows] == [cohomology._flat(npi, h) * npi
                                            for h in free_positions(npi, c.degree)]
    assert [v for _, row in rows for v in row] == [
        ref.value(t) for t in free_positions(npi, c.degree + 1)]
    assert coboundary(c) == ref
    assert is_cocycle(c) == ref.is_zero()


def _walk_query(module, degree, bounding, rng):
    """A random normalized cochain, or for bounding a cocycle: the
    tuple-lookup coboundary of a random cochain of one degree less."""
    if bounding and degree:
        return reference_coboundary(random_cochain(module, degree - 1, rng))
    return random_cochain(module, degree, rng)


@pytest.mark.parametrize("pi,a,action", WALK_MODULES)
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_walk_matches_reference(pi, a, action, degree):
    module = _ladder_module(pi, a, action)
    rng = random.Random(f"walk {degree} {pi} {a} {action}")
    for bounding in (False, True, False):
        _walk_matches_reference(_walk_query(module, degree, bounding, rng))


@given(case=st.sampled_from(WALK_MODULES), degree=st.integers(0, 3),
       bounding=st.booleans(), seed=st.integers(0, 2**32))
def test_walk_matches_reference_on_random_cochains(case, degree, bounding, seed):
    module = _ladder_module(*case)
    _walk_matches_reference(_walk_query(module, degree, bounding, random.Random(seed)))


SIXTEEN = direct_product(builtin("D4"), Z2)


def test_walk_matches_reference_at_sixteen():
    """Degree 3 at |Pi0| = 16 (D4 x Z2, trivial Z2): a random cochain and a
    cocycle, against the tuple-lookup coboundary over all 16^4 positions."""
    module = trivial_module(SIXTEEN, Z2)
    rng = random.Random(16)
    for bounding in (False, True):
        _walk_matches_reference(_walk_query(module, 3, bounding, rng))


def test_walk_at_sixteen_caches_heads_not_positions():
    """is_cocycle and coboundary on degree-3 cochains at |Pi0| = 16 cache
    one entry per head, 15^3 of them, and build no flat indices of degree 4
    (a tuple of 15^4 ints, 31^4 at |Pi0| = 32)."""
    module = trivial_module(SIXTEEN, Z2)
    c = random_cochain(module, 3, random.Random(3))
    cohomology._heads.cache_clear()
    cohomology._free_flat.cache_clear()
    assert is_cocycle(zero_cochain(module, 3)) and not is_cocycle(c)
    assert coboundary(c) == coboundary(c)
    assert cohomology._free_flat.cache_info().currsize == 0
    assert cohomology._heads.cache_info().currsize == 1
    assert len(cohomology._heads(SIXTEEN, 3)) == 15 ** 3


@pytest.mark.parametrize("degree,pi,a,action", LADDER)
def test_cohomology_matches_reference_engine(degree, pi, a, action):
    module = _ladder_module(pi, a, action)
    h = cohomology_group(degree, module)
    ref = ReferenceCohomology(degree, module)
    assert h.invariant_factors == ref.invariant_factors
    assert cohomology._integer_lattice(module, degree).invariant_factors == ref.invariant_factors
    assert tuple(b.values for b in h.basis) == ref.basis
    rng = random.Random(f"{degree}{pi}{a}{action}")
    for _ in range(4):
        coords = tuple(rng.randrange(d) for d in h.invariant_factors)
        noise = coboundary(random_cochain(module, degree - 1, rng))
        c = cochain_add(h.from_coordinates(coords), noise)
        assert h.coordinates(c) == ref.coordinates(c) == coords


# The groups the cohomology benchmark queries, (degree, Pi0, A), trivial action.
QUERY_GROUPS = [(2, "S3", "Z2"), (3, "V4", "Z2"), (3, "Z4", "V4"), (2, "D4", "Z2")]


@functools.lru_cache(maxsize=None)
def _query_case(degree, pi, a):
    """H^degree, its reference engine (about 3 s for D4), and seeded
    cocycles: basis combinations plus coboundaries of random cochains."""
    module = trivial_module(builtin(pi), builtin(a))
    h = cohomology_group(degree, module)
    rng = random.Random(f"query {degree} {pi} {a}")
    cocycles = []
    for _ in range(12):
        coords = tuple(rng.randrange(d) for d in h.invariant_factors)
        noise = reference_coboundary(random_cochain(module, degree - 1, rng))
        cocycles.append(cochain_add(h.from_coordinates(coords), noise))
    return h, _reference(degree, pi, a, None), cocycles


@functools.lru_cache(maxsize=None)
def _reference(degree, pi, a, action):
    return ReferenceCohomology(degree, _ladder_module(pi, a, action))


@pytest.mark.parametrize("degree,pi,a", QUERY_GROUPS)
def test_coordinates_match_reference_on_query_groups(degree, pi, a):
    h, ref, cocycles = _query_case(degree, pi, a)
    assert [h.coordinates(c) for c in cocycles] == [ref.coordinates(c) for c in cocycles]


def _with_map(h, cmap):
    return replace(h, _lattice=replace(h._exact(), to_coords=cmap))


@pytest.mark.parametrize("degree,pi,a", QUERY_GROUPS)
def test_changed_coordinate_map_entry_disagrees_with_reference(degree, pi, a):
    """Mutation check of the test above: one bit of a packed coordinate row
    flipped, in the plane that carries L and at seeded entries some seeded
    cocycle holds, makes some seeded cocycle's coordinates differ from the
    reference engine's."""
    h, ref, cocycles = _query_case(degree, pi, a)
    expected = [ref.coordinates(c) for c in cocycles]
    cmap = h._exact().to_coords
    assert cmap.p == 2 and cmap.lcm == 2 and len(cmap.witness) == len(h.invariant_factors)
    held = sorted({k for c in cocycles for k, x in enumerate(cohomology._vectorize(c)) if x})
    rng = random.Random(f"mutate {degree} {pi} {a}")
    for j in range(len(cmap.witness)):
        for k in rng.sample(held, 4):
            witness = list(cmap.witness)
            low, high = witness[j]
            witness[j] = (low, high ^ 1 << k)     # L = 2: coordinate j reads the high plane
            mutant = _with_map(h, replace(cmap, witness=tuple(witness)))
            assert [mutant.coordinates(c) for c in cocycles] != expected, (j, k)


def test_queries_reuse_their_factorizations(monkeypatch):
    groups = [cohomology_group(2, trivial_module(builtin("D4"), Z2)),
              cohomology_group(3, trivial_module(Z4, builtin("V4")))]
    rng = random.Random(5)
    queries = []
    for h in groups:
        for k in range(5):
            coords = (0,) * len(h.basis) if k % 2 else tuple(
                rng.randrange(d) for d in h.invariant_factors)
            noise = coboundary(random_cochain(h.module, h.degree - 1, rng))
            queries.append((h, coords, cochain_add(h.from_coordinates(coords), noise)))
        is_coboundary(queries[-1][2])    # the one witness query that factors
    calls = []
    real = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    for h, coords, c in queries:    # 10 coordinates and 10 witness queries
        assert h.coordinates(c) == coords
        witness = is_coboundary(c)
        assert (witness is None) == any(coords)
    assert calls == []


# --- class coordinates through the lattice's map ----------------------------------

# Every module of LADDER (all of them have (Z/p)^r coefficients), trivial Z2
# over D4 and Q8, Z3 over Z3xZ3, and S3 acting on V4 as Aut(V4), each in
# the degrees 1..3 whose integer lattice and reference engine are built in
# a few seconds: degree 3 over S3, Z5, Z6 and the groups of order 8 takes
# from 3 s to more than 30 s, and degree 2 over Z3xZ3 about 10 s.  Their
# maps keep packed rows for p = 2 and lists for odd p.
ECHELON_CASES = sorted(
    {(degree, pi, a, action) for _, pi, a, action in LADDER for degree in (1, 2, 3)
     if degree < 3 or pi not in ("S3", "Z5", "Z6")}
    | {(degree, pi, "Z2", None) for pi in ("D4", "Q8") for degree in (1, 2)}
    | {(1, "Z3xZ3", "Z3", None), (1, "S3", "V4", "aut"), (2, "S3", "V4", "aut")},
    key=str)

# Coefficients Z4, Z6, Z8 and Z4xZ2 over Z2, Z3, V4 and Z4 trivially, and Z4
# inverted by Z2, V4 and Z4, in degrees 1..3: none of them is (Z/p)^r, so
# their maps keep list rows and cohomology_group builds their lattices at
# once.  Each reference builds in under a second.
INTEGER_CASES = sorted(
    {(degree, pi, a, None) for degree in (1, 2, 3) for pi in ("Z2", "Z3", "V4", "Z4")
     for a in ("Z4", "Z6", "Z8", "Z4xZ2")}
    | {(degree, pi, "Z4", "invert") for degree in (1, 2, 3) for pi in ("Z2", "V4", "Z4")},
    key=str)


def _integer_solve(monkeypatch, module, degree, cocycles):
    """The coordinates the list rows give: the group built and queried as
    for coefficients that are not (Z/p)^r, whose lattice is built at once
    and whose map keeps its rows as lists."""
    with monkeypatch.context() as m:
        m.setattr(cohomology, "_elementary_prime", lambda struct: None)
        h = cohomology_group.__wrapped__(degree, module)     # not the cached group
        assert h._lattice.to_coords.p is None
        coords = [h.coordinates(c) for c in cocycles]
    return h, coords


@pytest.mark.parametrize("degree,pi,a,action", ECHELON_CASES)
def test_echelon_coordinates_match_reference_and_integer_solve(monkeypatch, degree, pi,
                                                               a, action):
    """Coordinates through the packed (p = 2) or odd-p rows of the map equal
    the drawn ones, those of the same lattice read through list rows, and
    the reference engine's."""
    module = _ladder_module(pi, a, action)
    h = cohomology_group(degree, module)
    rng = random.Random(f"echelon {degree} {pi} {a} {action}")
    drawn, cocycles = [], []
    for _ in range(8):
        coords = tuple(rng.randrange(d) for d in h.invariant_factors)
        noise = coboundary(random_cochain(module, degree - 1, rng))
        drawn.append(coords)
        cocycles.append(cochain_add(h.from_coordinates(coords), noise))
    got = [h.coordinates(c) for c in cocycles]
    # no lattice is built when H^n = 0
    assert (h._lattice.to_coords.p == h.invariant_factors[0] if h.invariant_factors
            else h._lattice is None)
    integer, by_solve = _integer_solve(monkeypatch, module, degree, cocycles)
    assert [b.values for b in integer.basis] == [b.values for b in h.basis]
    assert got == drawn == by_solve
    assert got == [_reference(degree, pi, a, action).coordinates(c) for c in cocycles]


@functools.lru_cache(maxsize=None)
def _class_group(degree, pi, a, action):
    return cohomology_group(degree, _ladder_module(pi, a, action))


@given(case=st.sampled_from([c for c in ECHELON_CASES if c[1] not in ("D4", "Q8")]
                            + INTEGER_CASES),
       kind=st.sampled_from(["random", "cocycle", "changed"]), seed=st.integers(0, 2**32))
def test_echelon_raises_not_cocycle_exactly_off_the_cocycles(case, kind, seed):
    """On random cochains, on random cocycles, and on random cocycles with
    one free value changed, coordinates raise NotCocycle exactly when
    is_cocycle fails: for (Z/p)^r and for Z4, Z6, Z8 and Z4xZ2 the map's
    check rows decide."""
    h = _class_group(*case)
    module, degree = h.module, h.degree
    rng = random.Random(seed)
    if kind == "random":
        c = random_cochain(module, degree, rng)
    else:
        coords = tuple(rng.randrange(d) for d in h.invariant_factors)
        c = cochain_add(h.from_coordinates(coords),
                        coboundary(random_cochain(module, degree - 1, rng)))
        if kind == "changed":
            pos = rng.choice(free_positions(module.pi.order, degree))
            c = cochain_add(c, cochain_from_values(
                module, degree, {pos: rng.randrange(1, module.a.order)}))
    if is_cocycle(c):
        assert len(h.coordinates(c)) == len(h.invariant_factors)
    else:
        with pytest.raises(NotCocycle, match="only cocycles have class coordinates"):
            h.coordinates(c)


def test_echelon_query_solves_nothing(monkeypatch):
    """Once its lattice is built, an elementary coordinates query (p = 2 and
    odd p, with and without classes, on cocycles and on cochains that are
    not) calls no smith_normal_form."""
    cases = [(2, "D4", "Z2", None), (3, "Z4", "V4", None), (2, "Z3", "Z3", None),
             (2, "S3", "Z3", None), (2, "S3", "V4", "aut")]
    rng = random.Random(7)
    queries = []
    for case in cases:
        h = _class_group(*case)
        for _ in range(4):
            coords = tuple(rng.randrange(d) for d in h.invariant_factors)
            noise = coboundary(random_cochain(h.module, h.degree - 1, rng))
            queries.append((h, coords, cochain_add(h.from_coordinates(coords), noise)))
        queries.append((h, None, random_cochain(h.module, h.degree, rng)))
        h.coordinates(queries[-2][2])    # builds the lattice and its map
    calls = []
    real_snf = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form",
                        lambda *a, **k: calls.append("snf") or real_snf(*a, **k))
    raised = 0
    for h, coords, c in queries:
        if coords is None and not is_cocycle(c):
            with pytest.raises(NotCocycle):
                h.coordinates(c)
            raised += 1
        elif coords is not None:
            assert h.coordinates(c) == coords
    assert calls == [] and raised >= 3


def test_coordinates_query_walks_no_cocycle_check(monkeypatch):
    """On a group with classes, a coordinates query (Z2 and Z4
    coefficients; cocycles and cochains that are not) calls neither
    is_cocycle nor smith_normal_form: the map's check rows decide."""
    rng = random.Random(11)
    queries = []
    for case in ((2, "D4", "Z2", None), (2, "V4", "Z4", None)):
        h = _class_group(*case)
        assert h.invariant_factors
        for _ in range(4):
            coords = tuple(rng.randrange(d) for d in h.invariant_factors)
            noise = coboundary(random_cochain(h.module, h.degree - 1, rng))
            queries.append((h, coords, cochain_add(h.from_coordinates(coords), noise)))
        off = next(c for c in (random_cochain(h.module, h.degree, rng) for _ in range(100))
                   if not is_cocycle(c))
        queries.append((h, None, off))
    calls = []
    real_snf, real_is_cocycle = snf.smith_normal_form, cohomology.is_cocycle
    monkeypatch.setattr(snf, "smith_normal_form",
                        lambda *a, **k: calls.append("snf") or real_snf(*a, **k))
    monkeypatch.setattr(cohomology, "is_cocycle",
                        lambda c: calls.append("is_cocycle") or real_is_cocycle(c))
    for h, coords, c in queries:
        if coords is None:
            with pytest.raises(NotCocycle, match="only cocycles have class coordinates"):
                h.coordinates(c)
        else:
            assert h.coordinates(c) == coords
    assert calls == []


def _lattice_with_checks(monkeypatch, degree, pi, a, action, change):
    """H^degree's lattice built afresh, its coordinate map's check rows
    replaced by change(map, G) as _read_map returns them, G the
    cocycle-lattice generators the map is certified against."""
    module = _ladder_module(pi, a, action)
    gens = cohomology._coboundary_map(module, degree).cocycles    # cached: not changed
    real = cohomology._read_map

    def read_changed(*args, **kwargs):
        cmap = real(*args, **kwargs)
        return replace(cmap, checks=change(cmap, gens))

    monkeypatch.setattr(cohomology, "_read_map", read_changed)
    return cohomology._integer_lattice(module, degree)


def _change_an_entry(cmap, gens):
    """The check rows with one entry of the first changed by 1 (one bit for
    p = 2), at the first entry some generator holds off that row's d_i."""
    y, d = (cmap.checks[0], 2) if cmap.p == 2 else cmap.checks[0]
    k = next(k for k, row in enumerate(gens) if any(x % d for x in row))
    changed = y ^ 1 << k if cmap.p == 2 else (y[:k] + [(y[k] + 1) % d] + y[k + 1:], d)
    return (changed,) + cmap.checks[1:]


# (degree, Pi0, A, action): the packed rows of p = 2, odd p, and the list
# rows of Z4 and Z4xZ2 coefficients.
CERTIFIED_CASES = [(2, "V4", "Z2", None), (3, "Z4", "V4", None), (2, "S3", "Z3", None),
                   (2, "Z4", "Z4", None), (2, "V4", "Z4xZ2", None)]


def test_coordinate_map_certificate_catches_a_changed_or_dropped_check_row(monkeypatch):
    """Mutation check of the coordinate map's certificate, also under
    python -O: one check-row entry changed while the map is read fails the
    vanishing on the cocycle-lattice generators, and one check row dropped
    fails the count of |C^n : Z^n|."""
    for case in CERTIFIED_CASES:
        for change, message in (
                (_change_an_entry, "vanish on every generator of the cocycle lattice"),
                (lambda cmap, gens: cmap.checks[:-1], "number the index of the cocycles")):
            with monkeypatch.context() as m, pytest.raises(CertificateFailed, match=message):
                _lattice_with_checks(m, *case, change)


@functools.lru_cache(maxsize=None)
def _integer_case(degree, pi, a, action):
    """H^degree, read through the lattice's list rows, and seeded cocycles
    with the coordinates drawn for them: basis combinations plus
    coboundaries of random cochains."""
    h = cohomology_group(degree, _ladder_module(pi, a, action))
    assert h._lattice is not None and h._lattice.to_coords.p is None
    rng = random.Random(f"integer {degree} {pi} {a} {action}")
    drawn, cocycles = [], []
    for _ in range(8):
        coords = tuple(rng.randrange(d) for d in h.invariant_factors)
        noise = coboundary(random_cochain(h.module, degree - 1, rng))
        drawn.append(coords)
        cocycles.append(cochain_add(h.from_coordinates(coords), noise))
    return h, drawn, cocycles


@pytest.mark.parametrize("degree,pi,a,action", INTEGER_CASES)
def test_integer_coordinates_match_reference(degree, pi, a, action):
    h, drawn, cocycles = _integer_case(degree, pi, a, action)
    ref = _reference(degree, pi, a, action)
    assert h.invariant_factors == ref.invariant_factors
    assert tuple(b.values for b in h.basis) == ref.basis
    assert [h.coordinates(c) for c in cocycles] == drawn
    assert [ref.coordinates(c) for c in cocycles] == drawn


# The cases above with a class of order 4 or a nontrivial action among them.
MUTATED_CASES = [(2, "Z4", "Z4", None), (2, "V4", "Z4xZ2", None), (2, "Z3", "Z6", None),
                 (3, "V4", "Z8", None), (2, "V4", "Z4", "invert")]


@pytest.mark.parametrize("degree,pi,a,action", MUTATED_CASES)
def test_changed_coordinate_row_disagrees_with_reference(degree, pi, a, action):
    """Mutation check of the test above: one entry of each coordinate row
    changed by L, at the first entry some seeded cocycle holds off the
    row's factor, makes some seeded cocycle's coordinates differ."""
    h, drawn, cocycles = _integer_case(degree, pi, a, action)
    cmap = h._exact().to_coords
    vectors = [cohomology._vectorize(c) for c in cocycles]
    assert len(cmap.witness) == len(h.invariant_factors) > 0
    for j, (row, m) in enumerate(cmap.witness):
        f = h.invariant_factors[j]
        k = next(k for k in range(len(row)) if any(b[k] % f for b in vectors))
        witness = list(cmap.witness)
        witness[j] = (row[:k] + [(row[k] + cmap.lcm) % m] + row[k + 1:], m)
        mutant = _with_map(h, replace(cmap, witness=tuple(witness)))
        assert [mutant.coordinates(c) for c in cocycles] != drawn, (j, k)


@pytest.mark.parametrize("degree,pi,a,action", MUTATED_CASES)
def test_changed_lattice_check_row_fails_the_membership_certificate(monkeypatch, degree,
                                                                   pi, a, action):
    """Mutation check of the lattice-membership certificate on list rows:
    one entry of a check row changed by 1 while the map is read, at an
    entry some generator of the cocycle lattice holds off the row's d_i,
    makes building the lattice raise, also under python -O."""
    with pytest.raises(CertificateFailed,
                       match="vanish on every generator of the cocycle lattice"):
        _lattice_with_checks(monkeypatch, degree, pi, a, action, _change_an_entry)


# --- coboundary witnesses from one map per module and degree ---------------------

# Every module of LADDER in degrees 1..3; trivial Z2 over D4, Q8 and Z2^3 in
# degree 2; Z3 over Z3xZ3 in degrees 1 and 2; Z5 over Z5, S3 acting on V4
# as Aut(V4) and Z3 rotating V4 in degrees 1..3; and coefficients Z4, Z6, Z8 and Z4xZ2, read by
# the list path of the map, over Z2, Z3 and V4 trivially and over Z2 and Z4
# inverted by a generator, in degrees 1..3.
WITNESS_CASES = sorted(
    {(degree, pi, a, action) for _, pi, a, action in LADDER for degree in (1, 2, 3)}
    | {(2, pi, "Z2", None) for pi in ("D4", "Q8", "Z2xZ2xZ2")}
    | {(degree, "Z3xZ3", "Z3", None) for degree in (1, 2)}
    | {(degree, pi, a, action) for degree in (1, 2, 3)
       for pi, a, action in (("Z5", "Z5", None), ("S3", "V4", "aut"),
                             ("Z3", "V4", "rotate"))}
    | {(degree, pi, a, action) for degree in (1, 2, 3) for a in ("Z4", "Z6", "Z8", "Z4xZ2")
       for pi, action in (("Z2", None), ("Z3", None), ("V4", None), ("Z2", "invert"),
                          ("Z4", "invert"))},
    key=str)

WITNESS_KINDS = ("coboundary", "random", "changed")


def _witness_query(module, degree, kind, rng):
    """A coboundary of a random cochain, a random cochain, or a coboundary
    with one free value changed."""
    if kind == "random":
        return random_cochain(module, degree, rng)
    c = coboundary(random_cochain(module, degree - 1, rng))
    if kind == "changed":
        pos = rng.choice(free_positions(module.pi.order, degree))
        c = cochain_add(c, cochain_from_values(
            module, degree, {pos: rng.randrange(1, module.a.order)}))
    return c


def _values(witness):
    return None if witness is None else witness.values


@pytest.mark.parametrize("degree,pi,a,action", WITNESS_CASES)
def test_witness_matches_reference(degree, pi, a, action):
    """The map gives the None answers and the witness bytes of the integer
    solve it replaced, on seeded queries of each kind."""
    module = _ladder_module(pi, a, action)
    rng = random.Random(f"witness {degree} {pi} {a} {action}")
    queries = [_witness_query(module, degree, kind, rng) for kind in WITNESS_KINDS * 4]
    got = [is_coboundary(c) for c in queries]
    assert [_values(w) for w in got] == [_values(reference_is_coboundary(c)) for c in queries]
    assert all(w is not None for w in got[::3])


@pytest.mark.parametrize("degree,pi,a", QUERY_GROUPS)
def test_witness_matches_reference_on_query_groups(degree, pi, a):
    """On cocycles in seeded classes, some nonzero, of the benchmark's query
    groups: None exactly off the zero class, and the reference's witness."""
    h, _, cocycles = _query_case(degree, pi, a)
    got = [is_coboundary(c) for c in cocycles]
    assert [_values(w) for w in got] == [_values(reference_is_coboundary(c)) for c in cocycles]
    assert [w is None for w in got] == [any(h.coordinates(c)) for c in cocycles]


@given(case=st.sampled_from(WITNESS_CASES), kind=st.sampled_from(WITNESS_KINDS),
       seed=st.integers(0, 2**32))
def test_witness_matches_reference_on_random_cochains(case, kind, seed):
    degree, pi, a, action = case
    module = _ladder_module(pi, a, action)
    c = _witness_query(module, degree, kind, random.Random(seed))
    assert _values(is_coboundary(c)) == _values(reference_is_coboundary(c))


def _coboundary_case(degree, pi, a, action=None):
    """A module, a nonzero coboundary on it (the first a seeded draw gives),
    and the module's map for it, built."""
    module = _ladder_module(pi, a, action)
    rng = random.Random(f"{degree} {pi} {a} {action}")
    c = next(c for c in (coboundary(random_cochain(module, degree - 1, rng))
                         for _ in range(100)) if not c.is_zero())
    assert is_coboundary(c) is not None
    return module, c, cohomology._coboundary_map(module, degree - 1)


# (degree, Pi0, A, action): the p = 2 path, odd p, and the list path with
# mixed d_i for Z4, Z6 and Z4xZ2 coefficients.  WITH_ONTO adds a degree in
# which d_0 is onto C^1, so that every d_i is 1 and the map has no check row.
MAP_CASES = [(2, "S3", "Z2", None), (3, "Z4", "V4", None), (2, "D4", "Z2", None),
             (2, "S3", "Z3", None), (2, "Z4", "Z4", "invert"), (2, "Z3", "Z6", None),
             (2, "V4", "Z4xZ2", None)]
ONTO = (1, "Z2", "Z3", "invert")
WITH_ONTO = MAP_CASES + [ONTO]


@pytest.mark.parametrize("degree,pi,a,action", MAP_CASES)
def test_changed_check_row_fails_the_map_certificate(monkeypatch, degree, pi, a, action):
    """Mutation check of the map's certificate: one bit (p = 2) or entry of
    a check row changed, at a row of [d | moduli] that does not vanish
    modulo its d_i, makes building the map raise, also under python -O."""
    module = _ladder_module(pi, a, action)
    abelian_structure(module.a)     # its Smith form is not the one changed
    real = snf.smith_normal_form
    changed = []

    def smith_with_changed_check(a, rows, cols, track, v_rows):
        sf = real(a, rows, cols, track=track, v_rows=v_rows)
        i, k = next((i, k) for i, d in enumerate(sf.diagonal()) if d > 1
                    for k in range(rows) if any(x % d for x in a[k]))
        sf.u[i][k] += 1
        changed.append((i, k))
        return sf

    monkeypatch.setattr(snf, "smith_normal_form", smith_with_changed_check)
    with pytest.raises(CertificateFailed, match="check rows must vanish"):
        cohomology._coboundary_map.__wrapped__(module, degree - 1)
    assert len(changed) == 1


def test_witness_map_certificate_reads_no_delta_matrix(monkeypatch):
    """The witness map is certified against coboundaries computed from the
    group tables, not against the matrix its Smith form factored: one term
    added to row 0 of d_1 for S3 acting trivially on Z3 before the map is
    built leaves a check row that fails on a true coboundary, and building
    the map raises, also under python -O."""
    module = _ladder_module("S3", "Z3", None)
    abelian_structure(module.a)
    real = cohomology._delta_matrix

    def corrupted(m, degree):
        rows, cols = real(m, degree)
        if (m, degree) == (module, 1):
            rows = [rows[0] + [(0, 1)], *rows[1:]]
        return rows, cols

    monkeypatch.setattr(cohomology, "_delta_matrix", corrupted)
    with pytest.raises(CertificateFailed, match=re.escape(
            "check rows must vanish on every column of [d | moduli]")):
        cohomology._coboundary_map.__wrapped__(module, 1)


def test_check_row_off_the_moduli_fails_the_map_certificate(monkeypatch):
    """Mutation check of the moduli clause on its own.  d_0 vanishes for V4
    acting trivially on Z4xZ2, so every coboundary the degree-1 witness
    map's certificate solves is zero and passes any check row.  A list
    check row (y, 4) with 1 added at coordinate 0, of factor 2, has
    y_0 f_0 = 2 mod 4, and building the map raises, also under python -O."""
    module = _ladder_module("V4", "Z4xZ2", None)
    assert abelian_structure(module.a).factors == (2, 4)
    real = cohomology._read_map
    mutants = []

    def read_changed(*args, **kwargs):
        cmap = real(*args, **kwargs)
        i, (y, d) = next((i, row) for i, row in enumerate(cmap.checks) if row[1] == 4)
        changed = ([(y[0] + 1) % d] + y[1:], d)
        mutants.append(replace(cmap, checks=cmap.checks[:i] + (changed,) + cmap.checks[i + 1:]))
        return mutants[-1]

    monkeypatch.setattr(cohomology, "_read_map", read_changed)
    with pytest.raises(CertificateFailed, match=re.escape(
            "check rows must vanish on every column of [d | moduli]")):
        cohomology._coboundary_map.__wrapped__(module, 0)
    units = [coboundary(cohomology._devectorize(module, 0, unit)) for unit in ([1, 0], [0, 1])]
    assert all(c.is_zero() and mutants[0].solve(c) is not None for c in units)


def test_map_without_check_rows():
    """d_0 is onto C^1 for Z2 inverting Z3: every 1-cochain bounds, every
    d_i is 1, and the map has no check row."""
    module, _, cmap = _coboundary_case(*ONTO)
    assert cmap.checks == () and cmap.lcm == 1
    for c in iter_normalized_cochains(module, 1):
        assert coboundary(is_coboundary(c)) == c


@pytest.mark.parametrize("degree,pi,a,action", WITH_ONTO)
def test_changed_witness_row_fails_the_witness_certificate(monkeypatch, degree, pi, a,
                                                           action):
    """Mutation check of the witness certificate: one witness row changed
    by L at an entry the coboundary's vector holds (for p = 2 one bit of the
    plane that carries L), where the witness coordinate it moves is no
    cocycle, makes the query on that coboundary raise."""
    module, c, cmap = _coboundary_case(degree, pi, a, action)
    b = cohomology._vectorize(c)
    moved = []      # (j, k): adding b[k] to witness coordinate j moves d(witness)
    for j in range(len(cmap.witness)):
        for k in (k for k, x in enumerate(b) if x):
            step = [0] * len(cmap.witness)
            step[j] = b[k]
            if not coboundary(cohomology._devectorize(module, degree - 1, step)).is_zero():
                moved.append((j, k))
                break
    assert moved
    for j, k in moved:
        witness = list(cmap.witness)
        if cmap.p == 2:     # L = 2, so W_j reads the high plane
            assert cmap.lcm == 2
            low, high = witness[j]
            witness[j] = (low, high ^ 1 << k)
        else:
            row, m = witness[j]
            row = list(row)
            row[k] = (row[k] + cmap.lcm) % m
            witness[j] = (row, m)
        mutant = replace(cmap, witness=tuple(witness))
        monkeypatch.setattr(cohomology, "_coboundary_map", lambda module, degree: mutant)
        with pytest.raises(CertificateFailed, match="witness must bound the cocycle"):
            is_coboundary(c)


# (degree, Pi0, A, action): witnesses of degree 1 (heads with no middle
# merge) and of degree 2, for p = 2, Z3, Z4 inverted and S3 acting on V4.
HEAD_CASES = [(2, "S3", "Z2", None), (2, "D4", "Z2", None), (3, "V4", "Z2", None),
              (3, "Z4", "V4", None), (2, "S3", "Z3", None), (2, "Z4", "Z4", "invert"),
              (3, "S3", "V4", "aut")]


@pytest.mark.parametrize("degree,pi,a,action", HEAD_CASES)
def test_changed_head_base_fails_the_witness_certificate(monkeypatch, degree, pi, a, action):
    """Mutation check of the walk behind the witness certificate: one base
    of one cached head (a suffix, a middle merge or the last merge) moved by
    one, at the first head where the values read through it then change,
    makes a query on a coboundary raise, also under python -O."""
    module, c, _ = _coboundary_case(degree, pi, a, action)
    witness = is_coboundary(c)
    npi, inv = module.pi.order, module.a.inv
    signed = witness.values + tuple(inv[v] for v in witness.values)
    real = cohomology._heads
    heads = real(module.pi, degree - 1)

    def read(base, at):
        return [signed[base + k] for k in at] if base + max(at) < len(signed) else None

    def moved():
        """(head index, the head with one base moved by one)."""
        for i, (t0, suffix, own, merges, last, row) in enumerate(heads):
            xs = range(1, npi)
            if read(suffix + 1, xs) not in (None, read(suffix, xs)):
                return i, (t0, suffix + 1, own, merges, last, row)
            for j, base in enumerate(merges):
                if read(base + 1, xs) not in (None, read(base, xs)):
                    bases = merges[:j] + (base + 1,) + merges[j + 1:]
                    return i, (t0, suffix, own, bases, last, row)
            if read(last + 1, row) not in (None, read(last, row)):
                return i, (t0, suffix, own, merges, last + 1, row)
        return None

    i, head = moved()
    mutant = heads[:i] + (head,) + heads[i + 1:]
    monkeypatch.setattr(cohomology, "_heads",
                        lambda pi, n: mutant if (pi, n) == (module.pi, degree - 1) else real(pi, n))
    with pytest.raises(CertificateFailed, match="witness must bound the cocycle"):
        is_coboundary(c)


def test_witness_queries_solve_nothing(monkeypatch):
    """After the first query on a module, a witness query (p = 2, odd p and
    the list path; coboundaries and cochains that are not) calls no
    smith_normal_form."""
    queries = []
    for degree, pi, a, action in WITH_ONTO:
        module, _, _ = _coboundary_case(degree, pi, a, action)
        rng = random.Random(f"{degree} {pi} {a}")
        queries += [_witness_query(module, degree, kind, rng) for kind in WITNESS_KINDS]
    calls = []
    real_snf = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form",
                        lambda *a, **k: calls.append("snf") or real_snf(*a, **k))
    answers = [is_coboundary(c) for c in queries]
    assert calls == []
    assert all(w is not None for w in answers[::len(WITNESS_KINDS)])
    assert any(w is None for w in answers)


# --- ranks mod p against the integer lattice and the reference engine ------------

def _factors_agree(module, degree):
    """H^degree by cohomology_group (ranks mod p where A is (Z/p)^r), by the
    integer lattice on its own, and by the reference engine: all equal."""
    h = cohomology_group(degree, module)
    assert h.invariant_factors == cohomology._integer_lattice(module, degree).invariant_factors
    assert h.invariant_factors == ReferenceCohomology(degree, module).invariant_factors


@pytest.mark.parametrize("module", MODULES)
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_rank_factors_match_lattice_and_reference(module, degree):
    _factors_agree(module, degree)


def test_rank_factors_match_on_sweep_modules(default_sweep):
    modules = {derive(pre).module for pre in default_sweep}
    nontrivial = [m for m in modules if m.pi.order > 1 and m.a.order > 1]
    assert len(nontrivial) >= 4
    for module in nontrivial:
        for degree in (1, 2, 3):
            _factors_agree(module, degree)


def _forbid_lattice(monkeypatch):
    def refuse(module, degree):
        raise AssertionError(f"integer lattice of H^{degree} built")
    monkeypatch.setattr(cohomology, "_integer_lattice", refuse)


def _record_lattices(monkeypatch) -> list:
    """Degrees of the integer lattices built from here on."""
    built = []
    real = cohomology._integer_lattice
    monkeypatch.setattr(cohomology, "_integer_lattice",
                        lambda module, degree: built.append(degree) or real(module, degree))
    return built


# Classical values (Brown, Cohomology of Groups, GTM 87) out of reach of
# enumeration: H^3(S3, Z2) = Z2 and H^3(S3, Z3) = Z3 by universal
# coefficients from H_2(S3) = 0 and H_3(S3) = Z6, H^3(Z5, Z2) = 0 as the
# orders are coprime, and the mod-2 dimensions of H^2 and H^3 with trivial
# Z2 coefficients from the mod-2 cohomology rings (dim H^n is n + 1 for D4
# and Z4xZ2, C(n + 2, 2) for Z2^3, 1 for Z8, and 1, 2, 2, 1 periodically
# for Q8).
CLASSICAL = [
    (3, "S3", "Z2", (2,)), (3, "S3", "Z3", (3,)), (3, "Z5", "Z2", ()),
    (2, "D4", "Z2", (2,) * 3), (2, "Q8", "Z2", (2,) * 2),
    (3, "D4", "Z2", (2,) * 4), (3, "Q8", "Z2", (2,)), (3, "Z8", "Z2", (2,)),
    (3, "Z4xZ2", "Z2", (2,) * 4), (3, "Z2xZ2xZ2", "Z2", (2,) * 10),
]


def _decided_by_ranks(monkeypatch, degree, module) -> tuple[int, ...]:
    """The invariant factors of H^degree from cold caches, with the integer
    lattice and the dense scatter of the coboundary rows both refused."""
    def refuse(module, degree, width):
        raise AssertionError(f"d_{degree} scattered into dense rows")
    for cache in (cohomology_group, cohomology._delta_rank, cohomology._delta_matrix):
        cache.cache_clear()
    _forbid_lattice(monkeypatch)
    monkeypatch.setattr(cohomology, "_scatter", refuse)
    return cohomology_group(degree, module).invariant_factors


@pytest.mark.parametrize("degree,pi,a,factors", CLASSICAL)
def test_classical_values_decided_by_ranks(monkeypatch, degree, pi, a, factors):
    module = trivial_module(builtin(pi), builtin(a))
    assert _decided_by_ranks(monkeypatch, degree, module) == factors


def test_aut_v4_action_decided_by_ranks(monkeypatch):
    """S3 acting on V4 through Aut(V4) = S3: V4 is then the projective
    Steinberg module of GL_2(F_2), so H^2 vanishes; the ranks decide it
    without dense rows, and the integer lattice agrees."""
    module = _ladder_module("S3", "V4", "aut")
    assert _decided_by_ranks(monkeypatch, 2, module) == ()
    monkeypatch.undo()
    assert cohomology._integer_lattice(module, 2).invariant_factors == ()


def test_lattice_is_built_once_on_demand_and_certified(monkeypatch):
    module = trivial_module(builtin("V4"), Z2)
    cohomology_group.cache_clear()
    built = _record_lattices(monkeypatch)
    h = cohomology_group(2, module)
    assert h.invariant_factors == (2, 2, 2) and built == []
    c = h.from_coordinates((1, 0, 1))
    assert h.coordinates(c) == (1, 0, 1)
    assert len(h.basis) == 3 and built == [2]
    # a lattice whose factors disagree with the ranks fails its certificate
    cohomology_group.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(cohomology, "_delta_rank", lambda module, degree: 0)
        h = cohomology_group(2, module)
    try:
        with pytest.raises(CertificateFailed, match="invariant factors of the ranks"):
            h.basis
    finally:
        cohomology_group.cache_clear()    # drop the group with the wrong factors


import itertools

import pytest
from hypothesis import given, strategies as st

from prolong.errors import (
    IdentityNotAtZero,
    NotHomomorphism,
    NotLatinSquare,
    NotNormal,
    NotSubgroup,
    OrderBoundExceeded,
    SearchBoundExceeded,
)
from prolong import groups
from prolong.fixtures import builtin, builtin_names
from prolong.groups import (
    Homomorphism,
    Subgroup,
    all_homomorphisms,
    automorphism_group,
    automorphism_group_table,
    center,
    cokernel,
    compose,
    fibers,
    identity_hom,
    image,
    inner_automorphism,
    is_normal,
    kernel,
    quotient,
    subgroup_as_group,
    subgroup_closure,
    trivial_hom,
    validate_group,
)

from oracles import (
    brute_automorphisms,
    brute_center,
    brute_closure,
    brute_cosets,
    brute_is_normal,
    s3_table_from_permutations,
)

FIXTURES = st.sampled_from(builtin_names())


# --- validate_group ---------------------------------------------------------

def test_trivial_group():
    g = validate_group([[0]])
    assert g.order == 1 and g.inv == (0,)


def test_cyclic_four_table():
    g = validate_group([[(a + b) % 4 for b in range(4)] for a in range(4)])
    assert g.order == 4
    assert g.inv == (0, 3, 2, 1)


def test_s3_from_permutation_composition():
    g = validate_group(s3_table_from_permutations())
    assert g.order == 6
    assert not g.is_abelian()
    assert g.table == builtin("S3").table


def test_identity_not_at_zero():
    with pytest.raises(IdentityNotAtZero):
        validate_group([[1, 0], [0, 1]])


def test_not_latin_square():
    with pytest.raises(NotLatinSquare):
        validate_group([[0, 1, 2], [1, 1, 0], [2, 0, 1]])


def test_not_associative():
    # an order-5 loop: Latin square with identity at 0 that is not a group
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3]]
    from prolong.errors import NotAssociative
    with pytest.raises(NotAssociative) as info:
        validate_group(loop)
    first = next((a, b, c) for a, b, c in itertools.product(range(5), repeat=3)
                 if loop[loop[a][b]][c] != loop[a][loop[b][c]])
    assert info.value.witness == first
    a, b, c = first
    assert str(info.value) == f"({a}*{b})*{c} != {a}*({b}*{c})"


def test_hash_ignores_name_and_labels():
    """Equal groups hash equal whatever their names and labels, with the
    hash of the compared fields, computed once."""
    z4 = builtin("Z4")
    renamed = validate_group(z4.table, labels=("e", "r", "r2", "r3"), name="C4")
    assert renamed == z4 and renamed.name != z4.name
    assert hash(renamed) == hash(z4) == hash((z4.order, z4.table, z4.inv))
    assert len({z4, renamed}) == 1
    assert hash(builtin("V4")) != hash(z4)


def test_cokernel_requires_normal_image():
    from prolong.errors import ImageNotNormal
    s3, z2 = builtin("S3"), builtin("Z2")
    transposition = next(a for a in s3.elements() if s3.element_order(a) == 2)
    f = Homomorphism(z2, s3, (0, transposition))
    with pytest.raises(ImageNotNormal):
        cokernel(f)


def test_out_of_range_entry():
    with pytest.raises(ValueError):
        validate_group([[0, 1], [1, 7]])


# --- center -----------------------------------------------------------------

@pytest.mark.parametrize("name,expected_size", [
    ("Z4", 4), ("S3", 1), ("Q8", 2), ("D4", 2), ("Z3xZ3", 9),
])
def test_center_against_oracle(name, expected_size):
    g = builtin(name)
    sub = center(g)
    assert sub.members == brute_center(g)
    assert sub.order == expected_size


# --- subgroup closure -------------------------------------------------------

def test_closure_empty_gens():
    assert subgroup_closure(builtin("Z4"), ()).members == (0,)


def test_closure_forced():
    assert subgroup_closure(builtin("Z4"), (2,)).members == (0, 2)


def test_closure_three_cycle():
    s3 = builtin("S3")
    three_cycle = next(a for a in s3.elements() if s3.element_order(a) == 3)
    sub = subgroup_closure(s3, (three_cycle,))
    assert sub.order == 3
    assert sub.members == brute_closure(s3, (three_cycle,))


@given(FIXTURES, st.data())
def test_closure_matches_oracle(name, data):
    g = builtin(name)
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    assert subgroup_closure(g, gens).members == brute_closure(g, gens)


def test_subgroup_rejects_non_closed():
    with pytest.raises(NotSubgroup):
        Subgroup(builtin("Z4"), (0, 1))


# --- normality --------------------------------------------------------------

def test_normality_in_abelian():
    g = builtin("Z6")
    for sub in (subgroup_closure(g, (2,)), subgroup_closure(g, (3,))):
        assert is_normal(sub)


def test_s3_subgroups_normality():
    s3 = builtin("S3")
    three_cycle = next(a for a in s3.elements() if s3.element_order(a) == 3)
    transposition = next(a for a in s3.elements() if s3.element_order(a) == 2)
    assert is_normal(subgroup_closure(s3, (three_cycle,)))
    assert not is_normal(subgroup_closure(s3, (transposition,)))
    assert brute_is_normal(s3, subgroup_closure(s3, (three_cycle,)).members)
    assert not brute_is_normal(s3, subgroup_closure(s3, (transposition,)).members)


# --- quotients --------------------------------------------------------------

def test_quotient_z4_by_half():
    g = builtin("Z4")
    q = quotient(g, subgroup_closure(g, (2,)))
    assert q.quotient.order == 2
    assert q.reps == (0, 1)
    assert [q.projection.map[r] for r in q.reps] == [0, 1]


def test_quotient_by_trivial():
    g = builtin("S3")
    q = quotient(g, Subgroup(g, (0,)))
    assert q.quotient.table == g.table
    assert q.projection.map == tuple(range(g.order))


def test_quotient_s3_by_a3():
    s3 = builtin("S3")
    three_cycle = next(a for a in s3.elements() if s3.element_order(a) == 3)
    a3 = subgroup_closure(s3, (three_cycle,))
    q = quotient(s3, a3)
    assert q.quotient.order == 2
    cosets = brute_cosets(s3, a3.members)
    assert q.reps == tuple(c[0] for c in cosets)
    for idx, coset in enumerate(cosets):
        assert {q.projection.map[x] for x in coset} == {idx}


def test_quotient_requires_normal():
    s3 = builtin("S3")
    transposition = next(a for a in s3.elements() if s3.element_order(a) == 2)
    with pytest.raises(NotNormal):
        quotient(s3, subgroup_closure(s3, (transposition,)))


# --- kernel / image / cokernel ----------------------------------------------

def test_kernel_image_identity():
    g = builtin("Z6")
    f = identity_hom(g)
    assert kernel(f).members == (0,)
    assert image(f).members == tuple(g.elements())


def test_kernel_image_mod2():
    f = Homomorphism(builtin("Z4"), builtin("Z2"), (0, 1, 0, 1))
    assert kernel(f).members == (0, 2)
    assert image(f).members == (0, 1)


def test_kernel_image_inclusion():
    s3 = builtin("S3")
    three_cycle = next(a for a in s3.elements() if s3.element_order(a) == 3)
    a3 = subgroup_closure(s3, (three_cycle,))
    _, inc = subgroup_as_group(a3)
    assert kernel(inc).members == (0,)
    assert image(inc).members == a3.members


def test_cokernel_surjective():
    f = Homomorphism(builtin("Z4"), builtin("Z2"), (0, 1, 0, 1))
    assert cokernel(f).quotient.order == 1


def test_cokernel_inclusion():
    z2, z4 = builtin("Z2"), builtin("Z4")
    f = Homomorphism(z2, z4, (0, 2))
    ck = cokernel(f)
    assert ck.quotient.order == 2
    assert ck.reps == (0, 1)
    # projection after f is constant at the identity
    assert all(ck.projection.map[f.map[a]] == 0 for a in z2.elements())


def test_cokernel_a3_in_s3():
    s3 = builtin("S3")
    three_cycle = next(a for a in s3.elements() if s3.element_order(a) == 3)
    sub = subgroup_closure(s3, (three_cycle,))
    grp, inc = subgroup_as_group(sub)
    assert cokernel(inc).quotient.order == 2


# --- homomorphisms ----------------------------------------------------------

def test_homomorphism_rejects_bad_map():
    z4, z2 = builtin("Z4"), builtin("Z2")
    with pytest.raises(NotHomomorphism):
        Homomorphism(z4, z2, (0, 1, 1, 0))


def test_hom_enumeration_counts():
    z4, z2, z3 = builtin("Z4"), builtin("Z2"), builtin("Z3")
    assert len(all_homomorphisms(z4, z2)) == 2
    assert len(all_homomorphisms(z3, z4)) == 1
    assert len(all_homomorphisms(builtin("S3"), z2)) == 2


def brute_homomorphisms(source, target) -> list[tuple[int, ...]]:
    """Every map source -> target that preserves products, in lex order."""
    s, t = source.table, target.table
    pairs = list(itertools.product(source.elements(), repeat=2))
    return [m for m in itertools.product(target.elements(), repeat=source.order)
            if all(m[s[a][b]] == t[m[a]][m[b]] for a, b in pairs)]


@pytest.mark.parametrize("source, target", [
    ("Z4", "Z2"), ("V4", "S3"), ("S3", "V4"), ("Z2xZ2xZ2", "Z2"), ("D4", "Z2"),
    ("Q8", "V4"), ("Z3", "Z6"), ("Z6", "S3"), ("Z4", "Z4xZ2")])
def test_hom_enumeration_matches_every_map(source, target):
    """The closure walk extends each choice of generator images; what it
    keeps is every homomorphism, with and without pinned elements."""
    g, h = builtin(source), builtin(target)
    every = brute_homomorphisms(g, h)
    assert [f.map for f in all_homomorphisms(g, h)] == every
    injective = [m for m in every if len(set(m)) == g.order]
    assert [f.map for f in all_homomorphisms(g, h, injective_only=True)] == injective
    for m in every:
        fixed = {x: m[x] for x in g.elements() if g.element_order(x) == 2}
        pinned = [f.map for f in all_homomorphisms(g, h, fixed=fixed)]
        assert pinned == [n for n in every if all(n[x] == y for x, y in fixed.items())]


@pytest.mark.parametrize("source, target", [("Z4", "Z2"), ("S3", "Z2"), ("Z3", "Z6"),
                                            ("D4", "V4")])
def test_fibers_are_the_ascending_preimages(source, target):
    g, h = builtin(source), builtin(target)
    for f in all_homomorphisms(g, h):
        assert fibers(f) == tuple(tuple(a for a in g.elements() if f.map[a] == y)
                                  for y in h.elements())


def test_trivial_hom_and_compose():
    z4, z2 = builtin("Z4"), builtin("Z2")
    t = trivial_hom(z4, z2)
    f = Homomorphism(z4, z2, (0, 1, 0, 1))
    assert compose(identity_hom(z2), f).map == f.map
    assert compose(f, identity_hom(z4)).map == f.map
    assert t.map == (0, 0, 0, 0)


# --- automorphisms ----------------------------------------------------------

def test_aut_z2_is_trivial():
    assert len(automorphism_group(builtin("Z2"))) == 1


@pytest.mark.parametrize("name,count", [
    ("Z4", 2), ("V4", 6), ("Z6", 2), ("S3", 6), ("Q8", 24), ("D4", 8), ("Z9", 6),
])
def test_aut_counts_match_oracle(name, count):
    g = builtin(name)
    auts = automorphism_group(g)
    oracle = brute_automorphisms(g)
    assert sorted(a.map for a in auts) == sorted(oracle)
    assert len(auts) == count


def test_aut_deterministic_order():
    auts = automorphism_group(builtin("V4"))
    maps = [a.map for a in auts]
    assert maps == sorted(maps)


def test_aut_bound(monkeypatch):
    monkeypatch.setattr(groups, "MAX_AUT_ORDER", 8)
    automorphism_group_table.cache_clear()
    with pytest.raises(OrderBoundExceeded) as err:
        automorphism_group_table(builtin("Z9"))
    assert str(err.value) == "group order 9 exceeds MAX_AUT_ORDER = 8"
    assert len(automorphism_group(builtin("Z8"))) == 4


def test_hom_search_bound(monkeypatch):
    """The whole product of the candidate lists is named, not the first
    partial product past the bound."""
    monkeypatch.setattr(groups, "MAX_HOM_CANDIDATES", 3)
    with pytest.raises(SearchBoundExceeded) as err:
        all_homomorphisms(builtin("V4"), builtin("V4"))
    assert str(err.value) == (
        "homomorphism search space 16 exceeds MAX_HOM_CANDIDATES = 3")


@given(FIXTURES)
def test_aut_closed_under_composition_and_inverse(name):
    g = builtin(name)
    if g.order > 9:
        return
    auts = automorphism_group(g)
    maps = {a.map for a in auts}
    for a in auts:
        inv = [0] * g.order
        for x, y in enumerate(a.map):
            inv[y] = x
        assert tuple(inv) in maps
    first = auts[0 if len(auts) == 1 else 1]
    for b in auts:
        assert tuple(first.map[b.map[x]] for x in g.elements()) in maps


# --- inner automorphisms ----------------------------------------------------

def test_inner_trivial_cases():
    z6 = builtin("Z6")
    for b in z6.elements():
        assert inner_automorphism(z6, b).map == tuple(z6.elements())
    s3 = builtin("S3")
    assert inner_automorphism(s3, 0).map == tuple(s3.elements())


def test_inner_transposition_has_order_two():
    s3 = builtin("S3")
    b = next(a for a in s3.elements() if s3.element_order(a) == 2)
    mu = inner_automorphism(s3, b)
    assert mu.map != tuple(s3.elements())
    assert tuple(mu.map[mu.map[x]] for x in s3.elements()) == tuple(s3.elements())


@given(FIXTURES)
def test_inner_is_homomorphism_with_kernel_center(name):
    g = builtin(name)
    inner = [inner_automorphism(g, b).map for b in g.elements()]
    for a in g.elements():
        for b in g.elements():
            composed = tuple(inner[a][inner[b][x]] for x in g.elements())
            assert composed == inner[g.mul(a, b)]
    ident = tuple(g.elements())
    assert tuple(b for b in g.elements() if inner[b] == ident) == center(g).members

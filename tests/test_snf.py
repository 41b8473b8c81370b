import pytest
from hypothesis import assume, given, strategies as st

from prolong.snf import (
    identity_matrix,
    matmul,
    matvec,
    rank_mod_p,
    smith_normal_form,
)

from oracles import (
    matvec as dense_matvec,
    reference_smith_normal_form,
    reference_solve_integer,
    smith_solve,
)

small_matrix = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    min_size=1, max_size=5,
).filter(lambda m: len({len(r) for r in m}) == 1)


def certify(a):
    sf = smith_normal_form(a)
    r, c = sf.rows, sf.cols
    if r and c:
        assert matmul(matmul(sf.u, a), sf.v) == sf.d
    assert matmul(sf.u, sf.u_inv) == identity_matrix(r) if r else True
    diag = sf.diagonal()
    assert all(d >= 0 for d in diag)
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # zeros only at the end
        if diag[i] == 0:
            assert diag[i + 1] == 0
    for i in range(r):
        for j in range(c):
            if i != j:
                assert sf.d[i][j] == 0
    return sf


def test_known_small_cases():
    sf = certify([[2, 4], [6, 8]])
    assert sf.diagonal() == [2, 4]
    sf = certify([[1, 0], [0, 1]])
    assert sf.diagonal() == [1, 1]
    sf = certify([[0, 0], [0, 0]])
    assert sf.diagonal() == [0, 0]
    sf = certify([[6]])
    assert sf.diagonal() == [6]
    sf = certify([[2, 3]])
    assert sf.diagonal() == [1]


def test_empty_shapes():
    sf = smith_normal_form([], rows=0, cols=3)
    assert sf.diagonal() == []
    assert smith_normal_form([], rows=0, cols=3, track="v").v == identity_matrix(3)
    assert smith_normal_form([], rows=0, cols=3, track="v", v_rows=2).v == [[1, 0, 0],
                                                                          [0, 1, 0]]


@given(small_matrix)
def test_certificates_random(m):
    certify(m)


@given(small_matrix, st.data())
def test_solve_round_trip(m, data):
    cols = len(m[0])
    x = data.draw(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols))
    b = matvec(m, x)
    sol = smith_solve(smith_normal_form(m, track="uv"), b)
    assert sol is not None
    assert matvec(m, sol) == b


def test_solve_unsolvable():
    assert smith_solve(smith_normal_form([[2]], track="uv"), [1]) is None
    diag = smith_normal_form([[2, 0], [0, 3]], track="uv")
    assert smith_solve(diag, [1, 1]) is None
    assert smith_solve(diag, [4, 9]) == [2, 3]


# --- differential: the tightened loops against the reference elimination ------

sparse_matrix = st.integers(0, 7).flatmap(lambda c: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 6, 9]), min_size=c, max_size=c),
    min_size=0, max_size=7))


@given(sparse_matrix, st.sampled_from(["uUv", "uv", "uU", "v", "U", "u", ""]))
def test_smith_form_matches_reference(m, track):
    cols = len(m[0]) if m else 3
    new = smith_normal_form(m, len(m), cols, track=track)
    ref = reference_smith_normal_form(m, len(m), cols, track=track)
    for name in ("d", "u", "v", "u_inv"):
        assert getattr(new, name) == getattr(ref, name), name


@given(sparse_matrix, st.sampled_from(["uUv", "uv", "v"]), st.data())
def test_leading_rows_of_v_match_the_full_factorization(m, track, data):
    """v_rows keeps the leading rows of v the full factorization gives and
    changes neither d nor the other transforms."""
    cols = len(m[0]) if m else 3
    kept = data.draw(st.integers(0, cols))
    full = smith_normal_form(m, len(m), cols, track=track)
    cut = smith_normal_form(m, len(m), cols, track=track, v_rows=kept)
    assert cut.v == full.v[:kept]
    for name in ("d", "u", "u_inv"):
        assert getattr(cut, name) == getattr(full, name), name


@given(sparse_matrix, st.data())
def test_one_factor_solves_like_a_fresh_one(m, data):
    cols = len(m[0]) if m else 2
    sf = smith_normal_form(m, len(m), cols, track="uv")
    for _ in range(3):
        b = data.draw(st.lists(st.integers(-4, 4), min_size=len(m), max_size=len(m)))
        assert smith_solve(sf, b) == reference_solve_integer(m, b, len(m), cols)


big_entry = st.integers(-9, 9) | st.integers(-2**70, 2**70)


@st.composite
def matrix_and_vector(draw):
    """A matrix with negative and large entries and a vector that is
    all zero, has exactly one nonzero entry, or is drawn freely."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    a = draw(st.lists(st.lists(big_entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    kind = draw(st.sampled_from(["zero", "one", "any"]))
    if kind == "any":
        v = draw(st.lists(big_entry, min_size=cols, max_size=cols))
    else:
        v = [0] * cols
        if kind == "one":
            v[draw(st.integers(0, cols - 1))] = draw(big_entry.filter(bool))
    return a, v


@given(matrix_and_vector())
def test_matvec_matches_the_dense_product(case):
    a, v = case
    assert matvec(a, v) == dense_matvec(a, v)


@given(sparse_matrix, st.data())
def test_solve_through_an_output_map(m, data):
    """smith_solve(sf, b, out=M @ v) is M applied to smith_solve(sf, b),
    for rows of v picked out and for any integer M, and is None exactly
    when smith_solve(sf, b) is."""
    rows, cols = len(m), len(m[0]) if m else 2
    assume(cols)
    sf = smith_normal_form(m, rows, cols, track="uv")
    picked = data.draw(st.lists(st.integers(0, cols - 1), max_size=cols))
    mat = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
                             min_size=1, max_size=3))
    for _ in range(3):
        b = data.draw(st.lists(st.integers(-4, 4), min_size=rows, max_size=rows))
        x = smith_solve(sf, b)
        through_rows = smith_solve(sf, b, out=[sf.v[i] for i in picked])
        through_map = smith_solve(sf, b, out=matmul(mat, sf.v))
        if x is None:
            assert through_rows is None and through_map is None
        else:
            assert through_rows == [x[i] for i in picked]
            assert through_map == dense_matvec(mat, x)


def test_solve_needs_u_and_v():
    with pytest.raises(ValueError):
        smith_solve(smith_normal_form([[2]], track="v"), [2])
    with pytest.raises(ValueError):
        smith_solve(smith_normal_form([[2]], track="uv"), [2, 0])


def _pairs(m):
    """Dense rows as sparse rows of their nonzero (column, entry) pairs."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


@given(sparse_matrix, st.sampled_from([2, 3, 5]))
def test_rank_mod_p_counts_invariant_factors_prime_to_p(m, p):
    """Over GF(p) the rank of an integer matrix is the number of its Smith
    invariant factors that p does not divide, for either orientation."""
    cols = len(m[0]) if m else 3
    diag = reference_smith_normal_form(m, len(m), cols, track="").diagonal()
    expected = sum(1 for d in diag if d % p)
    assert rank_mod_p(_pairs(m), cols, p) == expected
    assert rank_mod_p(_pairs(zip(*m)), len(m), p) == expected


@st.composite
def sparse_rows(draw, tall: bool):
    """Sparse rows with more rows than columns when tall, else at most as
    many: columns repeat within a row, coefficients are negative or
    unreduced, and rows may be empty."""
    cols = draw(st.integers(0, 6))
    count = draw(st.integers(cols + 1, cols + 6) if tall else st.integers(0, cols))
    entry = st.tuples(st.integers(0, max(cols - 1, 0)), st.integers(-30, 30))
    rows = draw(st.lists(st.lists(entry, max_size=8 if cols else 0),
                         min_size=count, max_size=count))
    return rows, cols


@given(st.booleans().flatmap(sparse_rows), st.sampled_from([2, 3, 5]))
def test_sparse_rank_mod_p_counts_invariant_factors_prime_to_p(case, p):
    """The rank of sparse rows is that of the integer matrix their pairs
    sum to: the number of its Smith invariant factors prime to p."""
    rows, cols = case
    dense = [[0] * cols for _ in rows]
    for row, pairs in zip(dense, rows):
        for j, c in pairs:
            row[j] += c
    diag = reference_smith_normal_form(dense, len(dense), cols, track="").diagonal()
    assert rank_mod_p(rows, cols, p) == sum(1 for d in diag if d % p)

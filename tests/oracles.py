"""Brute-force oracles and reference engines used by the test suite.

The brute-force oracles deliberately avoid the library's own algorithms:
centers by raw commutation scans, quotients by explicit coset partitions,
automorphisms by filtering all identity-fixing permutations, and abelian
invariant factors by order statistics (no Smith normal form anywhere).
`iter_normalized_cochains` lists every normalized cochain of a degree, and
`check_factor_identity` checks the cocycle identity of a factor set on its
extension's middle group.

The reference engine at the end is the exact slow path the library's
cohomology engine replaced: the untightened Smith normal form, one
factorization per solve, the coboundary that looks every value up by its
argument tuple, and coboundary matrices built by running it on elementary
cochains.  The fast path must agree with it number for number.
`reference_is_coboundary` is the witness path `is_coboundary` replaced: a
Smith form of `[d_{n-1} | moduli]` factored once per module and degree, and
one integer solve through it (`smith_solve`) per query.

`reference_induced_action` is the full read of a ladder's action that the
library replaced by the read off its least section: every element of B
conjugated over all of E0, with three fiber checks that raise
`FiberInconsistency`.  `reference_verify_covering` is the covering check
that reads theta that way and certifies its crossed module anew.
`reference_brute_force_coverings` is the covering search that keeps a lift
when its pairing table (built entry by entry, `reference_pairing_table`)
passes `validate_group` and filters the assembled ladders by the theta
`reference_verify_covering` reads.
`equivalent_class_pair` checks that enumerated classes are pairwise
inequivalent, by running the equivalence search on every pair, and
`equivalent_extensions` runs that search on bare extensions.  `FIXTURES`
and `SCENARIOS` are the shipped fixture files of the checkout.

`reference_crossed_product` is the crossed-product construction that proves
the group axioms of each pairing table a second time: it compares
phi_x phi_y with inn(h(x, y)) phi_xy on all of E0, then runs
`validate_group` on the table and raises `PairingNotAssociative` when it
fails associativity.

`reference_validate_group`, `reference_check_homomorphism` and
`reference_check_crossed_module` are the full-loop structural checks the
library replaced by checks on generating sets (Light's associativity test
and its kin): O(n^3) associativity, O(n^2) homomorphism, and the pairwise
crossed-module axioms.  `reference_generating_set` is the greedy generating
set computed by repeated subgroup closure.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd, prod
from pathlib import Path

from prolong import cohomology
from prolong.cohomology import (
    Cochain,
    abelian_structure,
    cochain_from_values,
    free_positions,
    zero_cochain,
)
from prolong.classify import _search_equivalence, are_equivalent
from prolong.crossed import InducedCrossedModule, make_crossed_module
from prolong.errors import (
    CheckItem,
    IdentityNotAtZero,
    MalformedTable,
    MismatchedBase,
    MismatchedFrame,
    MissingInverse,
    NotAssociative,
    NotHomomorphism,
    NotLatinSquare,
    PreconditionFailed,
    ProlongError,
    ValidationReport,
    certify,
)
from prolong.extensions import (
    FactorSet,
    InducedSequence,
    Prolongation,
    Section,
    ShortExtension,
    choose_section,
    cocycle_terms,
    factor_set,
    frame_checks,
    induced_sequence,
    ladder_checks,
    make_extension,
)
from prolong.groups import (
    FiniteGroup,
    Homomorphism,
    compose,
    fibers,
    is_bijective,
    subgroup_closure,
    validate_group,
)
from prolong.obstruction import (
    CrossedProductExtension,
    crossed_product,
    derive,
    lift_factor_set,
)
from prolong.snf import SmithForm, identity_matrix, matmul, smith_normal_form
from prolong.snf import matvec as sparse_matvec

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "prolong" / "fixtures"
SCENARIOS = FIXTURES / "scenarios"


def brute_center(g) -> tuple[int, ...]:
    return tuple(z for z in range(g.order)
                 if all(g.table[z][a] == g.table[a][z] for a in range(g.order)))


def brute_closure(g, gens) -> tuple[int, ...]:
    members = {0, *gens}
    while True:
        new = {g.table[a][b] for a in members for b in members} - members
        if not new:
            return tuple(sorted(members))
        members |= new


def brute_is_normal(g, members) -> bool:
    inside = set(members)
    return all(g.table[g.table[a][x]][g.inv[a]] in inside
               for a in range(g.order) for x in members)


def brute_cosets(g, members) -> list[tuple[int, ...]]:
    """Left coset partition ordered by least representative."""
    seen: set[int] = set()
    cosets = []
    for a in range(g.order):
        if a in seen:
            continue
        coset = tuple(sorted(g.table[a][h] for h in members))
        cosets.append(coset)
        seen.update(coset)
    return cosets


def brute_automorphisms(g) -> list[tuple[int, ...]]:
    """Every identity-fixing permutation that preserves the table."""
    n = g.order
    out = []
    for rest in itertools.permutations(range(1, n)):
        perm = (0,) + rest
        ok = True
        for a in range(n):
            pa = perm[a]
            for b in range(n):
                if perm[g.table[a][b]] != g.table[pa][perm[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(perm)
    return out


def inverse_hom(f):
    """The inverse of a bijective homomorphism, checked as a homomorphism."""
    if not is_bijective(f):
        raise ValueError("homomorphism is not bijective")
    inv = [0] * f.target.order
    for a, x in enumerate(f.map):
        inv[x] = a
    return Homomorphism(f.target, f.source, tuple(inv))


def s3_table_from_permutations() -> list[list[int]]:
    """Build the S3 Cayley table straight from permutation composition."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]


def invariant_factors_from_orders(order_of, size: int) -> tuple[int, ...]:
    """Recover invariant factors of a finite abelian group from order counts.

    Searches the (small) space of divisibility chains with the right product
    for the one matching every count #{x : order(x) divides m}.
    """
    if size == 1:
        return ()
    counts = {}
    for m in range(1, size + 1):
        if size % m == 0:
            counts[m] = sum(1 for x in range(size) if m % order_of(x) == 0)

    def chains(target, must_divide):
        # ascending chains d1 | d2 | ... with product `target`
        if target == 1:
            yield ()
            return
        for d in range(2, target + 1):
            if target % d == 0 and must_divide % d == 0:
                for rest in chains(target // d, d):
                    yield rest + (d,)

    for chain in chains(size, size):
        if all(prod(gcd(d, m) for d in chain) == counts[m] for m in counts):
            return chain
    raise AssertionError("no invariant factor chain matches the order counts")


def iter_normalized_cochains(module, degree: int):
    """Every normalized cochain of the given degree, in lexicographic order."""
    positions = free_positions(module.pi.order, degree)
    for combo in itertools.product(module.a.elements(), repeat=len(positions)):
        yield cochain_from_values(module, degree, dict(zip(positions, combo)))


def check_factor_identity(ext: ShortExtension, section: Section, fs: FactorSet) -> bool:
    """The associativity identity mu_{u_x} f(y,z) * f(x,yz) = f(x,y) * f(xy,z)."""
    b = ext.b
    jf = [[ext.j.map[v] for v in row] for row in fs.f]
    conj = [[b.conjugate(ux, e) for e in b.elements()] for ux in section.u]
    return all(left == right
               for *_, left, right in cocycle_terms(b, ext.g, conj, jf))


def enumerate_cohomology(module, degree: int):
    """(cocycle count, coboundary count, invariant factors) by enumeration.

    The quotient is materialized as a coset space with pointwise addition and
    its factors recovered from order statistics alone.
    """
    cocycles = [c.values for c in iter_normalized_cochains(module, degree)
                if reference_coboundary(c).is_zero()]
    coboundaries = sorted({reference_coboundary(t).values
                           for t in iter_normalized_cochains(module, degree - 1)})
    cob_set = set(coboundaries)
    a = module.a

    def add(v1, v2):
        return tuple(a.table[x][y] for x, y in zip(v1, v2))

    def canonical(v):
        return min(add(v, b) for b in coboundaries)

    classes = sorted({canonical(v) for v in cocycles})
    class_index = {c: i for i, c in enumerate(classes)}

    def order_of(i):
        acc = classes[i]
        k = 1
        zero = tuple([0] * len(acc))
        while canonical(acc) != canonical(zero):
            acc = add(acc, classes[i])
            k += 1
        return k

    assert len(cocycles) % len(cob_set) == 0
    factors = invariant_factors_from_orders(order_of, len(classes))
    return len(cocycles), len(cob_set), factors


def count_free_cochains(module, degree: int) -> int:
    return module.a.order ** len(free_positions(module.pi.order, degree))


# ---------------------------------------------------------------------------
# Reference cohomology engine
# ---------------------------------------------------------------------------

def reference_smith_normal_form(a, rows: int | None = None, cols: int | None = None,
                                track: str = "uUv") -> SmithForm:
    """The Smith normal form as first written: full pivot scans, dense updates.

    The library's smith_normal_form must return the same d, u, v and u_inv
    entry for entry.
    """
    m = [list(row) for row in a]
    r = len(m) if rows is None else rows
    c = (len(m[0]) if m else 0) if cols is None else cols
    if len(m) != r or any(len(row) != c for row in m):
        raise ValueError("matrix shape disagrees with declared dimensions")

    u = identity_matrix(r) if "u" in track else None
    ui = identity_matrix(r) if "U" in track else None
    v = identity_matrix(c) if "v" in track else None

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]
        if ui is not None:
            for t in range(r):
                ui[t][i], ui[t][j] = ui[t][j], ui[t][i]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]
        if ui is not None:
            for t in range(r):
                ui[t][i] = -ui[t][i]

    def add_row(i, j, q):
        # row_i += q * row_j
        mi, mj = m[i], m[j]
        for t in range(c):
            mi[t] += q * mj[t]
        if u is not None:
            uin, ujn = u[i], u[j]
            for t in range(r):
                uin[t] += q * ujn[t]
        if ui is not None:
            for t in range(r):
                ui[t][j] -= q * ui[t][i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in m:
            row[i] += q * row[j]
        if v is not None:
            for row in v:
                row[i] += q * row[j]

    t = 0
    limit = min(r, c)
    while t < limit:
        # move the absolutely smallest nonzero entry of the trailing block to (t, t)
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = m[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        if m[t][t] < 0:
            negate_row(t)

        while True:
            restart = False
            for i in range(t + 1, r):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        add_row(i, t, -q)
                    if m[i][t]:
                        # remainder is a strictly smaller positive pivot
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, c):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        add_col(j, t, -q)
                    if m[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            if any(m[i][t] for i in range(t + 1, r)):
                continue
            # cross is clear; enforce divisibility of the trailing block
            viol = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if m[i][j] % m[t][t]:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            add_row(t, viol, 1)
        t += 1

    return SmithForm(rows=r, cols=c, d=m, u=u, v=v, u_inv=ui)


def matvec(a, v):
    """a @ v, densely."""
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def reference_solve_integer(a, b, rows=None, cols=None):
    """One integer solution of a @ x == b, or None; a fresh factorization per call."""
    sf = reference_smith_normal_form(a, rows, cols, track="uv")
    r, c = sf.rows, sf.cols
    rhs = matvec(sf.u, b) if r else []
    y = [0] * c
    for i in range(min(r, c)):
        d = sf.d[i][i]
        if d:
            if rhs[i] % d:
                return None
            y[i] = rhs[i] // d
        elif rhs[i]:
            return None
    if any(rhs[min(r, c):]):
        return None
    return matvec(sf.v, y) if c else []


def smith_solve(sf: SmithForm, b: list[int], out: list[list[int]] | None = None
                ) -> list[int] | None:
    """out @ y for the diagonal solution y of d @ y == u @ b, or None
    when a @ x == b has no integer solution, for the Smith form sf of a.

    out defaults to v, which gives one integer solution x = v @ y.  A
    caller that needs only some linear image M @ x passes M @ v, computed
    once, or only some rows of v; the rows of out are then the only ones
    multiplied.  Needs u, and v unless out is given (track="uv").  The
    factorization is reused as is, so each call costs the product u @ b,
    which decides solvability, and the product out @ y.
    """
    out = sf.v if out is None else out
    if sf.u is None or out is None:
        raise ValueError("solving needs the u and v transforms (track='uv')")
    r, c = sf.rows, sf.cols
    if len(b) != r:
        raise ValueError("right-hand side length disagrees with the matrix")
    rhs = sparse_matvec(sf.u, b)
    y = [0] * c
    for i in range(min(r, c)):
        d = sf.d[i][i]
        if d:
            if rhs[i] % d:
                return None
            y[i] = rhs[i] // d
        elif rhs[i]:
            return None
    if any(rhs[min(r, c):]):
        return None
    return sparse_matvec(out, y)


def reference_coboundary(c):
    """d c under the sign convention, each value looked up by its argument tuple."""
    module = c.module
    npi = module.pi.order
    a = module.a
    n = c.degree
    pi_table = module.pi.table
    out = []
    for t in itertools.product(range(npi), repeat=n + 1):
        acc = module.action[t[0]][c.value(t[1:])]
        sign = 1
        for j in range(n):
            merged = t[:j] + (pi_table[t[j]][t[j + 1]],) + t[j + 2:]
            v = c.value(merged)
            sign = -sign
            acc = a.mul(acc, v if sign > 0 else a.inv[v])
        v = c.value(t[:n])
        last_sign = 1 if (n + 1) % 2 == 0 else -1
        acc = a.mul(acc, v if last_sign > 0 else a.inv[v])
        out.append(acc)
    return Cochain(module, n + 1, tuple(out))


def reference_delta_matrix(module, degree: int):
    """Matrix of d: C^degree -> C^{degree+1}, one column per elementary cochain."""
    struct = abelian_structure(module.a)
    r = struct.rank
    npi = module.pi.order
    pos_in = free_positions(npi, degree)
    pos_out = free_positions(npi, degree + 1)
    rows = len(pos_out) * r
    cols = len(pos_in) * r
    matrix = [[0] * cols for _ in range(rows)]
    unit_elems = [struct.element(tuple(1 if t == k else 0 for t in range(r)))
                  for k in range(r)]
    for ci, (pos, k) in enumerate(itertools.product(pos_in, range(r))):
        d = reference_coboundary(cochain_from_values(module, degree, {pos: unit_elems[k]}))
        for ri, (opos, kk) in enumerate(itertools.product(pos_out, range(r))):
            matrix[ri][ci] = struct.vec(d.value(opos))[kk]
    return matrix, rows, cols


class ReferenceCohomology:
    """H^degree computed the slow way: invariant factors, basis, coordinates."""

    def __init__(self, degree: int, module):
        struct = abelian_structure(module.a)
        r = struct.rank
        self.module, self.degree, self.struct = module, degree, struct
        dn, out_rows, n = reference_delta_matrix(module, degree)
        dm, _, prev_cols = reference_delta_matrix(module, degree - 1)
        moduli = [struct.factors[i % r] for i in range(n)]
        if out_rows:
            aug = [dn[i] + [struct.factors[i % r] if k == i else 0
                            for k in range(out_rows)] for i in range(out_rows)]
            sf = reference_smith_normal_form(aug, out_rows, n + out_rows, track="v")
            c = n + out_rows
            diag = sf.diagonal() + [0] * (c - min(out_rows, c))
            k_gens = [[sf.v[i][j] for i in range(n)] for j in range(c) if diag[j] == 0]
        else:
            k_gens = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        # lattice basis of the kernel generators
        a = [[col[i] for col in k_gens] for i in range(n)]
        sf = reference_smith_normal_form(a, n, len(k_gens), track="U")
        w = matmul(sf.u_inv, sf.d)
        k_cols = [col for col in ([w[i][j] for i in range(n)]
                                  for j in range(len(k_gens))) if any(col)]
        assert len(k_cols) == n
        self.k_basis = [[col[i] for col in k_cols] for i in range(n)]
        b_gens = [[dm[i][j] for i in range(n)] for j in range(prev_cols)]
        b_gens += [[moduli[i] if k == i else 0 for k in range(n)] for i in range(n)]
        q_cols = [reference_solve_integer(self.k_basis, b, n, n) for b in b_gens]
        q = [[col[i] for col in q_cols] for i in range(n)]
        sf = reference_smith_normal_form(q, n, len(q_cols), track="uU")
        self.diag = tuple(sf.diagonal())
        self.u = sf.u
        self.kept = tuple(i for i, d in enumerate(self.diag) if d > 1)
        self.invariant_factors = tuple(self.diag[i] for i in self.kept)
        new_basis = matmul(self.k_basis, sf.u_inv)
        positions = free_positions(module.pi.order, degree)
        self.basis = tuple(
            cochain_from_values(module, degree, {
                pos: struct.element([new_basis[idx * r + k][i] % moduli[idx * r + k]
                                     for k in range(r)])
                for idx, pos in enumerate(positions)}).values
            for i in self.kept)

    def coordinates(self, c) -> tuple[int, ...]:
        assert reference_coboundary(c).is_zero()
        vec = []
        for pos in free_positions(self.module.pi.order, self.degree):
            vec.extend(self.struct.vec(c.value(pos)))
        n = len(self.k_basis)
        x = reference_solve_integer(self.k_basis, vec, n, n)
        w = matvec(self.u, x)
        return tuple(w[i] % self.diag[i] for i in self.kept)


@functools.lru_cache(maxsize=None)
def _reference_coboundary_factor(module, degree: int):
    """The Smith form of [d_degree | moduli] that reference_is_coboundary
    solves against, and the rows of its v that give C^degree coordinates."""
    sf = smith_normal_form(*cohomology._with_moduli(module, degree), track="uv")
    return sf, sf.v[:cohomology._dimension(module, degree)]


def reference_is_coboundary(c):
    """A witness t with d t == c, or None: the canonical solution of the
    integer solve against the factorization of c's module and degree,
    reduced into a cochain, with no certificate."""
    module = c.module
    if abelian_structure(module.a).rank == 0 or module.pi.order == 1:
        return zero_cochain(module, c.degree - 1) if c.is_zero() else None
    sf, rows = _reference_coboundary_factor(module, c.degree - 1)
    sol = smith_solve(sf, cohomology._vectorize(c), out=rows)
    return None if sol is None else cohomology._devectorize(module, c.degree - 1, sol)


class FiberInconsistency(ProlongError):
    pass


def reference_induced_action(p):
    """The induced sequence of a valid ladder with its phi and theta, read
    by conjugating every element of B over all of E0.

    Raises FiberInconsistency when conjugation leaves the image of E0, when
    j(A) acts nontrivially on it, or when phi is not constant on a fiber of
    p; theta is not checked against the crossed-module axioms.
    """
    ind = induced_sequence(p)
    e0 = ind.e0_data.quotient
    b = p.e.b
    eps_index = {ind.eps.map[e]: e for e in e0.elements()}
    phi = []
    for x in b.elements():
        perm = []
        for e in e0.elements():
            conj = b.conjugate(x, ind.eps.map[e])
            if conj not in eps_index:
                raise FiberInconsistency(
                    f"conjugation by {x} leaves the image of E0")
            perm.append(eps_index[conj])
        phi.append(tuple(perm))
    ident = tuple(range(e0.order))
    for a in p.e.a.elements():
        if phi[p.e.j.map[a]] != ident:
            raise FiberInconsistency(
                f"conjugation by j({a}) acts nontrivially on E0")
    theta = []
    for g, over in enumerate(fibers(p.e.p)):
        fiber_maps = {phi[x] for x in over}
        if len(fiber_maps) != 1:
            raise FiberInconsistency(f"phi is not constant on the fiber over {g}")
        theta.append(next(iter(fiber_maps)))
    return ind, tuple(phi), tuple(theta)


def reference_verify_covering(p, pre) -> bool:
    """verify_covering with theta read by reference_induced_action and its
    crossed module certified anew."""
    if p.e0 != pre.e0 or p.alpha != pre.alpha or p.gamma != pre.gamma:
        raise MismatchedBase("ladder and pre-prolongation share no common base")
    ind, _, theta = reference_induced_action(p)
    cm = make_crossed_module(ind.e0_data.quotient, p.e.g, compose(p.gamma, ind.pi), theta)
    return cm.theta == pre.theta


def reference_pairing_table(e0, npi: int, pi0_table, phi, h) -> list[list[int]]:
    """pairing_table built entry by entry."""
    n = e0.order * npi
    table = [[0] * n for _ in range(n)]
    for e in e0.elements():
        for x in range(npi):
            row = table[e * npi + x]
            phix = phi[x]
            for e2 in e0.elements():
                left = e0.mul(e, phix[e2])
                for y in range(npi):
                    row[e2 * npi + y] = (e0.mul(left, h[x][y]) * npi
                                         + pi0_table[x][y])
    return table


class PairingNotAssociative(ProlongError):
    def __init__(self, witness: tuple):
        super().__init__(f"crossed product pairing not associative at {witness}")
        self.witness = witness


def reference_crossed_product(pre, u, h):
    """crossed_product with phi_x phi_y composed and compared on all of E0,
    and the group axioms of the pairing table proved by validate_group."""
    d = derive(pre)
    e0, pi0, g = d.e0, d.pi0, pre.g
    npi = pi0.order
    u = tuple(u)
    h = tuple(tuple(row) for row in h)
    phi = tuple(pre.theta[u[x]] for x in pi0.elements())
    for x in pi0.elements():
        for y in pi0.elements():
            xy = pi0.mul(x, y)
            composed = tuple(phi[x][phi[y][e]] for e in e0.elements())
            twisted = tuple(e0.conjugate(h[x][y], phi[xy][e]) for e in e0.elements())
            if composed != twisted:
                raise PreconditionFailed("twisted-homomorphism", (x, y))
    for x, y, z, left, right in cocycle_terms(e0, pi0, phi, h):
        if left != right:
            raise PreconditionFailed("cocycle", (x, y, z))
    table = reference_pairing_table(e0, npi, pi0.table, phi, h)
    labels = tuple(f"({e0.label(e)},{pi0.label(x)})"
                   for e in e0.elements() for x in pi0.elements())
    try:
        bh = validate_group(table, labels=labels,
                            name=f"[{e0.name or 'E0'};{pi0.name or 'Pi0'}]")
    except NotAssociative as exc:
        raise PairingNotAssociative(exc.witness) from None
    jmap = tuple(d.i.map[a] * npi for a in d.module.a.elements())
    pmap = tuple(g.mul(d.gammapi.map[e], u[x])
                 for e in e0.elements() for x in pi0.elements())
    ext = make_extension(Homomorphism(d.module.a, bh, jmap),
                         Homomorphism(bh, g, pmap))
    proj = d.e0_data.projection.map
    beta = Homomorphism(pre.e0.b, bh, tuple(proj[b0] * npi
                                            for b0 in pre.e0.b.elements()))
    ladder = Prolongation(e0=pre.e0, e=ext, alpha=pre.alpha, beta=beta,
                          gamma=pre.gamma)
    eps = Homomorphism(e0, bh, tuple(e * npi for e in e0.elements()))
    seq = make_extension(eps, Homomorphism(bh, pi0, tuple(
        x for e in e0.elements() for x in pi0.elements())))
    sigma, gamma = d.coker.projection.map, pre.gamma.map
    certify(all(item.ok for item in frame_checks(pre.e0, pre.alpha, pre.gamma))
            and all(item.ok for item in ladder_checks(ladder))
            and beta.map == tuple(eps.map[e] for e in proj)
            and jmap == tuple(eps.map[e] for e in d.i.map)
            and tuple(pmap[b] for b in eps.map) == tuple(gamma[g0] for g0 in d.pi.map)
            and tuple(sigma[y] for y in pmap) == seq.p.map,
            "crossed-product ladder must validate")
    theta = d.cm.theta
    certify(all(bh.conjugate(s, eps.map[t]) == eps.map[theta[pmap[s]][t]]
                for s in bh.gens for t in e0.gens),
            "crossed-product ladder must induce theta")
    induced = InducedSequence(seq=seq, eps=eps, i=d.i, pi=d.pi,
                              e0_data=d.e0_data, coker=d.coker, top=d.top)
    icm = InducedCrossedModule(cm=d.cm, phi=tuple(theta[y] for y in pmap),
                               induced=induced)
    return CrossedProductExtension(ladder=ladder, icm=icm, u=u, h=h)


def reference_brute_force_coverings(pre) -> tuple:
    """brute_force_coverings with lifts filtered by the associativity of their
    pairing table and ladders by their induced theta (default bounds)."""
    d = derive(pre)
    lfs = lift_factor_set(pre)
    e0, npi = d.e0, d.pi0.order
    phi = tuple(pre.theta[lfs.u[x]] for x in range(npi))
    fibers: dict[int, list[int]] = {}
    for e in e0.elements():
        fibers.setdefault(d.gammapi.map[e], []).append(e)
    positions = [(x, y) for x in range(1, npi) for y in range(1, npi)]
    found = []
    for combo in itertools.product(*(fibers[lfs.f[x][y]] for (x, y) in positions)):
        h = [[0] * npi for _ in range(npi)]
        for (x, y), e in zip(positions, combo):
            h[x][y] = e
        try:
            validate_group(reference_pairing_table(e0, npi, d.pi0.table, phi, h))
        except NotAssociative:
            continue
        cp = crossed_product(pre, lfs.u, h)
        p = Prolongation(e0=pre.e0, e=cp.ext, alpha=pre.alpha,
                         beta=cp.beta, gamma=pre.gamma)
        if reference_verify_covering(p, pre):
            found.append(p)
    found.sort(key=lambda p: p.e.b.table)
    reps: list = []
    for p in found:
        if not any(are_equivalent(p, q) is not None for q in reps):
            reps.append(p)
    return tuple(reps)


def equivalent_class_pair(classes):
    """The coordinates of the first two enumerated classes whose
    representatives are equivalent, or None when the classes are distinct."""
    for c1, c2 in itertools.combinations(classes, 2):
        if are_equivalent(c1.representative, c2.representative) is not None:
            return c1.coordinates, c2.coordinates
    return None


def equivalent_extensions(e1: ShortExtension, e2: ShortExtension
                          ) -> Homomorphism | None:
    """Equivalence of bare extensions (identity on kernel and quotient).

    The search runs on e1 over its least-index section; a map it returns
    agrees with the kernel maps and the projections by construction.
    """
    if e1.a != e2.a or e1.g != e2.g:
        raise MismatchedFrame("extensions do not share kernel and quotient")
    candidates = [(0,), *fibers(e2.p)[1:]]
    fs = factor_set(e1, choose_section(e1))
    return _search_equivalence(fs, e2.j, candidates)


def reference_validate_group(table, labels=None, name: str = "") -> FiniteGroup:
    """Validate a Cayley table exhaustively and return the group.

    The identity must already sit at index 0; inverses are computed here.
    """
    try:
        rows = [list(row) for row in table]
    except TypeError:
        raise MalformedTable("table must be a list of rows") from None
    n = len(rows)
    if n == 0:
        raise MalformedTable("empty table")
    for a, row in enumerate(rows):
        if len(row) != n:
            raise MalformedTable(f"row {a} has length {len(row)}, expected {n}")
        for b, x in enumerate(row):
            if type(x) is not int or not 0 <= x < n:
                raise MalformedTable(f"entry table[{a}][{b}] = {x!r} out of range")
    for b in range(n):
        if rows[0][b] != b:
            raise IdentityNotAtZero(f"table[0][{b}] = {rows[0][b]}, expected {b}")
    for a in range(n):
        if rows[a][0] != a:
            raise IdentityNotAtZero(f"table[{a}][0] = {rows[a][0]}, expected {a}")
    full = set(range(n))
    for a in range(n):
        if set(rows[a]) != full:
            raise NotLatinSquare(f"row {a} is not a permutation")
    for b in range(n):
        if {rows[a][b] for a in range(n)} != full:
            raise NotLatinSquare(f"column {b} is not a permutation")
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rab = rows[ra[b]]
            rb = rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    raise NotAssociative((a, b, c))
    inv = [0] * n
    for a in range(n):
        b = rows[a].index(0)
        if rows[b][a] != 0:
            raise MissingInverse(f"element {a} has no two-sided inverse")
        inv[a] = b
    return FiniteGroup(order=n, table=tuple(tuple(r) for r in rows),
                       inv=tuple(inv), labels=labels, name=name)


def reference_check_homomorphism(source, target, m) -> None:
    """The check Homomorphism made on every pair of source elements; raises
    NotHomomorphism with the same messages."""
    m = tuple(m)
    if len(m) != source.order:
        raise NotHomomorphism(
            f"map has length {len(m)}, expected {source.order}")
    for a, x in enumerate(m):
        if not 0 <= x < target.order:
            raise NotHomomorphism(f"map[{a}] = {x} out of range")
    if m[0] != 0:
        raise NotHomomorphism("identity is not sent to identity")
    s, t = source.table, target.table
    for a in range(source.order):
        ma = m[a]
        for b in range(source.order):
            if m[s[a][b]] != t[ma][m[b]]:
                raise NotHomomorphism(f"map({a}*{b}) != map({a})*map({b})")


def reference_check_crossed_module(cm) -> ValidationReport:
    """Itemized report: theta well-formed and a homomorphism, then C1 and C2."""
    items: list[CheckItem] = []
    b, dg = cm.b, cm.d_group
    wired = (cm.d.source == b and cm.d.target == dg
             and len(cm.theta) == dg.order)
    items.append(CheckItem("wiring", wired))
    if not wired:
        return ValidationReport(tuple(items))
    perms_ok = True
    detail = ""
    every = set(b.elements())
    for g, perm in enumerate(cm.theta):
        if len(perm) != b.order or set(perm) != every or perm[0] != 0:
            perms_ok = False
            detail = f"theta[{g}] is not a permutation fixing the identity"
            break
        for x in b.elements():
            for y in b.elements():
                if perm[b.mul(x, y)] != b.mul(perm[x], perm[y]):
                    perms_ok = False
                    detail = f"theta[{g}] is not an automorphism at ({x}, {y})"
                    break
            if not perms_ok:
                break
        if not perms_ok:
            break
    items.append(CheckItem("theta_automorphisms", perms_ok, detail))
    if not perms_ok:
        return ValidationReport(tuple(items))
    hom_ok, detail = True, ""
    for g in dg.elements():
        for h in dg.elements():
            gh = dg.mul(g, h)
            for x in b.elements():
                if cm.theta[gh][x] != cm.theta[g][cm.theta[h][x]]:
                    hom_ok, detail = False, f"theta[{g}]theta[{h}] != theta[{g}*{h}]"
                    break
            if not hom_ok:
                break
        if not hom_ok:
            break
    items.append(CheckItem("theta_homomorphism", hom_ok, detail))
    c1_ok, detail = True, ""
    for x in b.elements():
        perm = cm.theta[cm.d.map[x]]
        for y in b.elements():
            if perm[y] != b.conjugate(x, y):
                c1_ok, detail = False, f"C1 fails at x={x}, y={y}"
                break
        if not c1_ok:
            break
    items.append(CheckItem("axiom_c1", c1_ok, detail))
    c2_ok, detail = True, ""
    for g in dg.elements():
        for x in b.elements():
            if cm.d.map[cm.theta[g][x]] != dg.conjugate(g, cm.d.map[x]):
                c2_ok, detail = False, f"C2 fails at g={g}, x={x}"
                break
        if not c2_ok:
            break
    items.append(CheckItem("axiom_c2", c2_ok, detail))
    return ValidationReport(tuple(items))


def reference_generating_set(g, start=()) -> tuple[int, ...]:
    """Greedy small generating set: starting from `start`, repeatedly adjoin
    the least missing element."""
    gens = list(start)
    closed = subgroup_closure(g, gens)
    while closed.order < g.order:
        inside = set(closed.members)
        gens.append(min(a for a in g.elements() if a not in inside))
        closed = subgroup_closure(g, gens)
    return tuple(gens)

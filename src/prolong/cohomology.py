"""Normalized inhomogeneous cochains of a finite group with abelian coefficients.

Cochains are dense tables Pi0^n -> A (A-indices) that vanish whenever an
argument is the identity.  The coefficient group is decomposed once into
cyclic factors by a Smith normal form of its own presentation; every decision
procedure (coboundary solving, H^n) is then exact integer linear algebra, or
linear algebra over GF(p) where the coefficients are (Z/p)^r.

Sign convention, fixed throughout:

    (d c)(x1, ..., x_{n+1}) = x1 . c(x2, ..., x_{n+1})
                              + sum_i (-1)^i c(..., x_i x_{i+1}, ...)
                              + (-1)^{n+1} c(x1, ..., x_n)

so in degree 1, (d t)(x, y) = x.t_y - t_{xy} + t_x, and in degree 2,
(d h)(x, y, z) = x.h(y, z) - h(xy, z) + h(x, yz) - h(x, y).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import isqrt, lcm, prod
from operator import mod, mul

from .errors import (
    DegreeOutOfRange,
    NotAbelian,
    NotCocycle,
    NotHomomorphism,
    NotNormalized,
    SizeBoundExceeded,
    certify,
)
from .groups import FiniteGroup, Homomorphism
from .record import Record, assign
from . import snf

MAX_DEGREE = 4
MAX_COMPLEX_CELLS = 4096   # |Pi0|^n * max(rank A, 1) of the degree-n cochains


# ---------------------------------------------------------------------------
# Coefficient decomposition
# ---------------------------------------------------------------------------

class AbelianStructure(Record, eq=False):
    """A fixed isomorphism of an abelian group with a product of cyclic groups.

    factors are the invariant factors > 1 in divisibility order; vec/element
    translate between element indices and coordinate tuples mod the factors.
    """

    __slots__ = ("group", "factors", "_to_vec", "_index")

    def __init__(self, group: FiniteGroup, factors: tuple[int, ...],
                 _to_vec: tuple[tuple[int, ...], ...], _index: dict):
        assign(self, "group", group)
        assign(self, "factors", factors)
        assign(self, "_to_vec", _to_vec)
        assign(self, "_index", _index)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def vec(self, a: int) -> tuple[int, ...]:
        return self._to_vec[a]

    def element(self, coords) -> int:
        key = tuple(c % d for c, d in zip(coords, self.factors))
        return self._index[key]


@lru_cache(maxsize=None)
def abelian_structure(a: FiniteGroup) -> AbelianStructure:
    if not a.is_abelian():
        raise NotAbelian("coefficient group must be abelian")
    n = a.order
    if n == 1:
        return AbelianStructure(group=a, factors=(), _to_vec=((),), _index={(): 0})
    gens = a.gens
    # presentation on all n elements: e_x + e_y - e_{x*y} = 0 for y a generator
    rows = []
    for x in a.elements():
        for y in gens:
            row = [0] * n
            row[x] += 1
            row[y] += 1
            row[a.table[x][y]] -= 1
            rows.append(row)
    sf = snf.smith_normal_form(rows, len(rows), n, track="v")
    diag = sf.diagonal()
    certify(len(diag) == n and all(d > 0 for d in diag), "presentation has full rank")
    kept = [i for i, d in enumerate(diag) if d > 1]
    factors = tuple(diag[i] for i in kept)
    certify(prod(factors) == n, "invariant factors must multiply to the order")
    to_vec = tuple(tuple(sf.v[x][i] % diag[i] for i in kept) for x in a.elements())
    index = {v: x for x, v in enumerate(to_vec)}
    certify(len(index) == n, "coordinates fail to separate elements")
    return AbelianStructure(group=a, factors=factors, _to_vec=to_vec, _index=index)


# ---------------------------------------------------------------------------
# Modules and cochains
# ---------------------------------------------------------------------------

class PiModule(Record):
    """A finite abelian group acted on by a finite group, both as tables.

    action[x] is the permutation of coefficient indices implementing x; it is
    checked to be a left action by automorphisms.
    """

    __slots__ = ("pi", "a", "action")

    def __init__(self, pi: FiniteGroup, a: FiniteGroup, action):
        assign(self, "pi", pi)
        assign(self, "a", a)
        assign(self, "action", tuple(tuple(p) for p in action))
        self.__post_init__()

    def __post_init__(self):
        if not self.a.is_abelian():
            raise NotAbelian("coefficients of a module must be abelian")
        if len(self.action) != self.pi.order:
            raise NotHomomorphism("action table must have one entry per group element")
        for x, perm in enumerate(self.action):
            Homomorphism(self.a, self.a, perm)  # validates the map
            if len(set(perm)) != self.a.order:
                raise NotHomomorphism(f"action[{x}] is not bijective")
        if self.action[0] != tuple(range(self.a.order)):
            raise NotHomomorphism("identity must act trivially")
        for x in self.pi.elements():
            for y in self.pi.elements():
                xy = self.pi.mul(x, y)
                for v in self.a.elements():
                    if self.action[xy][v] != self.action[x][self.action[y][v]]:
                        raise NotHomomorphism(
                            f"action[{x}]·action[{y}] != action[{x}*{y}]")


def trivial_module(pi: FiniteGroup, a: FiniteGroup) -> PiModule:
    ident = tuple(range(a.order))
    return PiModule(pi=pi, a=a, action=(ident,) * pi.order)


def pi_module(pi: FiniteGroup, a: FiniteGroup, action=None) -> PiModule:
    if action is None:
        return trivial_module(pi, a)
    return PiModule(pi=pi, a=a, action=tuple(tuple(p) for p in action))


def _flat(npi: int, args: tuple[int, ...]) -> int:
    idx = 0
    for x in args:
        idx = idx * npi + x
    return idx


def free_positions(npi: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Argument tuples a normalized cochain is free on (no identity entries)."""
    return tuple(itertools.product(range(1, npi), repeat=degree))


class Cochain(Record):
    """A normalized n-cochain stored densely in row-major argument order."""

    __slots__ = ("module", "degree", "values")

    def __init__(self, module: PiModule, degree: int, values):
        assign(self, "module", module)
        assign(self, "degree", degree)
        assign(self, "values", tuple(values))
        self.__post_init__()

    def __post_init__(self):
        module, degree, values = self.module, self.degree, self.values
        if not 0 <= degree <= MAX_DEGREE:
            raise DegreeOutOfRange(f"degree {degree} outside 0..{MAX_DEGREE}")
        npi, na = module.pi.order, module.a.order
        if len(values) != npi ** degree:
            raise ValueError("value table has the wrong size")
        # one pass over the values and the identity positions; only a failure
        # walks every position, to name the first bad one
        if (min(values) < 0 or max(values) >= na
                or any(map(values.__getitem__, _identity_flat(npi, degree)))):
            for args, v in zip(itertools.product(range(npi), repeat=degree), values):
                if not 0 <= v < na:
                    raise ValueError(f"value at {args} out of range")
                if 0 in args and v != 0:
                    raise NotNormalized(f"nonzero value at {args}")

    def value(self, args: tuple[int, ...]) -> int:
        return self.values[_flat(self.module.pi.order, args)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def zero_cochain(module: PiModule, degree: int) -> Cochain:
    return Cochain(module, degree, (0,) * module.pi.order ** degree)


def cochain_from_values(module: PiModule, degree: int, assignment) -> Cochain:
    """Build a cochain from a mapping of free argument tuples to A-indices."""
    npi = module.pi.order
    values = [0] * npi ** degree
    for args, v in assignment.items():
        values[_flat(npi, args)] = v
    return Cochain(module, degree, tuple(values))


def cochain_sub(c1: Cochain, c2: Cochain) -> Cochain:
    if c1.module != c2.module or c1.degree != c2.degree:
        raise ValueError("cochains live in different complexes")
    a = c1.module.a
    return Cochain(c1.module, c1.degree,
                   tuple(a.mul(x, a.inv[y]) for x, y in zip(c1.values, c2.values)))


def cochain_add(c1: Cochain, c2: Cochain) -> Cochain:
    if c1.module != c2.module or c1.degree != c2.degree:
        raise ValueError("cochains live in different complexes")
    a = c1.module.a
    return Cochain(c1.module, c1.degree,
                   tuple(a.mul(x, y) for x, y in zip(c1.values, c2.values)))


@lru_cache(maxsize=None)
def _free_flat(npi: int, degree: int) -> tuple[int, ...]:
    """Flat indices of the free positions, in the order of free_positions."""
    flat = [0]
    for _ in range(degree):
        flat = [idx * npi + x for idx in flat for x in range(1, npi)]
    return tuple(flat)


@lru_cache(maxsize=None)
def _identity_flat(npi: int, degree: int) -> tuple[int, ...]:
    """Flat indices of the positions with an identity entry, in order: the
    ones where a normalized cochain vanishes."""
    if degree == 0:
        return ()
    block, inner = npi ** (degree - 1), _identity_flat(npi, degree - 1)
    return (*range(block), *(x * block + idx for x in range(1, npi) for idx in inner))


@lru_cache(maxsize=None)
def _heads(pi: FiniteGroup, n: int) -> tuple:
    """The heads h = t[:n] of the free positions t of degree n + 1, n >= 1,
    in order, one entry each, not one per position: (t0, suffix, own,
    merges, last, row).  In the table of c's values followed by their
    inverses, the terms of d c at t = (h, x) sit at suffix + x (t[1:]),
    merges[j] + x (t_j t_{j+1} merged, j < n - 1) and last + row[x - 1]
    (t_{n-1} x merged; row is pi's row of t_{n-1} from x = 1 on), the
    merges in the inverses where their sign is -1; the prefix h sits at
    own, whose inverse the walk reads for even n.
    """
    npi, table = pi.order, pi.table
    size, rows = npi ** n, [r[1:] for r in table]
    heads = []
    for h in itertools.product(range(1, npi), repeat=n):
        merges = tuple(_flat(npi, h[:j] + (table[h[j]][h[j + 1]],) + h[j + 2:]) * npi
                       + size * (j % 2 == 0) for j in range(n - 1))
        heads.append((h[0], _flat(npi, h[1:]) * npi, _flat(npi, h), merges,
                      _flat(npi, h[:-1]) * npi + size * (n % 2), rows[h[-1]]))
    return tuple(heads)


def _coboundary_values(c: Cochain):
    """d c at the free positions of degree n + 1, head by head in order:
    pairs (start, row), row[x - 1] being the value at flat index start + x.
    d c of a normalized c is normalized, so these are all its possibly
    nonzero values.  Degree 0 has no head: x itself acts on c's one value.
    """
    if c.degree >= MAX_DEGREE:
        raise DegreeOutOfRange(f"cannot take the coboundary of degree {c.degree}")
    module, n, vals = c.module, c.degree, c.values
    npi, action, mul, inv = module.pi.order, module.action, module.a.table, module.a.inv
    if n == 0:
        v = vals[0]
        yield 0, [mul[action[x][v]][inv[v]] for x in range(1, npi)]
        return
    signed = (*vals, *map(inv.__getitem__, vals))
    shift = len(vals) * (n % 2 == 0)    # the prefix has sign (-1)^(n + 1)
    for t0, suffix, own, merges, last, row in _heads(module.pi, n):
        acting, plus = action[t0], mul[signed[own + shift]]
        out = []
        if merges:
            for x, y in enumerate(row, 1):
                acc = mul[plus[acting[signed[suffix + x]]]][signed[last + y]]
                for base in merges:
                    acc = mul[acc][signed[base + x]]
                out.append(acc)
        else:   # degree 1 has no middle merge to walk per position
            for idx, y in enumerate(row, suffix + 1):
                out.append(mul[plus[acting[signed[idx]]]][signed[last + y]])
        yield own * npi, out


def coboundary(c: Cochain) -> Cochain:
    """d c under the sign convention."""
    rows = list(_coboundary_values(c))    # raises past MAX_DEGREE before out is sized
    npi = c.module.pi.order
    out = [0] * npi ** (c.degree + 1)
    for start, row in rows:
        out[start + 1:start + npi] = row
    return Cochain(c.module, c.degree + 1, out)


def is_cocycle(c: Cochain) -> bool:
    """d c == 0, stopping at the first head with a nonzero value."""
    return not any(any(row) for _, row in _coboundary_values(c))


# ---------------------------------------------------------------------------
# The complex as integer matrices
# ---------------------------------------------------------------------------

def _dimension(module: PiModule, degree: int) -> int:
    """dim C^degree: one coordinate per free position and cyclic factor."""
    return (module.pi.order - 1) ** degree * abelian_structure(module.a).rank


@lru_cache(maxsize=None)
def _delta_matrix(module: PiModule, degree: int):
    """Sparse rows of d: C^degree -> C^{degree+1} on free-position
    coordinates, and the column count.

    Read off the sign convention row by row: the rows at output position
    (x1, ..., x_{n+1}) collect x1 . c(x2, ...) through the action on the unit
    coordinates, (-1)^i c(..., x_i x_{i+1}, ...) where the merged tuple has
    no identity entry (a normalized cochain vanishes there), and
    (-1)^{n+1} c(x1, ..., x_n).  Each row is a list of (column, coefficient)
    pairs, one per term, so a column may repeat; the row's entries are the
    sums of its coefficients, read modulo the invariant factor of the row's
    coordinate.  Free positions are indexed by flat arithmetic in base
    m = |Pi0| - 1: the suffix of output position idx sits at idx % m**n,
    its prefix at idx // m.
    """
    struct = abelian_structure(module.a)
    r = struct.rank
    npi = module.pi.order
    table = module.pi.table
    n, m = degree, npi - 1
    size = m ** n
    units = [struct.element(tuple(1 if t == k else 0 for t in range(r))) for k in range(r)]
    # acting[x][kk]: the nonzero (k, coordinate kk of x . e_k)
    acting = []
    for x in range(npi):
        acted = [struct.vec(module.action[x][e]) for e in units]
        acting.append([[(k, image[kk]) for k, image in enumerate(acted) if image[kk]]
                       for kk in range(r)])
    # (j, m**(n + 1 - j), m**(n - 1 - j), sign of the merged term)
    merges = [(j, m ** (n + 1 - j), m ** (n - 1 - j), (-1) ** (j + 1)) for j in range(n)]
    last = (-1) ** (n + 1)
    rows = []
    for idx, t in enumerate(itertools.product(range(1, npi), repeat=n + 1)):
        terms = [(idx // m * r, last)]
        for j, high, low, sign in merges:
            merged = table[t[j]][t[j + 1]]
            if merged:
                terms.append((((idx // high * m + merged - 1) * low + idx % low) * r, sign))
        suffix = idx % size * r
        for kk, acts in enumerate(acting[t[0]]):
            rows.append([(suffix + k, c) for k, c in acts]
                        + [(col + kk, sign) for col, sign in terms])
    return rows, size * r


def _scatter(module: PiModule, degree: int, width: int) -> list[list[int]]:
    """The rows of d_degree as dense integer rows of the given width (at
    least its column count), each reduced modulo its coordinate's factor.
    Only the integer Smith forms need this; ranks mod p read the pairs."""
    factors = abelian_structure(module.a).factors
    r = len(factors)
    sparse, _ = _delta_matrix(module, degree)
    dense = []
    for i, pairs in enumerate(sparse):
        row = [0] * width
        for col, c in pairs:
            row[col] += c
        f = factors[i % r]
        dense.append([x % f for x in row])
    return dense


def _vectorize(c: Cochain) -> list[int]:
    """The free-position coordinates of c, as the rows of d are indexed."""
    vec = abelian_structure(c.module.a).vec
    return list(itertools.chain.from_iterable(
        map(vec, map(c.values.__getitem__, _free_flat(c.module.pi.order, c.degree)))))


def _devectorize(module: PiModule, degree: int, vec: list[int]) -> Cochain:
    """The cochain with free-position coordinates vec, each read mod its factor."""
    struct = abelian_structure(module.a)
    npi = module.pi.order
    coords = map(mod, vec, itertools.cycle(struct.factors))
    values = [0] * npi ** degree
    for idx, a in zip(_free_flat(npi, degree),
                      map(struct._index.__getitem__, zip(*[coords] * struct.rank))):
        values[idx] = a
    return Cochain(module, degree, values)


def _with_moduli(module: PiModule, degree: int):
    """[d_degree | diag(moduli)]: d v == 0 modulo the coefficient moduli
    exactly when (v, w) lies in its integer kernel for some w."""
    factors = abelian_structure(module.a).factors
    rows, cols = _dimension(module, degree + 1), _dimension(module, degree)
    aug = _scatter(module, degree, cols + rows)
    for i, row in enumerate(aug):
        row[cols + i] = factors[i % len(factors)]
    return aug, rows, cols + rows


@lru_cache(maxsize=None)
def _bit_packer(module: PiModule, degree: int):
    """For coefficients (Z/2)^r: the function that packs a cochain of this
    degree into one int with _vectorize(c)[i] at bit i, as _bit_planes
    packs a row.

    digits[a] is the bit string of A-element a's coordinates and order the
    flat indices of the free positions, both last first, so that int(..., 2)
    of the digits is the packed cochain.
    """
    struct = abelian_structure(module.a)
    digits = tuple("".join(map(str, reversed(struct.vec(a)))) for a in module.a.elements())
    order = _free_flat(module.pi.order, degree)[::-1]

    def pack(c: Cochain) -> int:
        return int("".join([digits[v] for v in map(c.values.__getitem__, order)]), 2)
    return pack


class _CoboundaryMap(Record, eq=False):
    """The rows T y, each reduced mod its f_j, of the solution y of
    D y = u b, read off a Smith form u a v = D with every d_i > 0, for the
    vector b = _vectorize(c) of a cochain c.

    With L = lcm(d_i), checks holds the rows y_i = u_i mod d_i with d_i > 1:
    y is integral exactly when y_i b == 0 mod d_i for each.  witness holds
    the rows M_j = sum_i T[j, i] (L / d_i) u_i mod L f_j, and
    (M_j b mod L f_j) // L is (T y)_j mod f_j.

    _coboundary_map reads the is_coboundary queries in degree n = degree + 1
    from a = [d_{n-1} | moduli], with T the rows of v that give C^{n-1}
    coordinates and f_j their factors: the output is the witness, the
    canonical solution v y of the integer solve reduced mod f_j.  Its map
    keeps in cocycles the generators of the cocycle lattice of degree
    n - 1, read from the same v.  _integer_lattice reads the class
    coordinates of every A from a = the cocycle-lattice generators, with T
    the rows of the quotient's u that give coordinates and f_j the
    invariant factors, so that its checks decide whether c is a cocycle.
    For p = 2 (coefficients (Z/2)^r, so every d_i divides 2 and every f_j
    is 2) a check row is an int packed as pack packs b, and a witness row is
    the pair of bit planes (low, high) of M_j; otherwise check rows are
    (y_i, d_i), witness rows (M_j, L f_j), as lists, and pack is _vectorize.
    """

    __slots__ = ("p", "lcm", "checks", "witness", "pack", "cocycles")

    def __init__(self, p: int | None, lcm: int, checks: tuple, witness: tuple, pack,
                 cocycles: list | None = None):
        assign(self, "p", p)
        assign(self, "lcm", lcm)
        assign(self, "checks", checks)
        assign(self, "witness", witness)
        assign(self, "pack", pack)
        assign(self, "cocycles", cocycles)

    @property
    def index(self) -> int:
        """prod d_i over the check rows, the order of the group they map
        into."""
        return 2 ** len(self.checks) if self.p == 2 else prod(d for _, d in self.checks)

    def accepts(self, cochains, factors) -> bool:
        """solve answers each of the cochains, and for list rows every check
        row has y_k f_k == 0 mod d_i at each coordinate k of factor f_k (the
        moduli columns), so that the rows vanish on the cochains' integer
        vectors, not only on the reduced ones solve reads.  For (Z/2)^r the
        clause holds by construction."""
        if self.p != 2 and any(y_k * f % d for y, d in self.checks
                               for y_k, f in zip(y, itertools.cycle(factors))):
            return False
        return all(self.solve(c) is not None for c in cochains)

    def solve(self, c: Cochain) -> list[int] | None:
        """The outputs for c, or None when a check row fails, which
        certifies that D y = u b has no integer solution."""
        b, lcm = self.pack(c), self.lcm
        if self.p == 2:
            for y in self.checks:     # a plain loop: any() over a generator costs more
                if (y & b).bit_count() & 1:
                    return None
            return [((low & b).bit_count() + 2 * (high & b).bit_count()) % (2 * lcm) // lcm
                    for low, high in self.witness]
        if any(sum(map(mul, y, b)) % d for y, d in self.checks):
            return None
        return [sum(map(mul, row, b)) % m // lcm for row, m in self.witness]


def _bit_planes(row: list[int]) -> tuple[int, int]:
    """(low, high): bits 0 and 1 of the entries of row, packed."""
    low = high = 0
    for k in itertools.compress(range(len(row)), row):
        if row[k] & 1:
            low |= 1 << k
        if row[k] & 2:
            high |= 1 << k
    return low, high


def _read_map(u: list[list[int]], diag: list[int], t_rows, moduli,
              module: PiModule, degree: int, cocycles: list | None = None) -> _CoboundaryMap:
    """The _CoboundaryMap of the Smith form with square u and positive
    diagonal diag, for the output rows t_rows of T and their moduli, read
    on cochains of module in the given degree.  Each t_row is read only at
    the indices of u's rows.  The rows are built as lists from sparse rows
    of u; for (Z/2)^r they are then packed (_bit_planes)."""
    n = len(u)
    lcm_d = lcm(*diag)
    scale = [lcm_d // d for d in diag]
    checks = [([x % d for x in row], d) for row, d in zip(u, diag) if d > 1]
    sparse = [[(k, row[k]) for k in itertools.compress(range(n), row)] for row in u]
    witness = []
    for t_row, f in zip(t_rows, moduli):
        m = lcm_d * f
        acc = [0] * n
        for i in itertools.compress(range(n), t_row):
            c = t_row[i] * scale[i] % m
            if c:
                for k, x in sparse[i]:
                    acc[k] += c * x
        witness.append(([x % m for x in acc], m))
    p = _elementary_prime(abelian_structure(module.a))
    if p == 2:
        return _CoboundaryMap(p=p, lcm=lcm_d, checks=tuple(_bit_planes(y)[0] for y, _ in checks),
                              witness=tuple(_bit_planes(row) for row, _ in witness),
                              pack=_bit_packer(module, degree), cocycles=cocycles)
    return _CoboundaryMap(p=p, lcm=lcm_d, checks=tuple(checks), witness=tuple(witness),
                          pack=_vectorize, cocycles=cocycles)


@lru_cache(maxsize=None)
def _coboundary_map(module: PiModule, degree: int) -> _CoboundaryMap:
    """The check and witness rows of every is_coboundary query in degree
    degree + 1, and the generators of the cocycle lattice of this degree,
    read from one Smith form u [d_degree | moduli] v = D, which is then
    dropped.

    The moduli columns give the matrix full row rank, so the integer
    kernel is spanned by v's last dim C^degree columns, and the cocycle
    lattice by their first dim C^degree entries: only those rows of v are
    kept.  Certified once, with certify so that python -O keeps it: the
    map accepts the coboundaries of the unit cochains of this degree,
    computed from the group tables and not from d_degree, so every check
    row vanishes mod its d_i on every column of [d_degree | moduli] and a
    failing one is a dual certificate for a None answer.  The witness rows
    are certified by each witness they give (is_coboundary).
    """
    factors = abelian_structure(module.a).factors
    rows, cols = _dimension(module, degree + 1), _dimension(module, degree)
    sf = snf.smith_normal_form(*_with_moduli(module, degree), track="uv", v_rows=cols)
    diag = sf.diagonal()
    certify(all(diag), "[d | moduli] must have full row rank")
    cmap = _read_map(sf.u, diag, sf.v, itertools.cycle(factors), module, degree + 1,
                     cocycles=[row[rows:] for row in sf.v])
    units = (coboundary(_devectorize(module, degree, [0] * j + [1] + [0] * (cols - 1 - j)))
             for j in range(cols))
    certify(cmap.accepts(units, factors),
            "check rows must vanish on every column of [d | moduli]")
    return cmap


def is_coboundary(c: Cochain) -> Cochain | None:
    """A witness t with d t == c, or None.

    The witness is the canonical solution of the integer linear system over
    the cyclic decomposition of the coefficients, read through the check and
    witness rows of one _CoboundaryMap cached per module and degree: no
    factorization and no integer solve per query.  A None answer rests on a
    check row certified when the map was built; a witness is certified by
    computing its coboundary from the group tables at the free positions.
    """
    if not 1 <= c.degree <= 3:
        raise DegreeOutOfRange("coboundary witnesses exist for degrees 1..3 only")
    module = c.module
    struct = abelian_structure(module.a)
    npi = module.pi.order
    if struct.rank == 0 or npi == 1:
        witness = zero_cochain(module, c.degree - 1)
        return witness if c.is_zero() else None
    sol = _coboundary_map(module, c.degree - 1).solve(c)
    if sol is None:
        return None
    witness = _devectorize(module, c.degree - 1, sol)
    # c and d(witness) are normalized, so they agree where the free values do
    values = list(c.values)
    certify(all(values[start + 1:start + npi] == row
                for start, row in _coboundary_values(witness)),
            "witness must bound the cocycle")
    return witness


def same_class(c1: Cochain, c2: Cochain) -> bool:
    if c1.module != c2.module or c1.degree != c2.degree:
        raise ValueError("cochains live in different complexes")
    for c in (c1, c2):
        if not is_cocycle(c):
            raise NotCocycle("same_class compares cocycles only")
    return is_coboundary(cochain_sub(c1, c2)) is not None


# ---------------------------------------------------------------------------
# Cohomology groups
# ---------------------------------------------------------------------------

class _Lattice(Record, eq=False):
    """The exact integer presentation of one H^n: basis cocycles and the
    map a coordinates query reads.

    to_coords is the _CoboundaryMap of the Smith form u G v = D of the
    cocycle-lattice generators G, whose outputs are a cocycle's coordinates
    in the basis.  Its check rows hold exactly when the cochain's vector
    lies in the cocycle lattice, that is when the cochain is a cocycle, so
    a query is one pass over its rows: no factorization and no is_cocycle
    walk.  For (Z/2)^r coefficients the rows are packed as _read_map packs
    them.
    """

    __slots__ = ("invariant_factors", "basis", "to_coords")

    def __init__(self, invariant_factors: tuple[int, ...], basis: tuple[Cochain, ...],
                 to_coords: _CoboundaryMap):
        assign(self, "invariant_factors", invariant_factors)
        assign(self, "basis", basis)
        assign(self, "to_coords", to_coords)


class CohomologyGroup(Record, eq=False,
                      shown=("module", "degree", "invariant_factors")):
    """H^degree with invariant factors, basis cocycles, and coordinates.

    coordinates(c) expresses the class of a cocycle c with respect to basis;
    distinct coordinate tuples are non-cohomologous classes.  The invariant
    factors are known on construction.  The exact lattice behind basis,
    coordinates and from_coordinates sits in the mutable slot _lattice,
    filled on first use when cohomology_group decided the factors by ranks.
    For every coefficient group with classes, coordinates reads the
    lattice's map: its check rows decide that c is a cocycle (raising
    NotCocycle when one fails) and its coordinate rows give the class.
    When H^n = 0, coordinates walks is_cocycle and builds no lattice.
    """

    __slots__ = ("module", "degree", "invariant_factors", "_lattice")

    def __init__(self, module: PiModule, degree: int, invariant_factors: tuple[int, ...],
                 _lattice: _Lattice | None = None):
        assign(self, "module", module)
        assign(self, "degree", degree)
        assign(self, "invariant_factors", invariant_factors)
        assign(self, "_lattice", _lattice)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def _exact(self) -> _Lattice:
        if self._lattice is None:
            lattice = _integer_lattice(self.module, self.degree)
            certify(lattice.invariant_factors == self.invariant_factors,
                    "the integer lattice must have the invariant factors of the ranks")
            assign(self, "_lattice", lattice)
        return self._lattice

    @property
    def basis(self) -> tuple[Cochain, ...]:
        return self._exact().basis if self.invariant_factors else ()

    def coordinates(self, c: Cochain) -> tuple[int, ...]:
        if c.module != self.module or c.degree != self.degree:
            raise ValueError("cochain lives in a different complex")
        if self.invariant_factors:
            coords = self._exact().to_coords.solve(c)
        else:
            coords = () if is_cocycle(c) else None
        if coords is None:
            raise NotCocycle("only cocycles have class coordinates")
        return tuple(coords)

    def from_coordinates(self, coords) -> Cochain:
        """The basis combination sum_k coords[k] * basis[k]."""
        coords = tuple(coords)
        if len(coords) != len(self.invariant_factors):
            raise ValueError("coordinate tuple has the wrong length")
        coords = tuple(c % d for c, d in zip(coords, self.invariant_factors))
        a = self.module.a
        basis = self.basis
        values = []
        for idx in range(self.module.pi.order ** self.degree):
            acc = 0
            for coeff, b in zip(coords, basis):
                v = b.values[idx]
                for _ in range(coeff):
                    acc = a.mul(acc, v)
            values.append(acc)
        return Cochain(self.module, self.degree, tuple(values))


def _elementary_prime(struct: AbelianStructure) -> int | None:
    """p when the coefficients are (Z/p)^r for a prime p and r > 0, else None."""
    if not struct.factors:
        return None
    p = struct.factors[0]
    if any(f != p for f in struct.factors) or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        return None
    return p


@lru_cache(maxsize=None)
def _delta_rank(module: PiModule, degree: int) -> int:
    """Rank of d_degree over GF(p) for coefficients (Z/p)^r, cached so that
    H^degree and H^(degree + 1) of one module share it."""
    return snf.rank_mod_p(*_delta_matrix(module, degree),
                          abelian_structure(module.a).factors[0])


@lru_cache(maxsize=None)
def cohomology_group(degree: int, module: PiModule) -> CohomologyGroup:
    """H^degree = ker d / im d, with its invariant factors decided exactly.

    When the coefficients are (Z/p)^r for a prime p, every cochain group is
    a GF(p) vector space, so H^n = (Z/p)^dim with dim = dim C^n - rank d_n -
    rank d_(n-1), and the integer lattice waits for the first basis or
    coordinates request.  Any other coefficients get the lattice at once.
    Deterministic for fixed inputs.
    """
    if not 1 <= degree <= 3:
        raise DegreeOutOfRange("cohomology is computed in degrees 1..3")
    struct = abelian_structure(module.a)
    r = struct.rank
    npi = module.pi.order
    cells = npi ** degree * max(r, 1)
    if cells > MAX_COMPLEX_CELLS:
        raise SizeBoundExceeded(
            f"complex size {cells} exceeds MAX_COMPLEX_CELLS = {MAX_COMPLEX_CELLS}")
    if r == 0 or npi == 1:
        return CohomologyGroup(module=module, degree=degree, invariant_factors=())
    p = _elementary_prime(struct)
    if p is None:
        lattice = _integer_lattice(module, degree)
        return CohomologyGroup(module=module, degree=degree,
                               invariant_factors=lattice.invariant_factors,
                               _lattice=lattice)
    dim = (_dimension(module, degree) - _delta_rank(module, degree)
           - _delta_rank(module, degree - 1))
    return CohomologyGroup(module=module, degree=degree, invariant_factors=(p,) * dim)


def _integer_lattice(module: PiModule, degree: int) -> _Lattice:
    """H^degree by integer Smith normal form, for a module with npi > 1 and r > 0.

    Takes the cocycle lattice K from the generators _coboundary_map read
    off [d_degree | moduli], expresses the columns of [d_(degree-1) |
    moduli] (the coboundary image plus the coefficient moduli) in
    K-coordinates and reads invariant factors and basis representatives
    off the diagonalization of that.  Deterministic for fixed inputs.

    The coordinate map is read off the Smith form u G v = D of K's
    generators and certified once, with certify so that python -O keeps it:
    it accepts every generator read as a cochain, so a failing check row
    proves that a cochain is no cocycle, and the D_i of the check rows
    multiply to |C^n : Z^n|, counted apart from G (p^rank d_n for (Z/p)^r,
    else |C^(n+1)| over the diagonal product of [d_n | moduli]).  Rows of
    the unimodular u that meet both cut out K itself, so every cocycle
    passes them.
    """
    struct = abelian_structure(module.a)
    p = _elementary_prime(struct)
    n_unknowns = _dimension(module, degree)
    # the basis K = u^-1 D = G v of the cocycle lattice from the Smith form
    # u G v = D of its generators, which then puts B in K-coordinates:
    # K^-1 b = D^-1 u b
    cmap = _coboundary_map(module, degree)
    gens = cmap.cocycles
    g_form = snf.smith_normal_form(gens, n_unknowns, n_unknowns, track="uU")
    k_diag = g_form.diagonal()
    certify(all(k_diag), "cocycle lattice must have full rank")
    k_basis = [[x * d for x, d in zip(row, k_diag)] for row in g_form.u_inv]
    # the coboundary image plus the moduli, [d_(n-1) | moduli], in K-coordinates
    q_cols = []
    for b in zip(*_with_moduli(module, degree - 1)[0]):
        ub = snf.matvec(g_form.u, b)
        certify(not any(x % d for x, d in zip(ub, k_diag)),
                "coboundaries must lie in the cocycle lattice")
        q_cols.append([x // d for x, d in zip(ub, k_diag)])
    q = [[col[i] for col in q_cols] for i in range(n_unknowns)]
    sf = snf.smith_normal_form(q, n_unknowns, len(q_cols), track="uU")
    diag = sf.diagonal()
    certify(len(diag) == n_unknowns and all(d > 0 for d in diag),
            "cocycle quotient presentation must have full rank")
    kept = tuple(i for i, d in enumerate(diag) if d > 1)
    factors = tuple(diag[i] for i in kept)
    new_basis = snf.matmul(k_basis, sf.u_inv)
    basis = []
    for i in kept:
        rep = _devectorize(module, degree, [row[i] for row in new_basis])
        certify(is_cocycle(rep), "class representative must be a cocycle")
        basis.append(rep)
    to_coords = _read_map(g_form.u, k_diag, [sf.u[i] for i in kept], list(factors),
                          module, degree)
    # |C^n : Z^n| = |B^(n+1)|, and |C^(n+1) : B^(n+1)| = cmap.index
    index = (p ** _delta_rank(module, degree) if p is not None else
             module.a.order ** (module.pi.order - 1) ** (degree + 1) // cmap.index)
    generators = (_devectorize(module, degree, col) for col in zip(*gens))
    certify(to_coords.accepts(generators, struct.factors),
            "check rows must vanish on every generator of the cocycle lattice")
    certify(to_coords.index == index, "check rows must number the index of the cocycles")
    return _Lattice(invariant_factors=factors, basis=tuple(basis), to_coords=to_coords)

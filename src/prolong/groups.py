"""Finite groups as dense Cayley tables, with the identity pinned at index 0.

Everything downstream works with element indices.  Every structural check is
exact; associativity and the homomorphism property are proved on a generating
set (Light's test, and the check on generators), and only a failing check
reruns the full loop to name its first failing element.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod

from .errors import (
    IdentityNotAtZero,
    ImageNotNormal,
    MalformedTable,
    MissingInverse,
    NotAssociative,
    NotHomomorphism,
    NotLatinSquare,
    NotNormal,
    NotSubgroup,
    OrderBoundExceeded,
    SearchBoundExceeded,
)
from .record import Record, assign

MAX_AUT_ORDER = 24            # order of a group whose automorphisms are listed
MAX_HOM_CANDIDATES = 500000   # product of the candidate image lists
SUBGROUP_MAX_GENS = 3         # exhaustive for every group of order <= 15


class FiniteGroup(Record, init=("order", "table", "inv", "labels", "name"),
                  compare=("order", "table", "inv")):
    """A finite group on elements 0..order-1 given by its multiplication table.

    table[a][b] is the index of a*b; index 0 is the identity.  Build instances
    through validate_group, which checks all axioms exactly, or where a
    checked theorem proves them (obstruction.crossed_product).  gens is the
    greedy generating set of generating_set(g), always derived from the table,
    on which the associativity and homomorphism checks rely.  Equality reads
    the order and the tables, not the labels or the name.
    """

    __slots__ = ("order", "table", "inv", "labels", "name", "gens")

    def __init__(self, order: int, table, inv, labels=None, name: str = ""):
        assign(self, "order", order)
        assign(self, "table", tuple(tuple(row) for row in table))
        assign(self, "inv", tuple(inv))
        assign(self, "labels", None if labels is None else tuple(str(x) for x in labels))
        assign(self, "name", name)
        self.__post_init__()

    def __post_init__(self):
        assign(self, "gens", _greedy_generators(self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conjugate(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        return self.table[self.table[g][a]][self.inv[g]]

    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def order_profile(self) -> tuple[int, ...]:
        """Sorted multiset of element orders; an isomorphism invariant."""
        return tuple(sorted(self.element_order(a) for a in self.elements()))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or f'order {self.order}'})"


def _greedy_generators(rows, start=()) -> tuple[int, ...]:
    """A generating set of a finite magma with identity 0, read off its rows.

    Adjoins the elements of `start`, then repeatedly the least element not yet
    reached; after each one the reached set, which starts at {0}, is closed
    under right multiplication by the elements adjoined so far.  Every element
    is thus a left-normed product of the result.  In a group the reached set
    is the subgroup the adjoined elements generate.
    """
    n = len(rows)
    reached = [True] + [False] * (n - 1)
    members = [0]
    gens: list[int] = []

    def adjoin(s):
        gens.append(s)
        stack = [rows[m][s] for m in members]
        while stack:
            x = stack.pop()
            if not reached[x]:
                reached[x] = True
                members.append(x)
                stack.extend([rows[x][t] for t in gens])

    for s in start:
        adjoin(s)
    for s in range(n):
        if not reached[s]:
            adjoin(s)
    return tuple(gens)


def validate_group(table, labels=None, name: str = "") -> FiniteGroup:
    """Validate a Cayley table exactly and return the group.

    The identity must already sit at index 0; inverses are computed here.
    The group is built once the table is a Latin square, and its gens are
    the S of Light's test: with S generating the table under products,
    (x*s)*y = x*(s*y) for all x, y and every s in S implies it for every s,
    because the elements that pass are closed under products.  Only a failing
    test runs the full loop, which names the first failing triple.
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
    inv = [row.index(0) for row in rows]
    g = FiniteGroup(order=n, table=rows, inv=inv, labels=labels, name=name)
    if not all(rows[rx[s]] == [rx[v] for v in rows[s]]
               for s in g.gens for rx in rows):
        for a in range(n):
            ra = rows[a]
            for b in range(n):
                rab = rows[ra[b]]
                rb = rows[b]
                for c in range(n):
                    if rab[c] != ra[rb[c]]:
                        raise NotAssociative((a, b, c))
    for a in range(n):
        if rows[inv[a]][a] != 0:
            raise MissingInverse(f"element {a} has no two-sided inverse")
    return g


class Homomorphism(Record):
    """A total map between groups preserving the operation (checked eagerly).

    With map(0) = 0, map(a*s) = map(a)*map(s) for all a and every s in
    source.gens proves it for all pairs: the elements s that pass are closed
    under products.  Only a failing check runs the full loop, which names the
    first failing pair.
    """

    __slots__ = ("source", "target", "map")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, map):
        assign(self, "source", source)
        assign(self, "target", target)
        assign(self, "map", tuple(map))
        self.__post_init__()

    def __post_init__(self):
        m = self.map
        if len(m) != self.source.order:
            raise NotHomomorphism(
                f"map has length {len(m)}, expected {self.source.order}")
        for a, x in enumerate(m):
            if not 0 <= x < self.target.order:
                raise NotHomomorphism(f"map[{a}] = {x} out of range")
        if m[0] != 0:
            raise NotHomomorphism("identity is not sent to identity")
        s, t = self.source.table, self.target.table
        if not all([m[row[x]] for row in s] == [t[ma][m[x]] for ma in m]
                   for x in self.source.gens):
            for a in range(self.source.order):
                ma = m[a]
                for b in range(self.source.order):
                    if m[s[a][b]] != t[ma][m[b]]:
                        raise NotHomomorphism(f"map({a}*{b}) != map({a})*map({b})")

    def __call__(self, a: int) -> int:
        return self.map[a]


def identity_hom(g: FiniteGroup) -> Homomorphism:
    return Homomorphism(g, g, tuple(range(g.order)))


def trivial_hom(source: FiniteGroup, target: FiniteGroup) -> Homomorphism:
    return Homomorphism(source, target, (0,) * source.order)


def compose(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    """outer after inner."""
    if inner.target != outer.source:
        raise ValueError("homomorphisms are not composable")
    return Homomorphism(inner.source, outer.target,
                        tuple(outer.map[x] for x in inner.map))


def is_injective(f: Homomorphism) -> bool:
    return len(set(f.map)) == f.source.order


def is_surjective(f: Homomorphism) -> bool:
    return len(set(f.map)) == f.target.order


def is_bijective(f: Homomorphism) -> bool:
    return f.source.order == f.target.order and is_injective(f)


class Subgroup(Record):
    """A sorted, closed set of indices of a parent group, containing 0."""

    __slots__ = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members):
        assign(self, "parent", parent)
        assign(self, "members", tuple(sorted(set(members))))
        self.__post_init__()

    def __post_init__(self):
        members = self.members
        if not members or members[0] != 0:
            raise NotSubgroup("subgroup does not contain the identity")
        inside = set(members)
        for a in members:
            if self.parent.inv[a] not in inside:
                raise NotSubgroup(f"not closed under inverse at {a}")
            for b in members:
                if self.parent.table[a][b] not in inside:
                    raise NotSubgroup(f"not closed under product at ({a}, {b})")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in self.members


def center(g: FiniteGroup) -> Subgroup:
    t = g.table
    members = [z for z in g.elements()
               if all(t[z][a] == t[a][z] for a in g.elements())]
    return Subgroup(g, tuple(members))


def _walk(rows, gens) -> list[tuple[int, int, int]]:
    """Breadth-first walk from 0 under right multiplication by gens.

    Lists every element reached other than 0 once, as (x, m, k) with
    x = m*gens[k] and m either 0 or listed earlier.  Walking 0 first enters
    each generator as (gens[k], 0, k), so a map built as
    f[x] = f[m]*image[k] sends each generator to its own image.  In a finite
    group the elements reached are the subgroup gens generate.
    """
    reached = {0}
    steps = []
    queue = [0]
    for m in queue:
        row = rows[m]
        for k, s in enumerate(gens):
            x = row[s]
            if x not in reached:
                reached.add(x)
                steps.append((x, m, k))
                queue.append(x)
    return steps


def subgroup_closure(g: FiniteGroup, gens) -> Subgroup:
    return Subgroup(g, (0, *(x for x, _, _ in _walk(g.table, gens))))


def is_normal(h: Subgroup) -> bool:
    """Conjugation by each of parent.gens maps h into h.

    The elements whose conjugation maps h into h are closed under products,
    so in a finite group they are all of it once they include the gens.
    """
    g = h.parent
    inside = set(h.members)
    return all(g.conjugate(a, x) in inside for a in g.gens for x in h.members)


class QuotientData(Record):
    """A quotient group together with its projection and coset representatives.

    Cosets are indexed by least representative, the identity coset first, so
    the construction is canonical and reproducible.
    """

    __slots__ = ("parent", "normal", "quotient", "projection", "reps")

    def __init__(self, parent: FiniteGroup, normal: Subgroup, quotient: FiniteGroup,
                 projection: Homomorphism, reps: tuple[int, ...]):
        assign(self, "parent", parent)
        assign(self, "normal", normal)
        assign(self, "quotient", quotient)
        assign(self, "projection", projection)
        assign(self, "reps", reps)


def quotient(g: FiniteGroup, n: Subgroup) -> QuotientData:
    if n.parent != g:
        raise ValueError("subgroup does not belong to the given group")
    if not is_normal(n):
        raise NotNormal("subgroup is not normal")
    coset_of = [-1] * g.order
    reps: list[int] = []
    for a in g.elements():
        if coset_of[a] == -1:
            idx = len(reps)
            reps.append(a)
            for h in n.members:
                coset_of[g.table[a][h]] = idx
    k = len(reps)
    table = [[coset_of[g.table[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    labels = tuple(f"[{g.label(r)}]" for r in reps)
    name = f"{g.name}/" + "{" + ",".join(str(m) for m in n.members) + "}" if g.name else ""
    q = validate_group(table, labels=labels, name=name)
    projection = Homomorphism(g, q, tuple(coset_of))
    return QuotientData(parent=g, normal=n, quotient=q,
                        projection=projection, reps=tuple(reps))


def fibers(f: Homomorphism) -> tuple[tuple[int, ...], ...]:
    """The preimage of each target element under f, in ascending order."""
    out: list[list[int]] = [[] for _ in f.target.elements()]
    for a, x in enumerate(f.map):
        out[x].append(a)
    return tuple(map(tuple, out))


def kernel(f: Homomorphism) -> Subgroup:
    return Subgroup(f.source, tuple(a for a in f.source.elements() if f.map[a] == 0))


def image(f: Homomorphism) -> Subgroup:
    return Subgroup(f.target, tuple(sorted(set(f.map))))


def cokernel(f: Homomorphism) -> QuotientData:
    img = image(f)
    if not is_normal(img):
        raise ImageNotNormal("image is not a normal subgroup of the target")
    return quotient(f.target, img)


def generating_set(g: FiniteGroup, start=()) -> tuple[int, ...]:
    """Greedy small generating set: starting from `start`, repeatedly adjoin
    the least missing element."""
    return _greedy_generators(g.table, start)


def all_homomorphisms(source: FiniteGroup, target: FiniteGroup, *,
                      injective_only: bool = False,
                      fixed: dict[int, int] | None = None) -> tuple[Homomorphism, ...]:
    """All homomorphisms source -> target, one candidate map per choice of
    generator images.

    Each generator's images are the target elements whose order divides its
    own (equals it, when injective_only); every choice in their product is
    extended along the closure walk and kept if it is a homomorphism.
    `fixed` pins the image of some elements in advance (their consistency is
    checked by the final homomorphism validation).  Results are sorted by map
    array, so the enumeration order is deterministic.
    """
    fixed = dict(fixed or {})
    gens = generating_set(source, start=sorted(k for k in fixed if k != 0))
    steps = _walk(source.table, gens)

    candidate_lists: list[list[int]] = []
    for x in gens:
        if x in fixed:
            candidate_lists.append([fixed[x]])
            continue
        ox = source.element_order(x)
        if injective_only:
            cands = [t for t in target.elements() if target.element_order(t) == ox]
        else:
            cands = [t for t in target.elements() if ox % target.element_order(t) == 0]
        candidate_lists.append(cands)

    total = prod(map(len, candidate_lists))
    if total > MAX_HOM_CANDIDATES:
        raise SearchBoundExceeded(f"homomorphism search space {total} exceeds "
                                  f"MAX_HOM_CANDIDATES = {MAX_HOM_CANDIDATES}")

    n = source.order
    t = target.table
    found: list[Homomorphism] = []
    for images in itertools.product(*candidate_lists):
        m = [0] * n
        for x, parent, k in steps:
            m[x] = t[m[parent]][images[k]]
        if injective_only and len(set(m)) != n:
            continue
        try:
            found.append(Homomorphism(source, target, m))
        except NotHomomorphism:
            pass
    found.sort(key=lambda f: f.map)
    return tuple(found)


def automorphism_group(g: FiniteGroup) -> tuple[Homomorphism, ...]:
    """All automorphisms, in lexicographic order of their map arrays."""
    if g.order > MAX_AUT_ORDER:
        raise OrderBoundExceeded(
            f"group order {g.order} exceeds MAX_AUT_ORDER = {MAX_AUT_ORDER}")
    return all_homomorphisms(g, g, injective_only=True)


@lru_cache(maxsize=None)
def automorphism_group_table(g: FiniteGroup):
    """The automorphism group as a FiniteGroup, plus its index-aligned maps.

    Index 0 is the identity automorphism; the product of indices i, j is the
    automorphism a -> aut_i(aut_j(a)).
    """
    auts = automorphism_group(g)
    index = {a.map: i for i, a in enumerate(auts)}
    k = len(auts)
    table = [[index[tuple(auts[i].map[auts[j].map[x]] for x in g.elements())]
              for j in range(k)] for i in range(k)]
    group = validate_group(table, name=f"Aut({g.name})" if g.name else "Aut")
    return group, auts


def inner_automorphism(g: FiniteGroup, b: int) -> Homomorphism:
    return Homomorphism(g, g, tuple(g.conjugate(b, a) for a in g.elements()))


def enumerate_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups generated by at most SUBGROUP_MAX_GENS elements, sorted
    by size: every subgroup of a group of order <= 15 and of every shipped
    fixture.
    """
    seen: set[tuple[int, ...]] = set()
    out: list[Subgroup] = []
    elems = list(g.elements())
    for k in range(SUBGROUP_MAX_GENS + 1):
        for gens in itertools.combinations(elems, k):
            sub = subgroup_closure(g, gens)
            if sub.members not in seen:
                seen.add(sub.members)
                out.append(sub)
    out.sort(key=lambda s: (s.order, s.members))
    return tuple(out)


def subgroup_as_group(sub: Subgroup, name: str = "") -> tuple[FiniteGroup, Homomorphism]:
    """The abstract group of a subgroup plus its inclusion homomorphism."""
    g = sub.parent
    members = sub.members
    pos = {m: i for i, m in enumerate(members)}
    table = [[pos[g.table[a][b]] for b in members] for a in members]
    labels = tuple(g.label(m) for m in members)
    grp = validate_group(table, labels=labels, name=name)
    return grp, Homomorphism(grp, g, members)


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str = "") -> FiniteGroup:
    """Direct product with pairs (a, b) indexed lexicographically."""
    n2 = g2.order
    n = g1.order * n2

    def idx(a, b):
        return a * n2 + b

    table = [[0] * n for _ in range(n)]
    for a1 in g1.elements():
        for b1 in g2.elements():
            i = idx(a1, b1)
            for a2 in g1.elements():
                row1 = g1.table[a1]
                for b2 in g2.elements():
                    table[i][idx(a2, b2)] = idx(row1[a2], g2.table[b1][b2])
    labels = tuple(f"({g1.label(a)},{g2.label(b)})"
                   for a in g1.elements() for b in g2.elements())
    return validate_group(table, labels=labels,
                          name=name or f"{g1.name}x{g2.name}")

"""Short exact sequences, sections and factor sets, pullbacks, and ladders.

A ladder (Prolongation) is a pair of short exact sequences connected by
vertical maps alpha, beta, gamma with commuting squares; the top row is
required to be central, alpha surjective and gamma an injection with normal
image.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .errors import (
    CertificateFailed,
    CheckItem,
    InvalidProlongation,
    MismatchedBase,
    NotExact,
    NotInjective,
    NotSurjective,
    ValidationReport,
    certify,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    QuotientData,
    Subgroup,
    cokernel,
    fibers,
    image,
    is_injective,
    is_normal,
    is_surjective,
    kernel,
    quotient,
    validate_group,
)
from .record import Record, assign


class ShortExtension(Record, init=("j", "p"), compare=("a", "b", "g", "j", "p")):
    """0 -> a -j-> b -p-> g -> 1, exact by construction; a, b and g are read
    off j and p.

    The pair (j, p) is refused, in this order, when j and p are not
    composable (NotExact), j is not injective (NotInjective), p is not onto
    (NotSurjective) or image(j) != kernel(p) (NotExact).
    """

    __slots__ = ("a", "b", "g", "j", "p")

    def __init__(self, j: Homomorphism, p: Homomorphism):
        assign(self, "j", j)
        assign(self, "p", p)
        self.__post_init__()

    def __post_init__(self):
        j, p = self.j, self.p
        if j.target != p.source:
            raise NotExact("j and p are not composable")
        if not is_injective(j):
            raise NotInjective("kernel map is not injective")
        if not is_surjective(p):
            raise NotSurjective("projection is not surjective")
        if set(j.map) != set(kernel(p).members):
            raise NotExact("image(j) != kernel(p)")
        assign(self, "a", j.source)
        assign(self, "b", j.target)
        assign(self, "g", p.target)


def extension_checks(prefix: str) -> tuple[CheckItem, ...]:
    """A row's report items, all passed: a ShortExtension is exact."""
    return tuple(CheckItem(prefix + name, True)
                 for name in ("wiring", "j_injective", "p_surjective", "exact_at_b"))


def make_extension(j: Homomorphism, p: Homomorphism) -> ShortExtension:
    """The exact row of j and p (ShortExtension(j, p))."""
    return ShortExtension(j, p)


def is_central(ext: ShortExtension) -> bool:
    """j(a) commutes with every element of b iff it commutes with b.gens."""
    t = ext.b.table
    return all(t[x][s] == t[s][x] for x in ext.j.map for s in ext.b.gens)


class Section(Record):
    """A set-theoretic section of p, stored as the representative array u."""

    __slots__ = ("ext", "u")

    def __init__(self, ext: ShortExtension, u):
        assign(self, "ext", ext)
        assign(self, "u", tuple(u))
        self.__post_init__()

    def __post_init__(self):
        if self.u[0] != 0:
            raise ValueError("sections must send the identity to the identity")
        for g, b in enumerate(self.u):
            if self.ext.p.map[b] != g:
                raise ValueError(f"u[{g}] = {b} is not in the fiber over {g}")


def choose_section(ext: ShortExtension, rng: random.Random | None = None) -> Section:
    """Least-index representative per fiber; a seeded rng picks random ones.

    u[0] = 0 always, so factor sets built from the section are normalized.
    """
    u = tuple(fiber[0] if g == 0 or rng is None else rng.choice(fiber)
              for g, fiber in enumerate(fibers(ext.p)))
    return Section(ext=ext, u=u)


class FactorSet(Record):
    """f(x, y) = u_x u_y (u_{xy})^-1, translated to kernel-side indices."""

    __slots__ = ("ext", "section", "f")

    def __init__(self, ext: ShortExtension, section: Section, f):
        assign(self, "ext", ext)
        assign(self, "section", section)
        assign(self, "f", tuple(tuple(row) for row in f))


def factor_set(ext: ShortExtension, section: Section) -> FactorSet:
    """The factor set of ext over section.

    Each value lies in image(j) = kernel(p), since a Section puts u_x over x
    for every x.  A value outside it is the program's fault and raises
    CertificateFailed, naming its position.
    """
    if section.ext != ext:
        raise ValueError("section does not belong to this extension")
    b, g = ext.b, ext.g
    j_index = {ext.j.map[a]: a for a in ext.a.elements()}
    u = section.u
    f = []
    for x in g.elements():
        row = []
        for y in g.elements():
            val = b.mul(b.mul(u[x], u[y]), b.inv[u[g.mul(x, y)]])
            if val not in j_index:
                raise CertificateFailed(
                    f"factor set value at ({x}, {y}) must lie in image(j)")
            row.append(j_index[val])
        f.append(tuple(row))
    return FactorSet(ext=ext, section=section, f=tuple(f))


def cocycle_terms(k: FiniteGroup, q: FiniteGroup, act, h, triples=None):
    """Both sides of the cocycle identity act_x(h(y,z)) * h(x,yz) = h(x,y) * h(xy,z).

    h is a 2-cochain q x q -> k as a table and act[x] the map of k by which x
    acts, as an array.  Yields (x, y, z, left, right) for each of the given
    triples, by default every (x, y, z) in lexicographic order; the identity
    holds where left == right.
    """
    kt, qt = k.table, q.table
    if triples is None:
        triples = itertools.product(q.elements(), repeat=3)
    for x, y, z in triples:
        yield (x, y, z, kt[act[x][h[y][z]]][h[x][qt[y][z]]],
               kt[h[x][y]][h[qt[x][y]][z]])


class PullbackExtension(Record):
    """The pulled-back extension along a map into the quotient.

    pairs[i] is the (b, c) pair represented by index i of ext.b; to_base is the
    first projection back to the original middle group.
    """

    __slots__ = ("ext", "to_base", "pairs")

    def __init__(self, ext: ShortExtension, to_base: Homomorphism,
                 pairs: tuple[tuple[int, int], ...]):
        assign(self, "ext", ext)
        assign(self, "to_base", to_base)
        assign(self, "pairs", pairs)


def pullback(ext: ShortExtension, along: Homomorphism) -> PullbackExtension:
    if along.target != ext.g:
        raise MismatchedBase("pullback map must land in the quotient of the extension")
    cprime = along.source
    over = fibers(along)
    pairs = [(b, c) for b in ext.b.elements() for c in over[ext.p.map[b]]]
    index = {pc: i for i, pc in enumerate(pairs)}
    n = len(pairs)
    table = [[0] * n for _ in range(n)]
    for i, (b1, c1) in enumerate(pairs):
        for k, (b2, c2) in enumerate(pairs):
            table[i][k] = index[(ext.b.mul(b1, b2), cprime.mul(c1, c2))]
    labels = tuple(f"({ext.b.label(b)},{cprime.label(c)})" for b, c in pairs)
    bprime = validate_group(table, labels=labels,
                            name=f"{ext.b.name}x_{{{ext.g.name}}}{cprime.name}")
    jprime = Homomorphism(ext.a, bprime,
                          tuple(index[(ext.j.map[a], 0)] for a in ext.a.elements()))
    pprime = Homomorphism(bprime, cprime, tuple(c for _, c in pairs))
    to_base = Homomorphism(bprime, ext.b, tuple(b for b, _ in pairs))
    return PullbackExtension(ext=ShortExtension(jprime, pprime),
                             to_base=to_base, pairs=tuple(pairs))


class Prolongation(Record):
    """The full two-row ladder: e0 on top, e below, joined by alpha/beta/gamma."""

    __slots__ = ("e0", "e", "alpha", "beta", "gamma")

    def __init__(self, e0: ShortExtension, e: ShortExtension, alpha: Homomorphism,
                 beta: Homomorphism, gamma: Homomorphism):
        assign(self, "e0", e0)
        assign(self, "e", e)
        assign(self, "alpha", alpha)
        assign(self, "beta", beta)
        assign(self, "gamma", gamma)


# one object per distinct frame_checks result, shared by every frame that has it
_FRAME_RESULTS: dict = {}


@lru_cache(maxsize=None)
def frame_checks(e0: ShortExtension, alpha: Homomorphism, gamma: Homomorphism
                 ) -> tuple[CheckItem, ...]:
    """The report items that read only the frame, decided once per frame:
    e0_central, alpha_epi, gamma_mono and gamma_image_normal.

    The items name no group, so the frame alone is the cache key, and frames
    with equal items share one result.
    """
    gamma_mono = is_injective(gamma)
    items = (
        CheckItem("e0_central", is_central(e0)),
        CheckItem("alpha_epi", is_surjective(alpha)),
        CheckItem("gamma_mono", gamma_mono),
        CheckItem("gamma_image_normal", is_normal(image(gamma))) if gamma_mono
        else CheckItem("gamma_image_normal", False, "gamma not injective"))
    return _FRAME_RESULTS.setdefault(items, items)


def validate_prolongation(p: Prolongation) -> ValidationReport:
    """Full report of the ladder invariants; never raises.

    Both rows are exact by type, so their items pass; the frame's items come
    from frame_checks, and the squares and kernel(beta) are checked per ladder.
    """
    wired = (p.alpha.source == p.e0.a and p.alpha.target == p.e.a
             and p.beta.source == p.e0.b and p.beta.target == p.e.b
             and p.gamma.source == p.e0.g and p.gamma.target == p.e.g)
    if not wired:
        return ValidationReport((CheckItem("wiring", False),))
    return ValidationReport((CheckItem("wiring", True), *extension_checks("e0_"),
                             *extension_checks("e_"),
                             *frame_checks(p.e0, p.alpha, p.gamma), *ladder_checks(p)))


def ladder_checks(p: Prolongation) -> tuple[CheckItem, ...]:
    """The squares and kernel(beta) = j0(kernel(alpha)), at O(|B0|)."""
    left = all(p.beta.map[p.e0.j.map[a0]] == p.e.j.map[p.alpha.map[a0]]
               for a0 in p.e0.a.elements())
    right = all(p.e.p.map[p.beta.map[b0]] == p.gamma.map[p.e0.p.map[b0]]
                for b0 in p.e0.b.elements())
    ker_beta = set(kernel(p.beta).members)
    j0_ker_alpha = {p.e0.j.map[a0] for a0 in kernel(p.alpha).members}
    return (CheckItem("left_square", left,
                      "" if left else "beta . j0 != j . alpha"),
            CheckItem("right_square", right,
                      "" if right else "p . beta != gamma . p0"),
            CheckItem("kernel_beta", ker_beta == j0_ker_alpha,
                      "" if ker_beta == j0_ker_alpha
                      else "kernel(beta) != j0(kernel(alpha))"))


class InducedSequence(Record, eq=False):
    """The sequence 0 -> E0 -> B -> Pi0 -> 1 induced by a valid ladder.

    E0 = B0 / j0(ker alpha) with eps(b0 + ker) = beta(b0); i and pi form the
    identified top row 0 -> A -> E0 -> G0 -> 0, and coker is the cokernel data
    of gamma with its natural projection sigma.
    """

    __slots__ = ("seq", "eps", "i", "pi", "e0_data", "coker", "top")

    def __init__(self, seq: ShortExtension, eps: Homomorphism, i: Homomorphism,
                 pi: Homomorphism, e0_data: QuotientData, coker: QuotientData,
                 top: ShortExtension):
        assign(self, "seq", seq)
        assign(self, "eps", eps)
        assign(self, "i", i)
        assign(self, "pi", pi)
        assign(self, "e0_data", e0_data)
        assign(self, "coker", coker)
        assign(self, "top", top)


def group_tags(*homs: Homomorphism) -> tuple:
    """Names and labels of the groups at both ends of homs.

    FiniteGroup equality ignores both, so a cache keyed on groups alone would
    hand an input the names of an earlier, equal one; the caches here and in
    `obstruction.derive` carry these tags in their keys.
    """
    return tuple((g.name, g.labels) for h in homs for g in (h.source, h.target))


def e0_quotient(e0: ShortExtension, alpha: Homomorphism
                ) -> tuple[QuotientData, ShortExtension]:
    """E0 = B0 / j0(ker alpha) and the identified row 0 -> A -i-> E0 -pi-> G0 -> 0.

    pi(b0 + ker) = p0(b0) and i(a) is the class of j0(a0) for any a0 over a
    (the least one is taken), so alpha must be onto: every caller has checked
    alpha_epi first.  Built once per (e0, alpha) and group tags, so every
    ladder over one frame shares it.
    """
    return _e0_quotient(e0, alpha, group_tags(e0.j, e0.p, alpha))


@lru_cache(maxsize=None)
def _e0_quotient(e0: ShortExtension, alpha: Homomorphism, tags
                 ) -> tuple[QuotientData, ShortExtension]:
    b0 = e0.b
    ker = Subgroup(b0, tuple(e0.j.map[a0] for a0 in kernel(alpha).members))
    e0_data = quotient(b0, ker)
    pi = Homomorphism(e0_data.quotient, e0.g,
                      tuple(e0.p.map[r] for r in e0_data.reps))
    proj = e0_data.projection.map
    i = Homomorphism(alpha.target, e0_data.quotient,
                     tuple(proj[e0.j.map[over[0]]] for over in fibers(alpha)))
    return e0_data, ShortExtension(i, pi)


def gamma_cokernel(gamma: Homomorphism) -> QuotientData:
    """G / gamma(G0) with its projection sigma, built once per gamma and group tags."""
    return _gamma_cokernel(gamma, group_tags(gamma))


@lru_cache(maxsize=None)
def _gamma_cokernel(gamma: Homomorphism, tags) -> QuotientData:
    return cokernel(gamma)


def induced_sequence(p: Prolongation) -> InducedSequence:
    report = validate_prolongation(p)
    if not report.ok:
        raise InvalidProlongation(report)
    e0_data, top = e0_quotient(p.e0, p.alpha)
    eps = Homomorphism(e0_data.quotient, p.e.b,
                       tuple(p.beta.map[r] for r in e0_data.reps))
    return certify_induced(p, eps, e0_data, top, gamma_cokernel(p.gamma))


def certify_induced(p: Prolongation, eps: Homomorphism, e0_data: QuotientData,
                    top: ShortExtension, coker: QuotientData) -> InducedSequence:
    """The induced sequence of the ladder p, given eps: E0 -> B.

    The one check of eps against the ladder: eps . proj = beta, eps . i = j
    and p . eps = gamma . pi, compared on the raw maps.  The row
    0 -> E0 -eps-> B -> Pi0 -> 1 projects by sigma . p.  A failure is the
    program's fault and raises CertificateFailed.
    """
    e, em = p.e, eps.map
    certify(tuple(em[x] for x in e0_data.projection.map) == p.beta.map,
            "beta must factor through E0")
    certify(tuple(em[a] for a in top.j.map) == e.j.map, "eps . i must equal j")
    certify(tuple(e.p.map[x] for x in em) == tuple(p.gamma.map[g0] for g0 in top.p.map),
            "p . eps must equal gamma . pi")
    sigma = coker.projection.map
    seq = ShortExtension(eps, Homomorphism(e.b, coker.quotient,
                                           tuple(sigma[y] for y in e.p.map)))
    return InducedSequence(seq=seq, eps=eps, i=top.j, pi=top.p,
                           e0_data=e0_data, coker=coker, top=top)

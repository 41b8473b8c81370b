"""Pre-prolongation data, factor-set lifting, the degree-3 obstruction class,
and the crossed-product construction that realizes a covering when it vanishes.

The obstruction cocycle k is materialized inside the (possibly nonabelian)
quotient group E0 and only then transported into the coefficients: both the
left and the right subtraction of the defining relation are computed and
compared, turning the centrality of k into an executable assertion.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .cohomology import (
    Cochain,
    CohomologyGroup,
    cohomology_group,
    is_coboundary,
    is_cocycle,
    PiModule,
)
from .crossed import (
    CrossedModule,
    InducedCrossedModule,
    certify_action,
    check_crossed_module,
    induced_module_action,
    section_action,
)
from .errors import (
    CheckItem,
    ImageNotNormal,
    InvalidCrossedModule,
    MismatchedBase,
    NotCentral,
    NotCentralValue,
    NotCocycle,
    NotInjective,
    NotInKernel,
    NotSurjective,
    ObstructionNonzero,
    PreconditionFailed,
    ProlongError,
    ValidationReport,
    certify,
)
from .extensions import (
    Prolongation,
    ShortExtension,
    certify_induced,
    choose_section,
    cocycle_terms,
    e0_quotient,
    extension_checks,
    factor_set,
    frame_checks,
    gamma_cokernel,
    group_tags,
    ladder_checks,
)
from .groups import FiniteGroup, Homomorphism, QuotientData, compose, fibers
from .record import Record, assign


class PreProlongation(Record, init=("e0", "alpha", "gamma", "theta")):
    """The data (alpha, gamma, theta) over a central row e0.

    theta is indexed by the big quotient group (gamma's target) and acts on
    E0 = B0 / j0(ker alpha) through its canonical coset indexing.
    """

    __slots__ = ("e0", "alpha", "gamma", "theta", "_hash", "_tags")

    def __init__(self, e0: ShortExtension, alpha: Homomorphism, gamma: Homomorphism,
                 theta):
        assign(self, "e0", e0)
        assign(self, "alpha", alpha)
        assign(self, "gamma", gamma)
        assign(self, "theta", tuple(tuple(p) for p in theta))
        self.__post_init__()

    def __post_init__(self):
        # the record hash and derive's group tags, computed once: every
        # derive lookup keys on both
        assign(self, "_hash", hash((self.e0, self.alpha, self.gamma, self.theta)))
        assign(self, "_tags", group_tags(self.e0.j, self.e0.p, self.alpha, self.gamma))

    def __hash__(self) -> int:
        return self._hash

    @property
    def g(self) -> FiniteGroup:
        return self.gamma.target

    @property
    def a(self) -> FiniteGroup:
        return self.alpha.target


class PreDerived(Record, eq=False):
    """Everything derived from a pre-prolongation, computed once and cached."""

    __slots__ = ("pre", "e0_data", "e0", "pi", "i", "top", "coker", "g_row", "pi0",
                 "gammapi", "cm", "module")

    def __init__(self, pre: PreProlongation, e0_data: QuotientData, e0: FiniteGroup,
                 pi: Homomorphism, i: Homomorphism, top: ShortExtension,
                 coker: QuotientData, g_row: ShortExtension, pi0: FiniteGroup,
                 gammapi: Homomorphism, cm: CrossedModule, module: PiModule):
        assign(self, "pre", pre)
        assign(self, "e0_data", e0_data)
        assign(self, "e0", e0)
        assign(self, "pi", pi)              # E0 -> G0
        assign(self, "i", i)                # A -> E0, image = ker pi
        assign(self, "top", top)            # 0 -> A -> E0 -> G0 -> 0
        assign(self, "coker", coker)        # G / gamma(G0), projection sigma
        assign(self, "g_row", g_row)        # 0 -> G0 -> G -> Pi0 -> 1 (gamma, sigma)
        assign(self, "pi0", pi0)
        assign(self, "gammapi", gammapi)    # E0 -> G
        assign(self, "cm", cm)
        assign(self, "module", module)


# the error derive raises for each frame item
_FRAME_ERRORS = {
    "e0_central": (NotCentral, "the kernel of e0 is not central"),
    "alpha_epi": (NotSurjective, "alpha is not surjective"),
    "gamma_mono": (NotInjective, "gamma is not injective"),
    "gamma_image_normal": (ImageNotNormal, "the image of gamma is not normal"),
}


def derive(pre: PreProlongation) -> PreDerived:
    """The derived data of pre, cached per pre-prolongation.

    A pre-prolongation that validate_pre rejects is refused with the error of
    its first failing item (check_pre), and only successes are cached.

    Group equality ignores names and labels, so the cache key carries their
    group tags: a pre-prolongation equal to an earlier one up to them gets its
    own.  Both the hash and the tags are computed once per pre-prolongation,
    so a lookup rehashes no table.  E0, the top row and the cokernel come
    from the frame caches of `extensions`, shared by every pre-prolongation
    over one frame.
    """
    return _derive(pre, pre._tags)


@lru_cache(maxsize=None)
def _derive(pre: PreProlongation, tags) -> PreDerived:
    _, derived, error = check_pre(pre)
    if error is not None:
        raise error
    return derived


derive.cache_clear = _derive.cache_clear


def validate_pre(pre: PreProlongation) -> ValidationReport:
    """Itemized report of all the pre-prolongation invariants; never raises."""
    return ValidationReport(check_pre(pre)[0])


def check_pre(pre: PreProlongation) -> tuple[tuple[CheckItem, ...], PreDerived | None,
                                               ProlongError | None]:
    """validate_pre's items, derive's data, and the error of the first
    failing item, in one uncached pass.

    The items stop after the first group with a failure: the wiring, the
    frame (the e0 row is exact by type), theta's shape, the crossed-module
    axioms of (E0, G, gamma . pi, theta), the centrality of i(A) in E0, and
    the module action theta induces on A.  The last two are listed as passed
    without a check of their own: i(A) is the image of the central j0(A0)
    under a surjection, so e0_central implies the first; C2 makes theta
    preserve ker(gamma . pi) = i(A), and C1 makes theta over gamma(G0)
    conjugation, trivial on the central i(A), so the action factors through
    Pi0.  induced_module_action builds that action.
    """
    alpha_wired, gamma_wired = pre.alpha.source == pre.e0.a, pre.gamma.source == pre.e0.g
    items = [CheckItem("wiring", alpha_wired and gamma_wired)]
    if not alpha_wired:
        return tuple(items), None, MismatchedBase(
            "alpha must start at the kernel group of the base row")
    if not gamma_wired:
        return tuple(items), None, MismatchedBase(
            "gamma must start at the quotient group of the base row")
    frame = frame_checks(pre.e0, pre.alpha, pre.gamma)
    items += extension_checks("e0_") + frame
    failed = next((item for item in frame if not item.ok), None)
    if failed is not None:
        error, message = _FRAME_ERRORS[failed.name]
        return tuple(items), None, error(message)
    e0_data, top = e0_quotient(pre.e0, pre.alpha)
    e0, pi, i = e0_data.quotient, top.p, top.j
    shape_ok = (len(pre.theta) == pre.g.order
                and all(len(p) == e0.order for p in pre.theta))
    items.append(CheckItem("theta_shape", shape_ok))
    cm = CrossedModule(b=e0, d_group=pre.g, d=compose(pre.gamma, pi), theta=pre.theta)
    cm_report = check_crossed_module(cm)
    if not shape_ok:
        return tuple(items), None, InvalidCrossedModule(cm_report)
    items += [CheckItem("crossed_" + item.name, item.ok, item.detail)
              for item in cm_report.items]
    if not cm_report.ok:
        return tuple(items), None, InvalidCrossedModule(cm_report)
    items += [CheckItem("kernel_central_in_e0", True), CheckItem("module_action", True)]
    coker = gamma_cokernel(pre.gamma)
    module = induced_module_action(cm, i, coker)
    return tuple(items), PreDerived(
        pre=pre, e0_data=e0_data, e0=e0, pi=pi, i=i, top=top, coker=coker,
        g_row=ShortExtension(pre.gamma, coker.projection), pi0=coker.quotient,
        gammapi=cm.d, cm=cm, module=module), None


class LiftedFactorSet(Record):
    """A section u of sigma, its factor set f, and a lift h of f into E0.

    f takes values in gamma(G0) inside the big group; h satisfies
    gammapi(h(x, y)) = f(x, y) and is normalized like f.
    """

    __slots__ = ("pre", "u", "f", "h")

    def __init__(self, pre: PreProlongation, u, f, h):
        assign(self, "pre", pre)
        assign(self, "u", tuple(u))
        assign(self, "f", tuple(tuple(r) for r in f))
        assign(self, "h", tuple(tuple(r) for r in h))


def lift_factor_set(pre: PreProlongation,
                    rng: random.Random | None = None) -> LiftedFactorSet:
    """Build u, f and a lift h; canonical choices are least-index everywhere.

    u is a section of sigma and f its factor set, taken on the row
    0 -> G0 -> G -> Pi0 -> 1 and reported inside G.  A seeded rng replaces
    both the section and the lift by random fiber picks (still normalized),
    for choice-independence tests.  Without an rng the lift depends on pre
    alone, and the last one is kept, keyed like derive, so the obstruction
    and the oracle of one input share it.
    """
    if rng is None:
        return _canonical_lift(pre, pre._tags)
    return _lift(pre, rng)


@lru_cache(maxsize=1)
def _canonical_lift(pre: PreProlongation, tags) -> LiftedFactorSet:
    return _lift(pre, None)


def _lift(pre: PreProlongation, rng: random.Random | None) -> LiftedFactorSet:
    d = derive(pre)
    pi0 = d.pi0
    fs = factor_set(d.g_row, choose_section(d.g_row, rng))
    over = fibers(d.pi)
    h = []
    for x in pi0.elements():
        row = []
        for y in pi0.elements():
            if x == 0 or y == 0:
                row.append(0)
            elif rng is None:
                row.append(over[fs.f[x][y]][0])
            else:
                row.append(rng.choice(over[fs.f[x][y]]))
        h.append(tuple(row))
    f = tuple(tuple(pre.gamma.map[g0] for g0 in row) for row in fs.f)
    return LiftedFactorSet(pre=pre, u=fs.section.u, f=f, h=tuple(h))


def obstruction_cocycle(lfs: LiftedFactorSet) -> Cochain:
    """The degree-3 cochain measuring the failure of h to be a cocycle.

    For each triple, L = phi(x)h(y,z) * h(x,yz) and R = h(x,y) * h(xy,z) are
    formed in E0; the two subtractions R^-1 L and L R^-1 must agree (k is
    central), land in the identified kernel, and assemble into a 3-cocycle.
    """
    d = derive(lfs.pre)
    e0, pi0 = d.e0, d.pi0
    phi = tuple(lfs.pre.theta[lfs.u[x]] for x in pi0.elements())
    i_index = {d.i.map[a]: a for a in d.module.a.elements()}
    h = lfs.h
    for x in pi0.elements():
        for y in pi0.elements():
            if d.gammapi.map[h[x][y]] != lfs.f[x][y]:
                raise NotInKernel(
                    f"lift value at ({x}, {y}) lies outside its fiber")
    values = []
    for x, y, z, left, right in cocycle_terms(e0, pi0, phi, h):
        k_left = e0.mul(left, e0.inv[right])
        k_right = e0.mul(e0.inv[right], left)
        if k_left != k_right:
            raise NotCentralValue(
                f"obstruction value at ({x}, {y}, {z}) is not central")
        if k_left not in i_index:
            raise NotInKernel(
                f"obstruction value at ({x}, {y}, {z}) lies outside i(A)")
        values.append(i_index[k_left])
    c = Cochain(d.module, 3, tuple(values))
    if not is_cocycle(c):
        raise NotCocycle("obstruction cochain fails the cocycle identity")
    return c


class ObstructionResult(Record, eq=False):
    """The obstruction cocycle, its class coordinates in H^3, and, when the
    class vanishes, the witness with d(witness) == cocycle and the covering.

    The class vanishes exactly when the witness exists.  The coordinates
    of a nonzero class are read from H^3 on first use and kept in the one
    mutable slot _coordinates, so deciding existence never asks H^3 for
    its basis.
    """

    __slots__ = ("h3", "cocycle", "lift", "witness", "covering", "_coordinates")

    def __init__(self, h3: CohomologyGroup, cocycle: Cochain, lift: LiftedFactorSet,
                 witness: Cochain | None, covering: CrossedProductExtension | None,
                 _coordinates: tuple[int, ...] | None = None):
        assign(self, "h3", h3)
        assign(self, "cocycle", cocycle)
        assign(self, "lift", lift)
        assign(self, "witness", witness)
        assign(self, "covering", covering)
        assign(self, "_coordinates", _coordinates)

    @property
    def vanishes(self) -> bool:
        return self.witness is not None

    @property
    def coordinates(self) -> tuple[int, ...]:
        if self._coordinates is None:
            assign(self, "_coordinates",
                   (0,) * len(self.h3.invariant_factors) if self.vanishes
                   else self.h3.coordinates(self.cocycle))
        return self._coordinates

    @property
    def prolongation(self) -> Prolongation | None:
        return None if self.covering is None else self.covering.ladder


def obstruction_class(pre: PreProlongation,
                      rng: random.Random | None = None) -> ObstructionResult:
    """Class coordinates of the obstruction in H^3 of the induced module,
    and the covering they build when the class vanishes.

    Vanishing is decided by solving k = d(l) against the degree-2
    factorization; a coboundary has zero coordinates in any basis, so only
    the coordinates of a nonzero class need H^3's basis, and they are read
    on first use.  The covering is the crossed product
    on h' = h - i(l), with beta'(b0) = (b0 + ker, 1).  Without an rng the
    result depends on pre alone, and the last one is kept, keyed like derive.
    """
    if rng is None:
        return _canonical(pre, pre._tags)
    return _solve(pre, rng)


@lru_cache(maxsize=1)
def _canonical(pre: PreProlongation, tags) -> ObstructionResult:
    return _solve(pre, None)


def _solve(pre: PreProlongation, rng: random.Random | None) -> ObstructionResult:
    d = derive(pre)
    lfs = lift_factor_set(pre, rng=rng)
    k = obstruction_cocycle(lfs)
    h3 = cohomology_group(3, d.module)
    witness = is_coboundary(k)
    if witness is None:
        return ObstructionResult(h3, k, lfs, None, None)
    e0, i = d.e0, d.i.map
    h = tuple(tuple(e0.mul(hxy, e0.inv[i[witness.value((x, y))]])
                    for y, hxy in enumerate(row)) for x, row in enumerate(lfs.h))
    return ObstructionResult(h3, k, lfs, witness, crossed_product(pre, lfs.u, h))


# ---------------------------------------------------------------------------
# Crossed products
# ---------------------------------------------------------------------------

def pairing_table(e0: FiniteGroup, npi: int, pi0_table, phi, h) -> list[list[int]]:
    """Raw Cayley table of the twisted pairing on pairs (e, x), lex-indexed.

    (e, x) * (e', y) = (e * phi(x)e' * h(x, y), x y); no axioms are checked.
    Built one row at a time: row (e, x) reads only e's row of E0 and x's
    phi, h and Pi0 rows.
    """
    et = e0.table
    cols = [(e2, y) for e2 in e0.elements() for y in range(npi)]
    return [[et[erow[phix[e2]]][hx[y]] * npi + pix[y] for e2, y in cols]
            for erow in et for phix, hx, pix in zip(phi, h, pi0_table)]


class CrossedProductExtension(Record, eq=False):
    """A crossed product as the bottom row of a ladder over the
    pre-prolongation's frame, with the crossed module that ladder induces,
    read off the pairs."""

    __slots__ = ("ladder", "icm", "u", "h")

    def __init__(self, ladder: Prolongation, icm: InducedCrossedModule,
                 u: tuple[int, ...], h: tuple[tuple[int, ...], ...]):
        assign(self, "ladder", ladder)
        assign(self, "icm", icm)
        assign(self, "u", u)
        assign(self, "h", h)

    @property
    def ext(self) -> ShortExtension:
        """0 -> A -> B_h -> G -> 0."""
        return self.ladder.e

    @property
    def beta(self) -> Homomorphism:
        """B0 -> B_h."""
        return self.ladder.beta


def crossed_product(pre: PreProlongation, u, h) -> CrossedProductExtension:
    """Build B_h = pairs (e0, x) under the twisted operation, plus j', p', beta.

    Each lift is built once per pre-prolongation in hand: the products are
    kept by (u, h) for the last pre-prolongation asked about, keyed like
    derive, so the covering of obstruction_class, the classes of
    enumerate_classes and the lifts the oracle accepts over the canonical
    section are one object each.  A stored product passed every certificate
    below when it was built; a lift that fails a precondition is never
    stored and raises on every call.

    With phi_x = theta[u_x], three preconditions are checked in this order,
    and a violation raises PreconditionFailed with the offending tuple:

    - "twisted-homomorphism": phi_x phi_y = inn(h(x, y)) phi_xy.  derive
      certified theta a homomorphism G -> Aut(E0), so phi_x phi_y is
      theta[u_x u_y]; both sides are automorphisms of E0, so they agree iff
      they agree on E0.gens, which is what is compared.
    - "cocycle": phi_x(h(y, z)) h(x, yz) = h(x, y) h(xy, z).
    - "normalized": h(0, y) = h(x, 0) = 0.

    Together they make (e, x)(e', y) = (e phi_x(e') h(x, y), xy) a group
    (Schreier; Brown, GTM 87 §IV.6), so B_h is built straight from the
    pairing table with no axiom checked on it:

    - associativity: both bracketings of (e, x)(e', y)(e'', z) have second
      entry xyz, and their first entries agree once phi_x phi_y(e'') is
      rewritten by the twisted identity and phi_x(h(y, z)) h(x, yz) by the
      cocycle identity;
    - identity (0, 0): h is normalized, and phi_0 = id because the twisted
      identity at (0, 0) reads phi_0 phi_0 = phi_0;
    - inverses: (e, x)(e', x^-1) = (0, 0) for e' = phi_x^-1(e^-1 h(x, x^-1)^-1),
      since phi_x is bijective.  A finite monoid with right inverses is a
      group, so each inverse is read off its row.

    The ladder's induced crossed module is read off the pairs, not derived
    from the ladder.  Its induced row is 0 -> E0 -eps-> B_h -> Pi0 -> 1 with
    eps(e) = (e, 0), its crossed module is derive(pre).cm, and
    p(e, x) = gammapi(e) u_x; crossed.certify_action checks that conjugation
    by b acts on eps(E0) as theta[p(b)].  The frame's items are not checked
    again: derive refused any frame that fails one.  The ladder's own items
    are checked at O(|B0|): the squares and kernel(beta) (ladder_checks),
    then eps against beta, j and p as for any ladder
    (extensions.certify_induced).  A failure is the program's fault and
    raises CertificateFailed: "crossed-product ladder must validate", or
    "crossed-product ladder must induce theta" for the conjugation identity.
    """
    key = (tuple(u), tuple(tuple(row) for row in h))
    built = _products(pre, pre._tags)
    cp = built.get(key)
    if cp is None:
        cp = built[key] = _build_crossed_product(pre, *key)
    return cp


@lru_cache(maxsize=1)
def _products(pre: PreProlongation, tags) -> dict:
    """The crossed products built over pre, by (u, h)."""
    return {}


def _build_crossed_product(pre: PreProlongation, u: tuple[int, ...],
                           h: tuple[tuple[int, ...], ...]) -> CrossedProductExtension:
    d = derive(pre)
    e0, pi0, g = d.e0, d.pi0, pre.g
    npi = pi0.order
    theta = d.cm.theta
    phi = tuple(theta[u[x]] for x in pi0.elements())
    for x in pi0.elements():
        for y in pi0.elements():
            composed = theta[g.mul(u[x], u[y])]
            twisted = phi[pi0.mul(x, y)]
            hxy = h[x][y]
            if any(composed[t] != e0.conjugate(hxy, twisted[t]) for t in e0.gens):
                raise PreconditionFailed("twisted-homomorphism", (x, y))
    for x, y, z, left, right in cocycle_terms(e0, pi0, phi, h):
        if left != right:
            raise PreconditionFailed("cocycle", (x, y, z))
    for x in pi0.elements():
        for y in pi0.elements():
            if (x == 0 or y == 0) and h[x][y] != 0:
                raise PreconditionFailed("normalized", (x, y))
    table = pairing_table(e0, npi, pi0.table, phi, h)
    labels = tuple(f"({e0.label(e)},{pi0.label(x)})"
                   for e in e0.elements() for x in pi0.elements())
    bh = FiniteGroup(order=len(table), table=table,
                     inv=tuple(row.index(0) for row in table), labels=labels,
                     name=f"[{e0.name or 'E0'};{pi0.name or 'Pi0'}]")
    pmap = tuple(g.mul(d.gammapi.map[e], u[x])
                 for e in e0.elements() for x in pi0.elements())
    jmap = tuple(d.i.map[a] * npi for a in d.module.a.elements())
    ext = ShortExtension(Homomorphism(d.module.a, bh, jmap), Homomorphism(bh, g, pmap))
    proj = d.e0_data.projection.map
    beta = Homomorphism(pre.e0.b, bh, tuple(proj[b0] * npi
                                            for b0 in pre.e0.b.elements()))
    ladder = Prolongation(e0=pre.e0, e=ext, alpha=pre.alpha, beta=beta,
                          gamma=pre.gamma)
    certify(all(item.ok for item in ladder_checks(ladder)),
            "crossed-product ladder must validate")
    eps = Homomorphism(e0, bh, tuple(e * npi for e in e0.elements()))
    induced = certify_induced(ladder, eps, d.e0_data, d.top, d.coker)
    icm = certify_action(ladder, induced, d.cm, "crossed-product ladder must induce theta")
    return CrossedProductExtension(ladder=ladder, icm=icm, u=u, h=h)


def build_prolongation(pre: PreProlongation,
                       rng: random.Random | None = None) -> ObstructionResult:
    """The obstruction result of pre, whose covering realizes a prolongation
    when the class vanishes; a nonzero class raises ObstructionNonzero."""
    res = obstruction_class(pre, rng=rng)
    if not res.vanishes:
        raise ObstructionNonzero(res.coordinates, res.h3.invariant_factors)
    certify(res.covering is not None, "a vanishing class must be a coboundary")
    return res


def ladder_crossed_module(p: Prolongation) -> InducedCrossedModule:
    """What induce_crossed_module returns, with the axioms checked once per
    frame and theta.

    The crossed module a ladder induces is (E0, G, gamma.pi, theta) on the
    ladder's frame (e0, alpha, gamma), with theta read off the least section
    (crossed.section_action): derive's crossed module of the pre-prolongation
    with that frame and theta.  derive checks it and caches it, so every
    ladder over one pre-prolongation shares one check; crossed.certify_action
    then certifies theta against conjugation in B.
    """
    ind, least, theta = section_action(p)
    pre = PreProlongation(e0=p.e0, alpha=p.alpha, gamma=p.gamma, theta=theta)
    return certify_action(p, ind, derive(pre).cm, "ladder must induce theta", least)


def verify_covering(p: Prolongation, pre: PreProlongation) -> bool:
    """True iff the ladder induces exactly the theta of the pre-prolongation.

    The ladder is validated on the way and raises InvalidProlongation when it
    fails; when it induces pre.theta, its crossed module is derive(pre)'s.
    """
    if p.e0 != pre.e0 or p.alpha != pre.alpha or p.gamma != pre.gamma:
        raise MismatchedBase("ladder and pre-prolongation share no common base")
    return ladder_crossed_module(p).cm.theta == pre.theta


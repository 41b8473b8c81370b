"""Equivalence of prolongations, reduction to crossed products, the torsor
action of H^2, class enumeration, and the exhaustive brute-force oracle.

Classification is anchored on differences h2 - h1 of lifts over one shared
canonical section (these are rigorously coefficient-valued); no absolute
class is assigned to a single lift.
"""

from __future__ import annotations

import itertools
from math import prod

from .cohomology import Cochain, cohomology_group, is_cocycle
from .crossed import InducedCrossedModule
from .errors import (
    CertificateFailed,
    MismatchedFrame,
    NotHomomorphism,
    SearchBoundExceeded,
    certify,
)
from .extensions import (
    FactorSet,
    Prolongation,
    Section,
    choose_section,
    cocycle_terms,
    factor_set,
)
from .groups import Homomorphism, fibers, is_bijective
from .obstruction import (
    CrossedProductExtension,
    LiftedFactorSet,
    PreProlongation,
    build_prolongation,
    crossed_product,
    derive,
    ladder_crossed_module,
    lift_factor_set,
)
from .record import Record, assign

MAX_EQUIVALENCE_CANDIDATES = 4096   # product of the section-image candidates
DEFAULT_BRUTE_ORDER = 16             # middle-group order the oracle accepts
MAX_LIFT_CANDIDATES = 1 << 20        # nodes the oracle's lift search visits


class EquivalenceWitness(Record, eq=False):
    """An isomorphism of middle groups realizing an equivalence of ladders."""

    __slots__ = ("beta_star", "first", "second")

    def __init__(self, beta_star: Homomorphism, first: Prolongation, second: Prolongation):
        assign(self, "beta_star", beta_star)
        assign(self, "first", first)
        assign(self, "second", second)


def witness_is_valid(w: EquivalenceWitness) -> bool:
    p1, p2 = w.first, w.second
    bs = w.beta_star
    if bs.source != p1.e.b or bs.target != p2.e.b or not is_bijective(bs):
        return False
    if any(bs.map[p1.e.j.map[a]] != p2.e.j.map[a] for a in p1.e.a.elements()):
        return False
    if any(p2.e.p.map[bs.map[b]] != p1.e.p.map[b] for b in p1.e.b.elements()):
        return False
    if any(bs.map[p1.beta.map[b0]] != p2.beta.map[b0] for b0 in p1.e0.b.elements()):
        return False
    return True


def _require_same_frame(p1: Prolongation, p2: Prolongation) -> None:
    if (p1.e0 != p2.e0 or p1.alpha != p2.alpha or p1.gamma != p2.gamma
            or p1.e.a != p2.e.a or p1.e.g != p2.e.g):
        raise MismatchedFrame("prolongations do not share kernel, base and quotient")


class _Reduction(Record, eq=False):
    """Canonical section data of a ladder: on the induced row
    0 -> E0 -> B -> Pi0 -> 1, the section v over u = coker.reps and its
    factor set h, which is the lift in E0."""

    __slots__ = ("icm", "u", "fs")

    def __init__(self, icm: InducedCrossedModule, u: tuple[int, ...], fs: FactorSet):
        assign(self, "icm", icm)
        assign(self, "u", u)
        assign(self, "fs", fs)


def _reduce(p: Prolongation) -> _Reduction:
    return _reduction(p, ladder_crossed_module(p))


def _reduction(p: Prolongation, icm: InducedCrossedModule) -> _Reduction:
    """The reduction of p, given the crossed module p induces: over the
    least section that icm was read off, or, for a crossed product's
    crossed module, over choose_section(p.e)."""
    ind = icm.induced
    u = ind.coker.reps
    least = choose_section(p.e).u if icm.least is None else icm.least
    v = Section(ext=ind.seq, u=tuple(least[g] for g in u))
    return _Reduction(icm=icm, u=u, fs=factor_set(ind.seq, v))


def _coordinates(fs: FactorSet) -> list[tuple[int, int]]:
    """(k, x) with b = j(k) u_x for every element b of the middle group."""
    ext, u = fs.ext, fs.section.u
    b = ext.b
    j_index = {ext.j.map[k]: k for k in ext.a.elements()}
    out = []
    for bb in b.elements():
        x = ext.p.map[bb]
        out.append((j_index[b.mul(bb, b.inv[u[x]])], x))
    return out


def _pre_of(p: Prolongation, red: _Reduction) -> PreProlongation:
    return PreProlongation(e0=p.e0, alpha=p.alpha, gamma=p.gamma,
                           theta=red.icm.cm.theta)


def to_crossed_product(p: Prolongation) -> tuple[Prolongation, EquivalenceWitness]:
    """An equivalent crossed-product ladder plus the explicit witness.

    The witness sends eps(e0) * v_x to the pair (e0, x); when p already is a
    crossed product over the canonical section this is the identity.
    """
    red = _reduce(p)
    pre = _pre_of(p, red)
    cp = crossed_product(pre, red.u, red.fs.f)
    target = cp.ladder
    npi = len(red.u)
    bmap = tuple(e * npi + x for e, x in _coordinates(red.fs))
    witness = EquivalenceWitness(
        beta_star=Homomorphism(p.e.b, cp.ext.b, bmap),
        first=p, second=target)
    certify(witness_is_valid(witness), "crossed-product witness must be valid")
    return target, witness


def _search_equivalence(fs: FactorSet, kernel_map: Homomorphism,
                        candidates: list[tuple[int, ...]]) -> Homomorphism | None:
    """The first isomorphism of middle groups extending kernel_map, or None.

    fs is a factor set of the row 0 -> K -j-> B1 -> Q -> 1 over a section u;
    kernel_map sends K into B2.  The map is forced on j(K), so the search
    backtracks only over w_x, the image of u_x, drawn from candidates[x]
    (candidates[0] = [0]).  A partial choice must preserve
    u_s u_t = j(f(s, t)) u_st; the choices are tried in lexicographic order.
    """
    total = prod(map(len, candidates))
    if total > MAX_EQUIVALENCE_CANDIDATES:
        raise SearchBoundExceeded(
            f"equivalence search space {total} exceeds "
            f"MAX_EQUIVALENCE_CANDIDATES = {MAX_EQUIVALENCE_CANDIDATES}")
    q = fs.ext.g
    b1, b2 = fs.ext.b, kernel_map.target
    kmap = kernel_map.map
    f2 = [[kmap[k] for k in row] for row in fs.f]
    coords = _coordinates(fs)

    def assemble(ws: list[int]) -> Homomorphism | None:
        bmap = [b2.mul(kmap[k], ws[x]) for k, x in coords]
        if len(set(bmap)) != b1.order:
            return None
        try:
            return Homomorphism(b1, b2, bmap)
        except NotHomomorphism:
            return None

    def backtrack(ws: list[int], x: int) -> Homomorphism | None:
        if x == q.order:
            return assemble(ws)
        for w in candidates[x]:
            ws.append(w)
            ok = True
            for y in range(1, x + 1):
                for (s, t) in ((x, y), (y, x)):
                    st = q.mul(s, t)
                    if st <= x and b2.mul(ws[s], ws[t]) != b2.mul(f2[s][t], ws[st]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found = backtrack(ws, x + 1)
                if found is not None:
                    return found
            ws.pop()
        return None

    return backtrack([0], 1)


def are_equivalent(p1: Prolongation, p2: Prolongation) -> EquivalenceWitness | None:
    """Search for an equivalence witness; None when the ladders are inequivalent.

    beta_star is forced on the image of eps by beta_star . beta = beta', so
    the search runs on the induced row of p1 and ranges only over images of
    its canonical section elements.
    """
    _require_same_frame(p1, p2)
    red1 = _reduce(p1)
    return _equivalence(p1, red1, p2, ladder_crossed_module(p2).induced.eps)


def _equivalence(p1: Prolongation, red1: _Reduction, p2: Prolongation,
                 eps2: Homomorphism) -> EquivalenceWitness | None:
    """are_equivalent on ladders of one frame, given the reduction of p1 and
    the eps of p2's induced row."""
    over = fibers(p2.e.p)
    candidates = [(0,)] + [over[p1.e.p.map[v]] for v in red1.fs.section.u[1:]]
    beta_star = _search_equivalence(red1.fs, eps2, candidates)
    if beta_star is None:
        return None
    witness = EquivalenceWitness(beta_star=beta_star, first=p1, second=p2)
    certify(witness_is_valid(witness), "equivalence witness must be valid")
    return witness


def difference_cocycle(p1: Prolongation, p2: Prolongation) -> Cochain:
    """The class difference r = h2 - h1 of two coverings of one pre-prolongation.

    Both ladders are reduced over the same canonical section of one induced
    row and induce one theta, so their factor sets lie over the same factor
    set of Pi0: r lands in the identified kernel and is a 2-cocycle of the
    induced module.  Both facts are certified; a failure is the program's
    fault and raises CertificateFailed.
    """
    _require_same_frame(p1, p2)
    red1, red2 = _reduce(p1), _reduce(p2)
    if red1.icm.cm.theta != red2.icm.cm.theta:
        raise MismatchedFrame("prolongations induce different theta")
    pre = _pre_of(p1, red1)
    d = derive(pre)
    e0, pi0 = d.e0, d.pi0
    i_index = {d.i.map[a]: a for a in d.module.a.elements()}
    values = []
    for x in pi0.elements():
        for y in pi0.elements():
            r = e0.mul(red2.fs.f[x][y], e0.inv[red1.fs.f[x][y]])
            if r not in i_index:
                raise CertificateFailed(
                    f"difference at ({x}, {y}) must lie in the identified kernel")
            values.append(i_index[r])
    c = Cochain(d.module, 2, tuple(values))
    certify(is_cocycle(c), "difference of lifts must be a 2-cocycle")
    return c


def torsor_act(tau, p: Prolongation) -> Prolongation:
    """Act on a covering by an H^2 class given in basis coordinates.

    Reduces p to crossed-product form, shifts the lift by the representative
    cocycle of tau transported into E0, and rebuilds.
    """
    red = _reduce(p)
    return _act(tau, _pre_of(p, red), red.u, red.fs.f).ladder


def _act(tau, pre: PreProlongation, u, h) -> CrossedProductExtension:
    """torsor_act on the crossed product of pre over u = coker.reps and h."""
    d = derive(pre)
    h2 = cohomology_group(2, d.module)
    rep = h2.from_coordinates(tau)
    e0, pi0 = d.e0, d.pi0
    h_new = tuple(
        tuple(e0.mul(h[x][y], d.i.map[rep.value((x, y))])
              for y in pi0.elements())
        for x in pi0.elements())
    return crossed_product(pre, u, h_new)


class ProlongationClass(Record, eq=False):
    """A canonical crossed-product representative with its H^2 coordinates
    relative to the enumeration's base covering."""

    __slots__ = ("representative", "coordinates")

    def __init__(self, representative: Prolongation, coordinates: tuple[int, ...]):
        assign(self, "representative", representative)
        assign(self, "coordinates", coordinates)


def enumerate_classes(pre: PreProlongation) -> tuple[ProlongationClass, ...]:
    """One class per element of H^2, obtained by acting on the base covering.

    The base is the covering of the canonical obstruction result, a crossed
    product over u = coker.reps: its own u and h are its reduction.
    """
    base = build_prolongation(pre).covering
    h2 = cohomology_group(2, derive(pre).module)
    classes = []
    for coords in itertools.product(*(range(d) for d in h2.invariant_factors)):
        rep = _act(coords, pre, base.u, base.h).ladder
        classes.append(ProlongationClass(representative=rep, coordinates=coords))
    return tuple(classes)


def brute_force_coverings(pre: PreProlongation, max_order: int = DEFAULT_BRUTE_ORDER
                          ) -> tuple[Prolongation, ...]:
    """Exhaustive covering search, independent of the H^2/torsor machinery.

    Finds every normalized lift h of the canonical factor set that satisfies
    the cocycle identity (_cocycle_lifts) and builds each with
    crossed_product, which checks its preconditions again (they hold exactly
    when the twisted pairing is associative) and certifies that the
    assembled ladder validates and induces theta.  The twisted identity
    needs no search: h(x, y) lies over f(x, y), so phi_x phi_y =
    theta[gammapi(h(x, y)) u_xy] = inn(h(x, y)) phi_xy by C1, for every
    lift the search tries.  The equivalence search deduplicates the
    coverings, each ladder reduced once, from the crossed module read off
    its pairs.
    """
    d = derive(pre)
    total_order = d.module.a.order * pre.g.order
    if total_order > max_order:
        raise SearchBoundExceeded(
            f"middle group order {total_order} exceeds max_order = {max_order}")
    lfs = lift_factor_set(pre)
    found = [crossed_product(pre, lfs.u, h) for h in _cocycle_lifts(pre, lfs)]
    found.sort(key=lambda cp: cp.ext.b.table)
    reps: list[CrossedProductExtension] = []
    for cp in found:
        if reps:
            red = _reduction(cp.ladder, cp.icm)
            if any(_equivalence(cp.ladder, red, q.ladder, q.icm.induced.eps)
                   is not None for q in reps):
                continue
        reps.append(cp)
    return tuple(cp.ladder for cp in reps)


def _cocycle_lifts(pre: PreProlongation, lfs: LiftedFactorSet):
    """Every normalized lift of lfs.f that satisfies the cocycle identity,
    in the lexicographic order of itertools.product over the fibers.

    h(x, y) is assigned one position at a time, x and y from 1 in row-major
    order, each value drawn from the fiber over f(x, y).  Each identity of
    cocycle_terms is checked at the first position where all four of the
    values it reads are set, and a failing one prunes every extension of the
    partial lift (Knuth, TAOCP 4B, backtrack programming).  Every value tried
    is a node; the search stops at the first node past MAX_LIFT_CANDIDATES.
    Each yielded lift is the same list, filled in place.
    """
    d = derive(pre)
    e0, pi0 = d.e0, d.pi0
    npi, qt = pi0.order, pi0.table
    over = fibers(d.gammapi)
    positions = [(x, y) for x in range(1, npi) for y in range(1, npi)]
    choices = [over[lfs.f[x][y]] for x, y in positions]
    slot = {pos: k for k, pos in enumerate(positions)}
    # due[k]: the identities whose last value is set once k positions are
    due: list[list[tuple[int, int, int]]] = [[] for _ in range(len(positions) + 1)]
    for x, y, z in itertools.product(pi0.elements(), repeat=3):
        reads = ((y, z), (x, qt[y][z]), (x, y), (qt[x][y], z))
        due[1 + max(slot.get(pos, -1) for pos in reads)].append((x, y, z))
    phi = tuple(pre.theta[lfs.u[x]] for x in pi0.elements())
    h = [[0] * npi for _ in range(npi)]
    nodes = 0

    def holds(k: int) -> bool:
        return all(left == right for *_, left, right
                   in cocycle_terms(e0, pi0, phi, h, due[k]))

    def extend(k: int):
        nonlocal nodes
        if k == len(positions):
            yield h
            return
        x, y = positions[k]
        for e in choices[k]:
            nodes += 1
            if nodes > MAX_LIFT_CANDIDATES:
                raise SearchBoundExceeded(
                    f"lift search node {nodes} exceeds "
                    f"MAX_LIFT_CANDIDATES = {MAX_LIFT_CANDIDATES}")
            h[x][y] = e
            if holds(k + 1):
                yield from extend(k + 1)

    if holds(0):
        yield from extend(0)

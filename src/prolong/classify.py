"""Equivalence of prolongations, reduction to crossed products, the torsor
action of H^2, class enumeration, and the exhaustive brute-force oracle.

Classification is anchored on differences h2 - h1 of lifts over one shared
canonical section (these are rigorously coefficient-valued); no absolute
class is assigned to a single lift.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .cohomology import Cochain, cohomology_group, is_cocycle
from .crossed import InducedCrossedModule
from .errors import (
    MismatchedFrame,
    NotCocycle,
    NotHomomorphism,
    NotInKernel,
    PreconditionFailed,
    SearchBoundExceeded,
    certify,
)
from .extensions import (
    FactorSet,
    Prolongation,
    Section,
    choose_section,
    factor_set,
)
from .groups import Homomorphism, fibers, is_bijective
from .obstruction import (
    CrossedProductExtension,
    PreProlongation,
    build_prolongation,
    crossed_product,
    derive,
    ladder_crossed_module,
    lift_factor_set,
)

MAX_EQUIVALENCE_CANDIDATES = 4096   # product of the section-image candidates
DEFAULT_BRUTE_ORDER = 16             # middle-group order the oracle accepts
MAX_LIFT_CANDIDATES = 1 << 20        # normalized lifts the oracle enumerates


@dataclass(frozen=True, eq=False)
class EquivalenceWitness:
    """An isomorphism of middle groups realizing an equivalence of ladders."""

    beta_star: Homomorphism
    first: Prolongation
    second: Prolongation


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


@dataclass(frozen=True, eq=False)
class _Reduction:
    """Canonical section data of a ladder: on the induced row
    0 -> E0 -> B -> Pi0 -> 1, the section v over u = coker.reps and its
    factor set h, which is the lift in E0."""

    icm: InducedCrossedModule
    u: tuple[int, ...]
    fs: FactorSet


def _reduce(p: Prolongation) -> _Reduction:
    return _reduction(p, ladder_crossed_module(p))


def _reduction(p: Prolongation, icm: InducedCrossedModule) -> _Reduction:
    """The reduction of p, given the crossed module p induces."""
    ind = icm.induced
    u = ind.coker.reps
    least = choose_section(p.e).u
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

    Both ladders are reduced over the same canonical section, so r lands in
    the identified kernel; it is verified to be a 2-cocycle of the induced
    module.
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
                raise NotInKernel(
                    f"difference at ({x}, {y}) lies outside the identified kernel")
            values.append(i_index[r])
    c = Cochain(d.module, 2, tuple(values))
    if not is_cocycle(c):
        raise NotCocycle("difference of lifts fails the 2-cocycle identity")
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


@dataclass(frozen=True, eq=False)
class ProlongationClass:
    """A canonical crossed-product representative with its H^2 coordinates
    relative to the enumeration's base covering."""

    representative: Prolongation
    coordinates: tuple[int, ...]


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

    Enumerates every normalized lift h of the canonical factor set and keeps
    the ones crossed_product accepts (its preconditions hold exactly when the
    twisted pairing is associative; it certifies that each assembled ladder
    validates and induces theta).  The equivalence search deduplicates them,
    each ladder reduced once, from the crossed module read off its pairs.
    """
    d = derive(pre)
    total_order = d.module.a.order * pre.g.order
    if total_order > max_order:
        raise SearchBoundExceeded(
            f"middle group order {total_order} exceeds max_order = {max_order}")
    lfs = lift_factor_set(pre)
    npi = d.pi0.order
    over = fibers(d.gammapi)
    positions = [(x, y) for x in range(1, npi) for y in range(1, npi)]
    choices = [over[lfs.f[x][y]] for (x, y) in positions]
    count = prod(map(len, choices))
    if count > MAX_LIFT_CANDIDATES:
        raise SearchBoundExceeded(
            f"lift enumeration {count} exceeds "
            f"MAX_LIFT_CANDIDATES = {MAX_LIFT_CANDIDATES}")
    found = []
    for combo in itertools.product(*choices):
        h = [[0] * npi for _ in range(npi)]
        for (x, y), e in zip(positions, combo):
            h[x][y] = e
        try:
            found.append(crossed_product(pre, lfs.u, h))
        except PreconditionFailed:
            continue
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

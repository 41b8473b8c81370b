"""Crossed modules, their axioms, and the structures a ladder induces.

A crossed module here is a quadruple (b, d_group, d, theta) with
d: b -> d_group and theta a map from d_group into Aut(b) satisfying

    C1:  theta[d(x)] = conjugation by x           for all x in b,
    C2:  d(theta[g](x)) = conjugation by g of d(x) for all g, x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CheckItem,
    FiberDependentAction,
    FiberInconsistency,
    InvalidCrossedModule,
    KernelNotPreserved,
    ValidationReport,
)
from .extensions import InducedSequence, Prolongation, induced_sequence
from .cohomology import PiModule, pi_module
from .groups import FiniteGroup, Homomorphism, QuotientData, compose


@dataclass(frozen=True)
class CrossedModule:
    b: FiniteGroup
    d_group: FiniteGroup
    d: Homomorphism
    theta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(tuple(p) for p in self.theta))


def check_crossed_module(cm: CrossedModule) -> ValidationReport:
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


def make_crossed_module(b: FiniteGroup, d_group: FiniteGroup, d: Homomorphism,
                        theta) -> CrossedModule:
    """Construct and validate eagerly; downstream code assumes validity."""
    cm = CrossedModule(b=b, d_group=d_group, d=d, theta=tuple(tuple(p) for p in theta))
    report = check_crossed_module(cm)
    if not report.ok:
        raise InvalidCrossedModule(report)
    return cm


@dataclass(frozen=True, eq=False)
class InducedCrossedModule:
    """The crossed module (E0, G, gamma.pi, theta) a valid ladder induces.

    phi[b] is conjugation by b on the middle group transported through the
    injection of E0; theta[g] is phi on any element of the fiber over g.
    """

    cm: CrossedModule
    phi: tuple[tuple[int, ...], ...]
    induced: InducedSequence


def induced_action(p: Prolongation
                   ) -> tuple[InducedSequence, tuple[tuple[int, ...], ...],
                              tuple[tuple[int, ...], ...]]:
    """The induced sequence of a valid ladder with its phi and theta.

    theta is not yet checked against the crossed-module axioms; see
    induce_crossed_module.
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
    for g in p.e.g.elements():
        fiber_maps = {phi[x] for x in b.elements() if p.e.p.map[x] == g}
        if len(fiber_maps) != 1:
            raise FiberInconsistency(f"phi is not constant on the fiber over {g}")
        theta.append(next(iter(fiber_maps)))
    return ind, tuple(phi), tuple(theta)


def induce_crossed_module(p: Prolongation) -> InducedCrossedModule:
    ind, phi, theta = induced_action(p)
    d = compose(p.gamma, ind.pi)
    cm = make_crossed_module(ind.e0_data.quotient, p.e.g, d, theta)
    return InducedCrossedModule(cm=cm, phi=phi, induced=ind)


def induced_module_action(cm: CrossedModule, i: Homomorphism,
                          coker: QuotientData) -> PiModule:
    """Restrict theta to the image of i and transport it to a module structure.

    Checks that every theta[g] preserves i(A) and that all elements of a fiber
    of the natural projection induce the same action.
    """
    if i.target != cm.b or coker.parent != cm.d_group:
        raise ValueError("identification maps do not match the crossed module")
    a = i.source
    i_index = {i.map[x]: x for x in a.elements()}
    if len(i_index) != a.order:
        raise ValueError("identification of the kernel must be injective")
    restricted = []
    for g in cm.d_group.elements():
        perm = cm.theta[g]
        r = []
        for x in a.elements():
            y = perm[i.map[x]]
            if y not in i_index:
                raise KernelNotPreserved(
                    f"theta[{g}] moves i({x}) outside the identified kernel")
            r.append(i_index[y])
        restricted.append(tuple(r))
    action = []
    for x in coker.quotient.elements():
        fiber = [g for g in cm.d_group.elements() if coker.projection.map[g] == x]
        maps = {restricted[g] for g in fiber}
        if len(maps) != 1:
            raise FiberDependentAction(
                f"fiber over {x} induces {len(maps)} distinct actions")
        action.append(restricted[fiber[0]])
    return pi_module(coker.quotient, a, tuple(action))

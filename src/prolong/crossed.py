"""Crossed modules, their axioms, and the structures a ladder induces.

A crossed module here is a quadruple (b, d_group, d, theta) with
d: b -> d_group and theta a map from d_group into Aut(b) satisfying

    C1:  theta[d(x)] = conjugation by x           for all x in b,
    C2:  d(theta[g](x)) = conjugation by g of d(x) for all g, x.
"""

from __future__ import annotations

from .errors import (
    CheckItem,
    FiberDependentAction,
    InvalidCrossedModule,
    KernelNotPreserved,
    ValidationReport,
    certify,
)
from .extensions import InducedSequence, Prolongation, choose_section, induced_sequence
from .cohomology import PiModule, pi_module
from .groups import FiniteGroup, Homomorphism, QuotientData, compose, fibers
from .record import Record, assign


class CrossedModule(Record):
    __slots__ = ("b", "d_group", "d", "theta")

    def __init__(self, b: FiniteGroup, d_group: FiniteGroup, d: Homomorphism, theta):
        assign(self, "b", b)
        assign(self, "d_group", d_group)
        assign(self, "d", d)
        assign(self, "theta", tuple(tuple(p) for p in theta))


def check_crossed_module(cm: CrossedModule) -> ValidationReport:
    """Itemized report: theta well-formed and a homomorphism, then C1 and C2.

    Each item is decided on the generating sets S_E = b.gens and
    S_G = d_group.gens, which is exact:
    - theta is a homomorphism into Aut(b) iff every theta[g] is a permutation
      fixing 0, theta[0] is the identity, theta[g*s] = theta[g]theta[s] for
      all g and s in S_G, and each theta[s] preserves products x*t, t in S_E;
    - given that, C1 holds iff it holds for x in S_E (both sides are
      homomorphisms in x), and C2 iff it holds on S_G x S_E (homomorphisms in
      x, and the g that pass are closed under products).
    An item that fails on generators reruns its full loop, which names the
    first failing elements; the other items keep their generator checks.
    """
    items: list[CheckItem] = []
    b, dg = cm.b, cm.d_group
    wired = (cm.d.source == b and cm.d.target == dg
             and len(cm.theta) == dg.order)
    items.append(CheckItem("wiring", wired))
    if not wired:
        return ValidationReport(tuple(items))
    theta, d = cm.theta, cm.d.map
    action = _acts_by_automorphisms(cm)
    if action:
        items.append(CheckItem("theta_automorphisms", True))
        items.append(CheckItem("theta_homomorphism", True))
    else:
        items.append(CheckItem("theta_automorphisms", *_first_failure(
            _automorphism_failures(cm))))
        if not items[-1].ok:
            return ValidationReport(tuple(items))
        items.append(CheckItem("theta_homomorphism", *_first_failure(
            f"theta[{g}]theta[{h}] != theta[{g}*{h}]"
            for g in dg.elements() for h in dg.elements()
            if any(theta[dg.mul(g, h)][x] != theta[g][theta[h][x]]
                   for x in b.elements()))))
    if action and all(theta[d[x]] == tuple([b.conjugate(x, y) for y in b.elements()])
                      for x in b.gens):
        items.append(CheckItem("axiom_c1", True))
    else:
        items.append(CheckItem("axiom_c1", *_first_failure(
            f"C1 fails at x={x}, y={y}" for x in b.elements() for y in b.elements()
            if theta[d[x]][y] != b.conjugate(x, y))))
    if action and c2_on_generators(cm):
        items.append(CheckItem("axiom_c2", True))
    else:
        items.append(CheckItem("axiom_c2", *_first_failure(
            f"C2 fails at g={g}, x={x}" for g in dg.elements() for x in b.elements()
            if d[theta[g][x]] != dg.conjugate(g, d[x]))))
    return ValidationReport(tuple(items))


def c2_on_generators(cm: CrossedModule) -> bool:
    """C2 on S_G x S_E, which decides C2 once theta acts by automorphisms."""
    b, dg, theta, d = cm.b, cm.d_group, cm.theta, cm.d.map
    return all(d[theta[g][x]] == dg.conjugate(g, d[x]) for g in dg.gens for x in b.gens)


def _acts_by_automorphisms(cm: CrossedModule) -> bool:
    """theta is a homomorphism d_group -> Aut(b), decided on generators."""
    b, dg, theta, bt = cm.b, cm.d_group, cm.theta, cm.b.table
    every = set(b.elements())
    perms = set(theta)
    if not (all(len(p) == b.order and p[0] == 0 and set(p) == every for p in perms)
            and theta[0] == tuple(b.elements())):
        return False
    for s in dg.gens:
        ts = theta[s]
        # theta[s](x*t) = theta[s](x)*theta[s](t)
        if not all([ts[row[t]] for row in bt] == [bt[y][ts[t]] for y in ts]
                   for t in b.gens):
            return False
        # theta[g*s] = theta[g]theta[s], composed once per distinct theta[g]
        after = {p: tuple([p[y] for y in ts]) for p in perms}
        if not all(theta[row[s]] == after[tg] for row, tg in zip(dg.table, theta)):
            return False
    return True


def _first_failure(details) -> tuple[bool, str]:
    """(ok, detail) from a generator of failure details: the first one wins."""
    detail = next(details, None)
    return detail is None, detail or ""


def _automorphism_failures(cm: CrossedModule):
    b = cm.b
    every = set(b.elements())
    for g, perm in enumerate(cm.theta):
        if len(perm) != b.order or set(perm) != every or perm[0] != 0:
            yield f"theta[{g}] is not a permutation fixing the identity"
            return
        for x in b.elements():
            for y in b.elements():
                if perm[b.mul(x, y)] != b.mul(perm[x], perm[y]):
                    yield f"theta[{g}] is not an automorphism at ({x}, {y})"


def make_crossed_module(b: FiniteGroup, d_group: FiniteGroup, d: Homomorphism,
                        theta) -> CrossedModule:
    """Construct and validate eagerly; downstream code assumes validity."""
    cm = CrossedModule(b=b, d_group=d_group, d=d, theta=tuple(tuple(p) for p in theta))
    report = check_crossed_module(cm)
    if not report.ok:
        raise InvalidCrossedModule(report)
    return cm


class InducedCrossedModule(Record, eq=False):
    """The crossed module (E0, G, gamma.pi, theta) a valid ladder induces.

    phi[b] is conjugation by b on the middle group transported through the
    injection of E0; theta[g] is phi on any element of the fiber over g.
    least is the least section choose_section(p.e).u that section_action
    read theta off, or None when theta was read off a crossed product's
    pairs.
    """

    __slots__ = ("cm", "phi", "induced", "least")

    def __init__(self, cm: CrossedModule, phi: tuple[tuple[int, ...], ...],
                 induced: InducedSequence, least: tuple[int, ...] | None = None):
        assign(self, "cm", cm)
        assign(self, "phi", phi)
        assign(self, "induced", induced)
        assign(self, "least", least)


def section_action(p: Prolongation) -> tuple[InducedSequence, tuple[int, ...],
                                              tuple[tuple[int, ...], ...]]:
    """The induced sequence of a valid ladder, its least section u =
    choose_section(p.e).u, and the theta read off it: theta[g] is
    conjugation by u[g] on eps(E0).

    eps(E0) is normal in B, the kernel of the induced row's projection, so
    conjugation stays inside it.  theta is not yet checked; see
    certify_action, which hands the section on for classify to reuse.
    """
    ind = induced_sequence(p)
    b, eps = p.e.b, ind.eps.map
    index = {x: e for e, x in enumerate(eps)}
    least = choose_section(p.e).u
    theta = tuple(tuple([index[b.conjugate(s, x)] for x in eps]) for s in least)
    return ind, least, theta


def certify_action(p: Prolongation, ind: InducedSequence, cm: CrossedModule,
                   message: str, least: tuple[int, ...] | None = None
                   ) -> InducedCrossedModule:
    """The crossed module the ladder p induces, given its induced sequence,
    a checked crossed module (E0, G, gamma.pi, theta) and, for a user
    ladder, the least section theta was read off (kept on the result).

    The induced theta is the one with

        conjugation by b acts on eps(E0) as theta[p(b)], for every b in B.

    Both sides are homomorphisms B -> Aut(E0) (theta is one, as cm was
    checked, and eps(E0) is normal), so the identity holds iff it holds for
    b in B.gens on E0.gens (_conjugates_by_theta).  It makes phi = theta . p
    conjugation by b, constant on each fiber of p and trivial on j(A).  A
    failure is the program's fault and raises CertificateFailed(message).
    """
    certify(_conjugates_by_theta(p.e.b, cm.b, ind.eps.map, p.e.p.map, cm.theta),
            message)
    return InducedCrossedModule(cm=cm, phi=tuple(cm.theta[g] for g in p.e.p.map),
                                induced=ind, least=least)


def _conjugates_by_theta(b: FiniteGroup, e0: FiniteGroup, eps, p, theta) -> bool:
    """s eps(t) s^-1 = eps(theta[p(s)](t)) for s in b.gens and t in e0.gens."""
    return all(b.conjugate(s, eps[t]) == eps[theta[p[s]][t]]
               for s in b.gens for t in e0.gens)


def induce_crossed_module(p: Prolongation) -> InducedCrossedModule:
    """The crossed module (E0, G, gamma.pi, theta) the valid ladder p
    induces, its axioms checked on every call.

    theta is read off the least section (section_action), checked by
    make_crossed_module, and certified against conjugation in B
    (certify_action).  obstruction.ladder_crossed_module returns the same
    with the axioms checked once per frame and theta.
    """
    ind, least, theta = section_action(p)
    cm = make_crossed_module(ind.e0_data.quotient, p.e.g, compose(p.gamma, ind.pi), theta)
    return certify_action(p, ind, cm, "ladder must induce theta", least)


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
    for x, over in enumerate(fibers(coker.projection)):
        maps = {restricted[g] for g in over}
        if len(maps) != 1:
            raise FiberDependentAction(
                f"fiber over {x} induces {len(maps)} distinct actions")
        action.append(restricted[over[0]])
    return pi_module(coker.quotient, a, tuple(action))

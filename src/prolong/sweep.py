"""Systematic generation of small pre-prolongations, and the cross-check
each one gets.

Enumerates central rows from the fixture groups, injections gamma with small
cokernel, and every homomorphism theta passing the crossed-module axioms.
The enumeration is deterministic, so sweep results are reproducible.
`check` tests both theorems on one input against the brute-force oracle, and
`landscape` tallies the reports of a sweep.
"""

from __future__ import annotations

from collections import Counter

from .classify import ProlongationClass, brute_force_coverings, enumerate_classes
from .cohomology import cohomology_group
from .crossed import CrossedModule, c2_on_generators
from .errors import SearchBoundExceeded
from .extensions import (
    Prolongation,
    ShortExtension,
    e0_quotient,
    is_central,
    make_extension,
)
from .fixtures import builtin, builtin_names
from .groups import (
    FiniteGroup,
    Homomorphism,
    all_homomorphisms,
    automorphism_group_table,
    center,
    compose,
    enumerate_subgroups,
    image,
    is_normal,
    quotient,
    subgroup_as_group,
)
from .obstruction import ObstructionResult, PreProlongation, derive, obstruction_class
from .record import Record, assign, replace


class SweepConfig(Record):
    """Bounds of the generated sweep (inclusive)."""

    __slots__ = ("max_kernel", "max_cokernel", "max_e0", "max_total")

    def __init__(self, max_kernel: int = 3, max_cokernel: int = 3, max_e0: int = 8,
                 max_total: int = 16):
        assign(self, "max_kernel", max_kernel)        # |A|
        assign(self, "max_cokernel", max_cokernel)    # |Pi0|
        assign(self, "max_e0", max_e0)                # |E0| (enforced through |B0|)
        assign(self, "max_total", max_total)          # |A| * |G| = order of any covering


def _central_rows(cfg: SweepConfig):
    """(row, a0_group) pairs: central extensions A0 -> B0 -> G0 from fixtures."""
    for name in builtin_names():
        b0 = builtin(name)
        if b0.order > cfg.max_e0:
            continue
        zb0 = set(center(b0).members)
        for sub in enumerate_subgroups(b0):
            if not all(m in zb0 for m in sub.members):
                continue
            a0, inclusion = subgroup_as_group(sub, name=f"{name}^sub")
            q = quotient(b0, sub)
            yield make_extension(inclusion, q.projection), a0


def _gammas(g0: FiniteGroup, cfg: SweepConfig) -> list[Homomorphism]:
    """Injective normal-image maps out of g0 with cokernel order at most
    cfg.max_cokernel, one per image subgroup."""
    gammas = []
    for name in builtin_names():
        g = builtin(name)
        if g.order % g0.order or g.order // g0.order > cfg.max_cokernel:
            continue
        seen_images = set()
        for gamma in all_homomorphisms(g0, g, injective_only=True):
            img = image(gamma)
            if img.members in seen_images:
                continue
            seen_images.add(img.members)
            if is_normal(img):
                gammas.append(gamma)
    return gammas


def _thetas(pre_frame: tuple[ShortExtension, Homomorphism, Homomorphism]):
    """Every theta making (E0, G, gamma . pi, theta) a crossed module, in the
    order of all_homomorphisms.

    C1 fixes theta on gamma(G0): theta[gammapi(e)] is conjugation by e, an
    inner automorphism, and well defined, since the kernel i(A) of gammapi is
    central.  The homomorphisms G -> Aut(E0) with these values then act by
    automorphisms and satisfy C1, and c2_on_generators decides C2 on them.
    """
    e0row, alpha, gamma = pre_frame
    e0_data, top = e0_quotient(e0row, alpha)
    e0, g = e0_data.quotient, gamma.target
    gammapi = compose(gamma, top.p)
    aut_group, auts = automorphism_group_table(e0)
    aut_index = {a.map: i for i, a in enumerate(auts)}
    fixed = {gammapi.map[e]: aut_index[tuple(e0.conjugate(e, x) for x in e0.elements())]
             for e in e0.elements()}
    for hom in all_homomorphisms(g, aut_group, fixed=fixed):
        theta = tuple(auts[hom.map[x]].map for x in g.elements())
        if c2_on_generators(CrossedModule(e0, g, gammapi, theta)):
            yield theta


def generate_pre_prolongations(cfg: SweepConfig = SweepConfig()
                               ) -> tuple[PreProlongation, ...]:
    """Every valid pre-prolongation inside the configured bounds.

    Each is valid by construction, so none is derived here: the rows are
    central, alpha is a quotient map, gamma injective with normal image, and
    _thetas yields only crossed modules.  A search bound that is hit raises
    its error; no input is dropped."""
    found: list[PreProlongation] = []
    for e0row, a0 in _central_rows(cfg):
        gammas = _gammas(e0row.g, cfg)
        kernels = enumerate_subgroups(a0)
        for ker_sub in kernels:
            if a0.order // ker_sub.order > cfg.max_kernel:
                continue
            alpha = quotient(a0, ker_sub).projection
            a = alpha.target
            for gamma in gammas:
                if a.order * gamma.target.order > cfg.max_total:
                    continue
                for theta in _thetas((e0row, alpha, gamma)):
                    found.append(PreProlongation(e0=e0row, alpha=alpha,
                                                 gamma=gamma, theta=theta))
    return tuple(found)


class InputReport(Record, eq=False):
    """One input's answers and the first way they disagree.

    `coverings` is None when the oracle hit a bound, and `unchecked` is then
    that bound's message.  The classes, |H^2| and centrality are filled in
    for a vanishing class only; a check stops at its first disagreement.
    """

    __slots__ = ("pre", "result", "coverings", "unchecked", "classes", "h2_order",
                 "central", "disagreement")

    def __init__(self, pre: PreProlongation, result: ObstructionResult,
                 coverings: tuple[Prolongation, ...] | None, unchecked: str | None,
                 classes: tuple[ProlongationClass, ...] = (), h2_order: int | None = None,
                 central: bool | None = None, disagreement: str | None = None):
        assign(self, "pre", pre)
        assign(self, "result", result)
        assign(self, "coverings", coverings)
        assign(self, "unchecked", unchecked)
        assign(self, "classes", classes)
        assign(self, "h2_order", h2_order)
        assign(self, "central", central)
        assign(self, "disagreement", disagreement)


def check(pre: PreProlongation) -> InputReport:
    """Existence three ways (class, construction, oracle), the class count
    against |H^2| and the oracle, and centrality against a trivial kernel
    action.  The checks are explicit, so they also run under python -O.

    The oracle searches up to the input's own covering order, which
    SweepConfig.max_total bounds at generation, so only its node bound
    (MAX_LIFT_CANDIDATES) can leave an input unchecked."""
    res = obstruction_class(pre)
    try:
        coverings = brute_force_coverings(pre, max_order=pre.a.order * pre.g.order)
        unchecked = None
    except SearchBoundExceeded as exc:
        coverings, unchecked = None, str(exc)
    report = InputReport(pre, res, coverings, unchecked)
    found = "unchecked" if coverings is None else len(coverings)
    constructed = res.covering is not None
    if (constructed != res.vanishes
            or coverings is not None and bool(coverings) != res.vanishes):
        return replace(report, disagreement=(
            f"existence: constructed {constructed}, class vanishes "
            f"{res.vanishes}, {found} brute-force coverings"))
    if not res.vanishes:
        return report
    module = derive(pre).module
    report = replace(report, classes=enumerate_classes(pre),
                     h2_order=cohomology_group(2, module).order)
    if (len(report.classes) != report.h2_order
            or coverings is not None and len(coverings) != report.h2_order):
        return replace(report, disagreement=(
            f"class count: {len(report.classes)} classes, {found} "
            f"brute-force coverings, |H^2| = {report.h2_order}"))
    trivial_action = all(p == tuple(range(pre.a.order)) for p in module.action)
    report = replace(report, central=is_central(res.prolongation.e))
    if report.central != trivial_action:
        return replace(report, disagreement=(
            f"centrality: covering central {report.central}, "
            f"kernel action trivial {trivial_action}"))
    return report


def landscape(reports) -> list[str]:
    """The tallies of a sweep's reports, then the non-central coverings by
    sweep index with the order profiles of their middle groups.  The reports
    may come one at a time: none is kept."""
    stats: Counter = Counter()
    noncentral = []
    for idx, report in enumerate(reports):
        if report.coverings is None:
            stats["oracle-unchecked"] += 1
        if not report.result.vanishes:
            stats["obstructed"] += 1
            continue
        stats["vanishing"] += 1
        stats[f"{len(report.classes)} class(es)"] += 1
        if not report.central:
            noncentral.append((idx, report.result.prolongation.e.b.order_profile()))
    lines = [f"  {key}: {stats[key]}" for key in sorted(stats)]
    lines.append(f"noncentral coverings (nontrivial kernel action): {len(noncentral)}")
    lines += [f"  sweep index {idx}: middle-group order profile {profile}"
              for idx, profile in noncentral]
    return lines

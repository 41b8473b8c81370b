#!/usr/bin/env python3
"""Run the systematic pre-prolongation sweep and report the landscape.

For every generated pre-prolongation this computes the obstruction class
with the covering it builds when it vanishes, runs the exhaustive covering
search, and cross-checks the three answers.  It also tallies where the
constructed coverings fail to be central extensions (exactly the cases with
a nontrivial induced action on the kernel).  An input past the covering
search's bounds is counted as oracle-unchecked; its other checks still run.
On the first disagreement it names the sweep index and the kind of
disagreement and exits 1; the checks are explicit, so they also run under
`python -O`.

Usage: python scripts/sweep.py [--max-kernel N] [--max-cokernel N]
                               [--max-e0 N] [--max-total N]
Each flag sets the SweepConfig field of its name and defaults to it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from collections import Counter
from typing import NoReturn

from prolong.classify import brute_force_coverings, enumerate_classes
from prolong.cohomology import cohomology_group
from prolong.errors import SearchBoundExceeded
from prolong.extensions import is_central
from prolong.obstruction import derive, obstruction_class
from prolong.sweep import SweepConfig, generate_pre_prolongations


def disagree(idx: int, kind: str) -> NoReturn:
    print(f"sweep index {idx}: {kind}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    fields = [f.name for f in dataclasses.fields(SweepConfig)]
    for name in fields:
        parser.add_argument("--" + name.replace("_", "-"), type=int,
                            default=getattr(SweepConfig, name))
    args = parser.parse_args()

    cfg = SweepConfig(**{name: getattr(args, name) for name in fields})
    t0 = time.time()
    pres = generate_pre_prolongations(cfg)
    print(f"generated {len(pres)} pre-prolongations in {time.time() - t0:.1f}s")

    t1 = time.time()
    stats = Counter()
    noncentral = []
    for idx, pre in enumerate(pres):
        res = obstruction_class(pre)
        constructed = res.covering is not None
        try:
            coverings = brute_force_coverings(pre)
            found = len(coverings)
        except SearchBoundExceeded:
            stats["oracle-unchecked"] += 1
            coverings, found = None, "unchecked"
        if (constructed != res.vanishes
                or coverings is not None and bool(coverings) != res.vanishes):
            disagree(idx, f"existence: constructed {constructed}, class vanishes "
                          f"{res.vanishes}, {found} brute-force coverings")
        if not res.vanishes:
            stats["obstructed"] += 1
            continue
        stats["vanishing"] += 1
        classes = enumerate_classes(pre)
        h2 = cohomology_group(2, derive(pre).module)
        if (len(classes) != h2.order
                or coverings is not None and len(coverings) != h2.order):
            disagree(idx, f"class count: {len(classes)} classes, {found} "
                          f"brute-force coverings, |H^2| = {h2.order}")
        stats[f"{len(classes)} class(es)"] += 1
        trivial_action = all(
            p == tuple(range(pre.a.order)) for p in derive(pre).module.action)
        central = is_central(res.prolongation.e)
        if central != trivial_action:
            disagree(idx, f"centrality: covering central {central}, "
                          f"kernel action trivial {trivial_action}")
        if not central:
            noncentral.append((idx, res.prolongation.e.b.order_profile()))

    print(f"processed in {time.time() - t1:.1f}s")
    for key in sorted(stats):
        print(f"  {key}: {stats[key]}")
    print(f"noncentral coverings (nontrivial kernel action): {len(noncentral)}")
    for idx, profile in noncentral:
        print(f"  sweep index {idx}: middle-group order profile {profile}")


if __name__ == "__main__":
    main()

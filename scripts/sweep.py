#!/usr/bin/env python3
"""Run the systematic pre-prolongation sweep and report the landscape.

Every generated pre-prolongation goes through `prolong.sweep.check`: the
obstruction class with the covering it builds, the exhaustive covering
search, the class count against |H^2|, and centrality against the kernel
action.  An input past the covering search's bounds is counted as
oracle-unchecked; its other checks still run.  On the first disagreement
this names the sweep index and the kind of disagreement and exits 1, also
under `python -O`.  Generation builds only valid inputs; a bound hit by
its homomorphism or automorphism searches drops none, but prints the
bound's message to stderr and exits 1.  After two timing lines it prints
`prolong.sweep.landscape`.

Usage: python scripts/sweep.py [--max-kernel N] [--max-cokernel N]
                               [--max-e0 N] [--max-total N]
Each flag sets the SweepConfig field of its name and defaults to it.
"""

from __future__ import annotations

import argparse
import sys
import time

from prolong.errors import OrderBoundExceeded, SearchBoundExceeded
from prolong.sweep import SweepConfig, check, generate_pre_prolongations, landscape


def checked(pres):
    """The report of each input in turn; exits 1 on the first disagreement."""
    for idx, pre in enumerate(pres):
        report = check(pre)
        if report.disagreement is not None:
            print(f"sweep index {idx}: {report.disagreement}", file=sys.stderr)
            sys.exit(1)
        yield report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    defaults = SweepConfig()
    for name in SweepConfig.__slots__:
        parser.add_argument("--" + name.replace("_", "-"), type=int,
                            default=getattr(defaults, name), metavar="N",
                            help="default: %(default)s")
    args = parser.parse_args()

    cfg = SweepConfig(**{name: getattr(args, name) for name in SweepConfig.__slots__})
    t0 = time.time()
    try:
        pres = generate_pre_prolongations(cfg)
    except (OrderBoundExceeded, SearchBoundExceeded) as exc:
        print(f"generation: {exc}", file=sys.stderr)
        sys.exit(1)
    print(f"generated {len(pres)} pre-prolongations in {time.time() - t0:.1f}s")

    t1 = time.time()
    lines = landscape(checked(pres))
    print(f"processed in {time.time() - t1:.1f}s")
    print("\n".join(lines))


if __name__ == "__main__":
    main()

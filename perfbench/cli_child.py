"""Traced CLI query: install the wrappers, then call `prolong.cli.run`.

Usage: python3 perfbench/cli_child.py <request id> <prolong CLI arguments...>

stdout is exactly the CLI's; the last stderr line is `PERFBENCH <json>` with
the import time, the per-layer counts and the spans of this query.
"""

from __future__ import annotations

import json
import sys
import time

import harness


def main() -> int:
    request = int(sys.argv[1])
    harness.use_checkout_sources()
    t0 = time.perf_counter()
    import prolong.cli
    import_s = time.perf_counter() - t0

    import tracing
    tracer = tracing.Tracer()
    tracer.request = request
    missing = tracer.install()
    t1 = time.perf_counter()
    code = prolong.cli.run(sys.argv[2:])
    run_s = time.perf_counter() - t1
    sys.stdout.flush()
    report = {"import_s": import_s, "run_s": run_s, "stats": tracer.stats,
              "missing": missing,
              "spans": tracer.spans}
    print("PERFBENCH " + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

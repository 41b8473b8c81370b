"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep|cohomology|cli --seed N \
        --seconds S --trace 0|1

With --trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it wraps the program's layers from outside and reports the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 only when every answer matched its reference.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

import harness

WORKLOADS = ("sweep", "cohomology", "cli")

# Gated end-to-end metrics, in BENCHMARK.json order.
END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
              "batch_total_s", "batch_geomean_ms", "decided_share", "peak_rss_mb")


def traced_metrics(workload: str, module, seed: int) -> tuple[dict, dict]:
    import tracing
    tracer = tracing.Tracer()
    result = module.traced(seed, tracer)
    values = tracer.layer_values()
    values["cli.import_s"] = harness.median(harness.cli_import_seconds())
    values["snf.smith_normal_form.self_share"] = result["snf_share"]
    values["trace.overhead_s"] = result["overhead_s"]
    spans_path = harness.OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    count = tracer.write_spans(spans_path, result.get("child_spans", ()))
    result["log"].append(f"{count} spans written to {spans_path}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.PER_LAYER}
    return metrics, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        harness.use_checkout_sources()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}; run from the repository root", file=sys.stderr)
        return 2
    harness.precompile()
    module = importlib.import_module(f"workload_{args.workload}")
    t0 = time.perf_counter()
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    if args.trace:
        metrics, result = traced_metrics(args.workload, module, args.seed)
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    else:
        result = module.measure(args.seed, args.seconds)
        table = result["metrics"]
        attempted = max(result["attempted"], 1)
        table.add("error_share", result["failed"] / attempted, "ratio", "lower",
                  attempted, note="wrong answers and exceptions; also in 'failed'")
        print("\n".join(table.report_lines()))
        metrics = {name: {"value": table.items[name]["value"],
                          "unit": table.items[name]["unit"]} for name in END_TO_END}
    for line in result["log"]:
        print(line)
    print(f"wall {time.perf_counter() - t0:.1f}s")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": max(result["attempted"], 1),
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

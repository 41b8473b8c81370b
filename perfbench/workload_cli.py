"""`cli`: a closed loop of one client, each query a fresh CLI process.

Each query is `prolong --format json <command> <scenario>` started as its own
interpreter, one at a time, so every query pays the import and scenario
parsing with cold caches, as a user of the command line does.  Scenarios are
the shipped ones plus a seeded, stratified draw from the generated pool
(see scenarios.py).  Every stdout is compared byte for byte (by SHA-256)
with the answer reviewed at the seed, and answers are checked across queries.
A query that runs past the hang guard, or is not started because the run is
past its deadline, is undecided: it counts in `decided_share`, not as an error.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time

import harness
import scenarios

# What the `prolong` console script runs.
ENTRY = "import sys; from prolong.cli import main; sys.exit(main())"
# Hang guard per query: 20 times the slowest query at the seed.
QUERY_TIMEOUT_S = 10
# Queries not started by then are undecided, so a run ends within 180 s.
RUN_DEADLINE_S = 120


def setup():
    """What every CLI query pays before its command runs: the import."""
    import prolong.cli  # noqa: F401


def run_query(cmd: str, path, traced_request: int | None = None):
    """(exit code, stdout bytes, stderr bytes) of one fresh CLI process."""
    if traced_request is None:
        argv = [sys.executable, "-c", ENTRY]
    else:
        argv = [sys.executable, str(harness.BENCH_DIR / "cli_child.py"),
                str(traced_request)]
    proc = subprocess.run(argv + ["--format", "json", cmd, str(path)],
                          cwd=harness.ROOT, env=harness.child_env(),
                          capture_output=True, timeout=QUERY_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _json(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def parsed(stdout: bytes):
    """stdout as stored beside its hash: the JSON document, else the text."""
    doc = _json(stdout)
    return stdout.decode(errors="replace") if doc is None else doc


def describe_difference(stdout: bytes, reviewed) -> str:
    """Which top-level keys of a JSON answer changed, for the log."""
    doc = parsed(stdout)
    if isinstance(doc, dict) and isinstance(reviewed, dict):
        keys = sorted(k for k in doc.keys() | reviewed.keys()
                      if doc.get(k) != reviewed.get(k))
        return f"stdout differs in {keys or 'layout only'}"
    return "stdout differs"


def cross_check(results: dict[str, tuple[int, bytes]]) -> list[str]:
    """Consistency of one scenario's answers across commands."""
    problems = []
    if "classify" in results and results["classify"][0] == 0:
        doc = _json(results["classify"][1])
        if doc is None or doc.get("class_count") != doc.get("h2_order"):
            problems.append("class_count != h2_order")
    if "obstruction" in results and "build" in results:
        if (results["obstruction"][0] == 0) != (results["build"][0] == 0):
            problems.append("obstruction and build disagree on vanishing")
    if "oracle" in results:
        doc = _json(results["oracle"][1])
        if results["oracle"][0] != 0 or doc is None or doc.get("match") is not True:
            problems.append("oracle reports a mismatch")
    return problems


def run_batch(queries, answers, pool_by_id, deadline: float,
              traced: bool = False) -> dict:
    """Every query once, in order; latencies, failures and undecided queries.

    With `traced`, each query runs twice back to back, plain and through
    cli_child.py, in alternating order, so a drift in the host's speed adds to
    both sums alike.
    """
    times, traced_times, failures, per_scenario, children = [], [], [], {}, []
    undecided = 0
    for n, (sid, cmd) in enumerate(queries):
        path = scenarios.scenario_path(sid, pool_by_id)
        want = answers[sid][cmd]
        order = ((None, n) if n % 2 == 0 else (n, None)) if traced else (None,)
        for request in order:
            if time.perf_counter() > deadline:
                undecided += 1
                continue
            t0 = time.perf_counter()
            try:
                code, out, err = run_query(cmd, path, request)
            except subprocess.TimeoutExpired:
                undecided += 1
                continue
            (times if request is None else traced_times).append(
                time.perf_counter() - t0)
            same = hashlib.sha256(out).hexdigest() == want["sha256"]
            if code != want["exit"] or not same:
                failures.append(
                    f"{sid} {cmd}: exit {code} (reviewed: {want['exit']}), " +
                    ("stdout as reviewed" if same
                     else describe_difference(out, want["stdout"])))
            if request is None:
                per_scenario.setdefault(sid, {})[cmd] = (code, out)
            else:
                children.append(_child_report(err))
    for sid, results in per_scenario.items():
        failures += [f"{sid}: {p}" for p in cross_check(results)]
    return {"times": times, "traced_times": traced_times, "failures": failures,
            "undecided": undecided,
            "attempted": len(queries) * (2 if traced else 1) + len(per_scenario),
            "children": children}


def _child_report(stderr: bytes) -> dict:
    """The traced child's report; empty when it died before writing one."""
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith("PERFBENCH "):
            return json.loads(line[len("PERFBENCH "):])
    return {"import_s": 0.0, "run_s": 0.0, "stats": {}, "missing": [], "spans": []}


def _inputs():
    pool = scenarios.load_pool()
    answers = scenarios.load_answers()
    return pool, answers, {e["id"]: e for e in pool["scenarios"]}


def measure(seed: int, seconds: float) -> dict:
    setup_samples = harness.setup_seconds("cli")
    pool, answers, pool_by_id = _inputs()
    batches = []
    t_start = time.perf_counter()
    while not batches or harness.another_fits(t_start, batches[-1]["times"], seconds):
        queries = scenarios.draw(seed, pool, answers, len(batches))
        batches.append(run_batch(queries, answers, pool_by_id,
                                 t_start + RUN_DEADLINE_S))
    times = [t for b in batches for t in b["times"]]
    queried = len(times) + sum(b["undecided"] for b in batches)
    m = harness.Metrics()
    m.add("setup_s", harness.median(setup_samples), "s", "lower", len(setup_samples),
          note="fresh interpreter importing prolong.cli")
    m.add("ops_per_s", len(times) / sum(times), "1/s", "higher", len(times),
          note="CLI queries per second, one client, closed loop")
    m.add_latency("latency", times)
    m.add("batch_total_s", harness.median([sum(b["times"]) for b in batches]), "s",
          "lower", len(batches), note="one seeded batch of queries")
    m.add("batch_geomean_ms", harness.geomean(times) * 1000.0, "ms", "lower",
          len(times), note="geometric mean per query")
    m.add("decided_share", len(times) / queried, "ratio", "higher", queried,
          note=f"queries answered within the {QUERY_TIMEOUT_S}s hang guard "
               "and the run's deadline")
    m.add("peak_rss_mb", harness.peak_rss_mb(children=True), "MB", "lower",
          len(times) + len(setup_samples), note="largest child process")
    return {"metrics": m, "attempted": sum(b["attempted"] for b in batches),
            "failed": sum(len(b["failures"]) for b in batches),
            "log": [f"batches: {len(batches)}, queries: {len(times)}, "
                    f"undecided: {queried - len(times)}"]
            + [f"  {f}" for b in batches for f in b["failures"]][:10]}


def traced(seed: int, tracer) -> dict:
    """One seeded batch, each query plain and then through cli_child.py."""
    pool, answers, pool_by_id = _inputs()
    queries = scenarios.draw(seed, pool, answers, 0)
    result = run_batch(queries, answers, pool_by_id,
                       time.perf_counter() + RUN_DEADLINE_S, traced=True)
    for child in result["children"]:
        tracer.merge(child["stats"])
    run_s = sum(c["run_s"] for c in result["children"])
    plain_s, traced_s = sum(result["times"]), sum(result["traced_times"])
    missing = sorted({m for c in result["children"] for m in c["missing"]})
    snf_s = tracer.self_seconds("snf.smith_normal_form")
    return {"overhead_s": traced_s - plain_s,
            "snf_share": snf_s / run_s if run_s else 0.0,
            "attempted": result["attempted"], "failed": len(result["failures"]),
            "child_spans": [c["spans"] for c in result["children"]],
            "log": [f"batch traced {traced_s:.3f}s, untraced {plain_s:.3f}s, "
                    f"{len(queries)} queries; cli.run total {run_s:.3f}s; "
                    f"undecided {result['undecided']}",
                    f"targets the program lacks: {missing or 'none'}"]
            + [f"  {f}" for f in result["failures"][:10]]}

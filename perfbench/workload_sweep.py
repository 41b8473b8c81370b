"""`sweep`: every input of the default SweepConfig through the sweep checks.

Each input runs the checks of `scripts/sweep.py`: obstruction class,
crossed-product construction, brute-force coverings, torsor enumeration,
|H^2| and centrality.  A pass starts from cleared program caches, as a fresh
`scripts/sweep.py` process does, and passes repeat until the run's seconds
allow (at least two).  The inputs do not depend on the seed.
"""

from __future__ import annotations

import time
from collections import Counter

import harness

# The landscape of the default sweep, pinned at the seed and cross-checked
# against the count of each kind of answer.
LANDSCAPE = {"inputs": 1101, "obstructed": 56, "vanishing": 1045,
             "classes": {1: 438, 2: 605, 3: 2}, "noncentral": 6}


def setup():
    """Import the program and generate the sweep inputs."""
    from prolong.sweep import SweepConfig, generate_pre_prolongations
    import prolong.classify, prolong.extensions, prolong.obstruction  # noqa: F401
    return generate_pre_prolongations(SweepConfig())


def check_input(pre, tally: Counter) -> bool:
    """One input through every check; False on any disagreement."""
    from prolong.classify import brute_force_coverings, enumerate_classes
    from prolong.cohomology import cohomology_group
    from prolong.errors import ObstructionNonzero
    from prolong.extensions import is_central
    from prolong.obstruction import build_prolongation, derive, obstruction_class

    res = obstruction_class(pre)
    try:
        built = build_prolongation(pre)
        constructed = True
    except ObstructionNonzero:
        constructed = False
    coverings = brute_force_coverings(pre)
    if not constructed == res.vanishes == bool(coverings):
        return False
    if not res.vanishes:
        tally["obstructed"] += 1
        return True
    tally["vanishing"] += 1
    classes = enumerate_classes(pre)
    module = derive(pre).module
    h2 = cohomology_group(2, module)
    if not len(classes) == len(coverings) == h2.order:
        return False
    tally[("classes", len(classes))] += 1
    trivial_action = all(p == tuple(range(pre.a.order)) for p in module.action)
    central = is_central(built.prolongation.e)
    if central != trivial_action:
        return False
    if not central:
        tally["noncentral"] += 1
    return True


def landscape_ok(tally: Counter, inputs: int) -> bool:
    classes = {k[1]: v for k, v in tally.items() if isinstance(k, tuple)}
    return (inputs == LANDSCAPE["inputs"]
            and tally["obstructed"] == LANDSCAPE["obstructed"]
            and tally["vanishing"] == LANDSCAPE["vanishing"]
            and classes == LANDSCAPE["classes"]
            and tally["noncentral"] == LANDSCAPE["noncentral"])


def run_pass(pres, tracer=None) -> dict:
    """One cold pass; per-input check times and the failures it saw."""
    harness.clear_program_caches()
    tally: Counter = Counter()
    times, failures = [], []
    for idx, pre in enumerate(pres):
        if tracer is not None:
            tracer.request = idx
        t0 = time.perf_counter()
        try:
            problem = None if check_input(pre, tally) else "checks disagree"
        except Exception as exc:
            problem = repr(exc)
        times.append(time.perf_counter() - t0)
        if problem:
            failures.append(f"input {idx}: {problem}")
    landscape = landscape_ok(tally, len(pres))
    if not landscape:
        failures.append(f"landscape differs from the pinned one: {dict(tally)}")
    return {"times": times, "failed": len(failures), "failures": failures,
            "attempted": len(pres) + 1, "landscape": landscape}


# Consecutive inputs per window of the latency median, under a second.
WINDOW_INPUTS = 100


def measure(seed: int, seconds: float) -> dict:
    setup_samples = harness.setup_seconds("sweep")
    pres = setup()
    passes = []
    t_start = time.perf_counter()
    while len(passes) < 2 or harness.another_fits(t_start, passes[-1]["times"], seconds):
        passes.append(run_pass(pres))
    m = harness.Metrics()
    m.add("setup_s", harness.median(setup_samples), "s", "lower", len(setup_samples))
    rates = [len(p["times"]) / sum(p["times"]) for p in passes]
    m.add("ops_per_s", harness.median(rates), "1/s", "higher", len(passes),
          note="inputs_per_s: sweep inputs certified per second")
    all_times = [t for p in passes for t in p["times"]]
    m.add_latency("latency", all_times, windows=[
        w for p in passes for w in harness.window_medians(p["times"], WINDOW_INPUTS)])
    m.add("batch_total_s", harness.median([sum(p["times"]) for p in passes]),
          "s", "lower", len(passes), note="check time of one pass of 1101 inputs")
    m.add("batch_geomean_ms",
          harness.median([harness.geomean(p["times"]) * 1000.0 for p in passes]),
          "ms", "lower", len(passes), note="geometric mean per input")
    m.add("decided_share", 1.0, "ratio", "higher", len(all_times),
          note="no per-input limit; every input is decided")
    m.add("peak_rss_mb", harness.peak_rss_mb(), "MB", "lower", 1)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"metrics": m, "attempted": attempted, "failed": failed,
            "log": [f"passes: {len(passes)}; landscape pinned: "
                    f"{all(p['landscape'] for p in passes)}"]
            + [f"  {f}" for f in passes[0]["failures"][:10]]}


OVERHEAD_CHUNKS = 11


def traced(seed: int, tracer) -> dict:
    """Generation and one check pass traced; then the tracing overhead."""
    import prolong.sweep
    import tracing

    def generate(tr=None):
        harness.clear_program_caches()
        # looked up at call time, so a traced run calls the wrapper
        return prolong.sweep.generate_pre_prolongations(prolong.sweep.SweepConfig())

    missing = tracer.install()
    try:
        t0 = time.perf_counter()
        pres = generate()
        t1 = time.perf_counter()
        before = tracer.snapshot()
        result = run_pass(pres, tracer)
        check_s = time.perf_counter() - t1
    finally:
        tracer.uninstall()

    def chunk(k):
        def unit(tr):
            harness.clear_program_caches()
            for pre in pres[k::OVERHEAD_CHUNKS]:
                try:
                    check_input(pre, Counter())
                except Exception:   # counted as a failure by the traced pass
                    pass
        return unit

    # Generation twice (once each order), then every input in cold chunks.
    plain_s, traced_s = tracing.overhead(
        [generate, generate] + [chunk(k) for k in range(OVERHEAD_CHUNKS)])
    return {"overhead_s": traced_s - plain_s,
            "snf_share": tracer.self_seconds("snf.smith_normal_form", before) / check_s,
            "attempted": result["attempted"], "failed": result["failed"],
            "log": [f"  {f}" for f in result["failures"][:10]] + [
                    f"traced: generation {t1 - t0:.3f}s, check phase {check_s:.3f}s",
                    f"overhead runs: untraced {plain_s:.3f}s, traced {traced_s:.3f}s",
                    f"targets the program lacks: {missing or 'none'}"]}

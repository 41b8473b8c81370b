"""`cohomology`: cold H^n builds on a graded ladder beside seeded class queries.

Build phase: each ladder case is a cold `cohomology_group` (program caches
cleared first) under a per-case limit the benchmark enforces with an alarm
in this process.  A case past the limit counts as the limit.  Every decided
case is checked against classical values written out below.

Query phase: a seeded stream of `CohomologyGroup.coordinates` and
`is_coboundary` calls against four groups that are decided today, built
before any ladder case and independent of which ones finish.  The stream
goes round the groups in turn, one query of each kind on each group per
round.  Each query cocycle is `from_coordinates(drawn)` plus the coboundary
of a random cochain.

The two phases alternate in rounds: a slice of queries, then a build round
(the whole ladder in the first round, the decided cases after that).  A
shared host switches between speed states seconds apart, so spreading both
phases over the whole run keeps either from landing in one state.
"""

from __future__ import annotations

import random
import time
from math import gcd

import harness

LIMIT_S = 1.0

# (degree, Pi0, A, action); action names a nontrivial module built below.
# Every case is decided within the limit today except the last three: the two
# targets of the engine rebuild, H^3(S3, Z2) and H^3(D4, Z2), and the S3 action
# on V4 through Aut(V4), which takes about 2.6 s.  Other cases past the limit
# (every other order-8 group, H^3(Z5, Z2), H^3(S3, Z3): 4.5 s and more) are
# left out: each would add a constant second to the capped total, in which the
# decided builds, about 1.7 s of 4.7 today, would weigh ever less.
LADDER = (
    (2, "Z2", "Z2", None), (2, "Z3", "Z3", None), (2, "V4", "Z2", None),
    (2, "V4", "V4", None), (2, "Z4", "Z2", None), (2, "Z4", "V4", None),
    (2, "Z5", "Z2", None), (2, "S3", "Z2", None), (2, "S3", "Z3", None),
    (2, "Z6", "Z2", None), (2, "Z6", "Z3", None),
    (2, "Z2", "Z3", "invert"), (2, "Z2", "V4", "swap"), (2, "Z4", "Z3", "invert"),
    (3, "Z2", "Z2", None), (3, "Z3", "Z3", None), (3, "Z3", "Z2", None),
    (3, "V4", "Z2", None), (3, "Z4", "Z2", None), (3, "Z4", "Z3", None),
    (3, "Z2", "Z3", "invert"), (3, "Z2", "V4", "swap"), (3, "Z4", "Z3", "invert"),
    (2, "S3", "V4", "aut"), (3, "S3", "Z2", None), (3, "D4", "Z2", None),
)

# Groups queried in the query phase, (degree, Pi0, A), with equal weight.  A
# query costs 2-4 ms on the first two and 12-18 ms on the last two.
QUERY_GROUPS = ((2, "S3", "Z2"), (3, "V4", "Z2"), (3, "Z4", "V4"), (2, "D4", "Z2"))
QUERY_KINDS = ("coordinates", "witness")

# Classical values (Brown, Cohomology of Groups, GTM 87).  Mod-2 dimensions of
# H^2 and H^3 with trivial Z2 coefficients; by the universal coefficient
# theorem from H_1, H_2, H_3 of each group.
MOD2_DIMS = {"V4": (3, 4), "D4": (3, 4), "S3": (1, 1)}
# H^n(S3, Z3): H_1 = Z2, H_2 = 0, H_3 = Z6.
S3_MOD3_DIMS = (0, 1)
CYCLIC = {"Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6}


def reference(degree: int, pi: str, a: str, action) -> tuple[int, ...]:
    """Invariant factors of H^degree(pi, a) from the classical values."""
    if action is not None:
        # invert: coprime orders (Z3 under Z2 or Z4); swap: V4 = Z2[Z2] is
        # induced; aut: restricted to a Sylow 2-subgroup, V4 is free over Z2.
        return ()
    if a == "V4":          # V4 = Z2 + Z2 with trivial action
        return reference(degree, pi, "Z2", None) * 2
    k = CYCLIC[a]
    if pi in CYCLIC:
        d = gcd(CYCLIC[pi], k)
        return (d,) if d > 1 else ()
    if k == 2:
        return (2,) * MOD2_DIMS[pi][degree - 2]
    return (3,) * S3_MOD3_DIMS[degree - 2]     # S3 with Z3 coefficients


def _module(pi_name: str, a_name: str, action):
    from prolong.cohomology import pi_module
    from prolong.fixtures import builtin
    from prolong.groups import all_homomorphisms, automorphism_group_table

    pi, a = builtin(pi_name), builtin(a_name)
    if action is None:
        return pi_module(pi, a)
    if action == "invert":       # a generator of the cyclic Pi0 inverts A
        inv = tuple(a.inv)
        ident = tuple(range(a.order))
        return pi_module(pi, a, [inv if x % 2 else ident for x in pi.elements()])
    if action == "swap":         # the nontrivial element swaps two factors of V4
        swap = next(h.map for h in all_homomorphisms(a, a, injective_only=True)
                    if h.map[1] != 1 and h.map[h.map[1]] == 1)
        return pi_module(pi, a, [tuple(range(a.order)), swap])
    if action == "aut":          # S3 acting through an isomorphism S3 -> Aut(V4)
        aut_group, auts = automorphism_group_table(a)
        iso = next(h for h in all_homomorphisms(pi, aut_group, injective_only=True))
        return pi_module(pi, a, [auts[iso.map[x]].map for x in pi.elements()])
    raise ValueError(action)


def setup():
    """Import the program and build the ladder's modules."""
    import prolong.cohomology  # noqa: F401
    return [(deg, _module(p, a, act)) for deg, p, a, act in LADDER]


# ---------------------------------------------------------------------------
# Build phase
# ---------------------------------------------------------------------------

def case_name(idx: int) -> str:
    deg, p, a, act = LADDER[idx]
    return f"H^{deg}({p},{a}{',' + act if act else ''})"


def build_round(cases, indices, tracer=None) -> dict:
    """Cold builds of the given ladder cases: idx -> (seconds, answer).

    The answer is the invariant factors, None past the limit, or the
    exception raised.
    """
    from prolong.cohomology import cohomology_group

    out = {}
    for idx in indices:
        deg, module = cases[idx]
        harness.clear_program_caches()
        if tracer is not None:
            tracer.request = idx
            before = tracer.snapshot()
        try:
            h, elapsed, timed_out = harness.run_with_limit(
                lambda: cohomology_group(deg, module), LIMIT_S)
            answer = None if timed_out else tuple(h.invariant_factors)
        except Exception as exc:
            elapsed, timed_out, answer = LIMIT_S, False, exc
        if tracer is not None:
            snf_s = tracer.self_seconds("snf.smith_normal_form", before)
            tracer.phase["build"] += elapsed
            tracer.phase["build_snf"] += snf_s
            if timed_out:   # counts of an interrupted case are not repeatable
                tracer.restore(before)
            else:
                tracer.phase["decided"] += elapsed
                tracer.phase["decided_snf"] += snf_s
        out[idx] = (elapsed, answer)
    return out


def summarize_builds(rounds: list[dict]) -> dict:
    """Capped per-case times (median over rounds) and the checks."""
    times, decided, failed, log = [], 0, 0, []
    for idx in range(len(LADDER)):
        runs = [r[idx] for r in rounds if idx in r]
        answers = [a for _, a in runs]
        name = case_name(idx)
        if any(a is None for a in answers):
            times.append(LIMIT_S)
            log.append(f"  {name:24s} past {LIMIT_S:g}s limit")
            continue
        elapsed = harness.median([t for t, _ in runs])
        times.append(min(elapsed, LIMIT_S))
        want = reference(*LADDER[idx])
        ok = all(a == want for a in answers)
        decided += ok
        failed += not ok
        log.append(f"  {name:24s} {elapsed * 1000:9.2f} ms  {answers[0]}"
                   + ("" if ok else f"  MISMATCH, expected {want}"))
    return {"times": times, "decided": decided, "failed": failed, "log": log}


# ---------------------------------------------------------------------------
# Query phase
# ---------------------------------------------------------------------------

def query_groups():
    from prolong.cohomology import cohomology_group
    return [cohomology_group(deg, _module(p, a, None)) for deg, p, a in QUERY_GROUPS]


def _random_cochain(rng: random.Random, module, degree: int):
    from prolong.cohomology import cochain_from_values, free_positions
    positions = free_positions(module.pi.order, degree)
    return cochain_from_values(module, degree, {
        pos: rng.randrange(module.a.order) for pos in positions})


def make_query(rng: random.Random, h, kind: str):
    """(target cocycle, drawn coordinates) for one query."""
    from prolong.cohomology import coboundary, cochain_add
    if kind == "witness" and rng.random() < 0.5:
        coords = (0,) * len(h.invariant_factors)
    else:
        coords = tuple(rng.randrange(d) for d in h.invariant_factors)
    noise = coboundary(_random_cochain(rng, h.module, h.degree - 1))
    return cochain_add(h.from_coordinates(coords), noise), coords


def run_query(h, kind: str, target):
    from prolong.cohomology import is_coboundary
    if kind == "coordinates":
        return h.coordinates(target)
    return is_coboundary(target)


def query_ok(h, kind: str, target, coords, answer) -> bool:
    from prolong.cohomology import coboundary
    if kind == "coordinates":
        return tuple(answer) == coords
    if answer is None:
        return any(coords)
    return not any(coords) and coboundary(answer).values == target.values


ROUND_SIZE = len(QUERY_GROUPS) * len(QUERY_KINDS)


def query_stream(seed: int):
    """Round after round of one query of each kind on each group.

    The seed draws the coordinates and cochains; the mix does not depend on it.
    """
    rng = random.Random(seed)
    n = 0
    while True:
        for g in range(len(QUERY_GROUPS)):
            for kind in QUERY_KINDS:
                yield n, g, kind, rng
                n += 1


def run_queries(groups, stream, seconds: float | None, count: int | None,
                tracer=None) -> dict:
    """Whole rounds of queries from the stream for `seconds`, or `count` queries."""
    times, failures = [], []
    t_start = time.perf_counter()
    for n, g, kind, rng in stream:
        h = groups[g]
        target, coords = make_query(rng, h, kind)
        if tracer is not None:
            tracer.request = 1000 + n
        t0 = time.perf_counter()
        try:
            answer = run_query(h, kind, target)
            elapsed = time.perf_counter() - t0
            problem = None if query_ok(h, kind, target, coords, answer) else "wrong answer"
        except Exception as exc:
            elapsed, problem = time.perf_counter() - t0, repr(exc)
        times.append(elapsed)
        if problem:
            failures.append(f"query {n} ({kind} on {QUERY_GROUPS[g]}): {problem}")
        if len(times) % ROUND_SIZE:
            continue
        if count is not None and len(times) >= count:
            break
        if seconds is not None and time.perf_counter() - t_start >= seconds:
            break
    return {"times": times, "failures": failures}


def warm_queries(groups) -> None:
    """One untimed query of each kind per group, so lazy caches are filled."""
    rng = random.Random(0)
    for h in groups:
        for kind in QUERY_KINDS:
            run_query(h, kind, make_query(rng, h, kind)[0])


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

# Share of the run's seconds given to queries; the rest goes to the ladder.
QUERY_SHARE = 0.5
ROUNDS = 4
# Query rounds per window of the latency median, about a second.
WINDOW_ROUNDS = 16


def interleaved(cases, groups, seed: int, query_seconds: float | None,
                query_count: int | None, rounds: int, tracer=None) -> dict:
    """Query slices alternating with build rounds; see the module docstring."""
    stream = query_stream(seed)
    builds, qtimes, qfailures, peak_rss = [], [], [], 0.0
    decided = range(len(LADDER))
    for r in range(rounds):
        warm_queries(groups)
        part = run_queries(groups, stream,
                           query_seconds / rounds if query_seconds else None,
                           query_count // rounds if query_count else None, tracer)
        qtimes += part["times"]
        qfailures += part["failures"]
        if r == 0:
            # Read before any build: an interrupted build stops at a point
            # that depends on timing, and so would the memory it holds.
            peak_rss = harness.peak_rss_mb()
        builds.append(build_round(cases, decided, tracer))
        decided = [i for i, (_, a) in builds[0].items() if isinstance(a, tuple)]
    return {"builds": summarize_builds(builds), "query_times": qtimes,
            "query_failures": qfailures, "peak_rss": peak_rss}


def measure(seed: int, seconds: float) -> dict:
    setup_samples = harness.setup_seconds("cohomology")
    cases = setup()
    groups = query_groups()
    run = interleaved(cases, groups, seed, QUERY_SHARE * seconds, None, ROUNDS)
    build, qt = run["builds"], run["query_times"]
    rounds = [sum(qt[i:i + ROUND_SIZE]) for i in range(0, len(qt), ROUND_SIZE)]

    m = harness.Metrics()
    m.add("setup_s", harness.median(setup_samples), "s", "lower", len(setup_samples))
    m.add("ops_per_s", len(qt) / sum(qt), "1/s", "higher", len(qt),
          note="queries_per_s: coordinates and witness queries per second")
    # Latency of one round of the mix: per query, the quantiles would fall in
    # the gap between the cheap and the dear groups and jump between runs.
    m.add_latency("latency", rounds,
                  note=f"one round: {ROUND_SIZE} queries, each kind on each group",
                  windows=harness.window_medians(rounds, WINDOW_ROUNDS))
    m.add("batch_total_s", sum(build["times"]), "s", "lower", len(build["times"]),
          note=f"build_total_s: cold builds, each capped at {LIMIT_S:g}s")
    m.add("batch_geomean_ms", harness.geomean(build["times"]) * 1000.0, "ms",
          "lower", len(build["times"]), note="build_geomean_ms")
    m.add("decided_share", build["decided"] / len(LADDER), "ratio", "higher",
          len(LADDER), note="cases decided within the limit")
    m.add("peak_rss_mb", run["peak_rss"], "MB", "lower", 1,
          note="query groups built and queried; read before the first build")
    return {"metrics": m, "attempted": len(LADDER) + len(qt),
            "failed": build["failed"] + len(run["query_failures"]),
            "log": [f"build phase (median over {ROUNDS} rounds per decided case):"]
            + build["log"] + [f"  {f}" for f in run["query_failures"][:10]]}


TRACE_QUERIES = 10 * ROUND_SIZE


def traced(seed: int, tracer) -> dict:
    """A fixed number of queries and one ladder round traced; then the overhead."""
    import tracing

    tracer.phase = dict.fromkeys(("build", "build_snf", "decided", "decided_snf"), 0.0)
    missing = tracer.install()
    try:
        cases, groups = setup(), query_groups()
        run = interleaved(cases, groups, seed, None, TRACE_QUERIES, 1, tracer)
    finally:
        tracer.uninstall()
    phase = tracer.phase

    # Overhead: the same queries and the decided builds, run both ways.
    rng = random.Random(seed)
    inputs = [(h, kind, make_query(rng, h, kind)[0])
              for _ in range(TRACE_QUERIES // ROUND_SIZE)
              for h in groups for kind in QUERY_KINDS]
    warm_queries(groups)

    def queries(part):
        return lambda tr: [run_query(h, kind, t) for h, kind, t in part]

    def build(idx):
        from prolong import cohomology
        deg, module = cases[idx]
        return lambda tr: (harness.clear_program_caches(),
                           cohomology.cohomology_group(deg, module))

    decided = [i for i in range(len(LADDER)) if run["builds"]["times"][i] < LIMIT_S]
    plain_s, traced_s = tracing.overhead(
        [queries(inputs[k::4]) for k in range(4)] + [build(i) for i in decided])
    return {"overhead_s": traced_s - plain_s,
            "snf_share": phase["decided_snf"] / phase["decided"],
            "attempted": len(LADDER) + TRACE_QUERIES,
            "failed": run["builds"]["failed"] + len(run["query_failures"]),
            "log": [f"build phase traced {phase['build']:.3f}s, SNF self share "
                    f"{phase['build_snf'] / phase['build']:.3f}; decided cases "
                    f"{phase['decided']:.3f}s, SNF self share "
                    f"{phase['decided_snf'] / phase['decided']:.3f}",
                    f"overhead runs: untraced {plain_s:.3f}s, traced {traced_s:.3f}s",
                    f"targets the program lacks: {missing or 'none'}"]
            + [f"  {f}" for f in run["query_failures"][:10]]}

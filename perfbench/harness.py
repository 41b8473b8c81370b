"""Shared pieces of the benchmark: paths, timing statistics, caches, probes.

Everything here uses the standard library only, so a workload module can be
imported without importing `prolong`; the program itself is imported from
`src/` of the checkout the benchmark runs in.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class MissingProgram(RuntimeError):
    pass


def use_checkout_sources() -> None:
    """Put the checkout's `src/` first on the import path, or fail."""
    if not (SRC / "prolong" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def precompile() -> None:
    """Write bytecode for the program once, so no timed import compiles."""
    import compileall
    compileall.compile_dir(str(SRC), quiet=1)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest standard percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in (50.0, 90.0, 95.0, 99.0, 99.9):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            best = (pct, ordered[rank - 1])
    return best


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: list[float]) -> float:
    return statistics.median(values)


def window_medians(values: list[float], size: int) -> list[float]:
    """Medians of consecutive windows of `size` values, without a partial last one.

    The host this was built on runs identical work in speed states seconds
    apart.  Where the times are narrow within one state, a run-wide median
    reads whichever state held longer and jumps between runs; the mean of
    window medians weighs each state by the time it held.
    """
    return [median(values[i:i + size]) for i in range(0, len(values) - size + 1, size)]


def another_fits(t_start: float, last_times: list[float], seconds: float) -> bool:
    """Whether one more batch as long as the last one ends within `seconds`."""
    return time.perf_counter() - t_start + sum(last_times) <= seconds


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Metrics:
    """Named metrics, each with unit, direction and sample count."""

    def __init__(self):
        self.items: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, better: str,
            samples: int, note: str = "") -> None:
        self.items[name] = {"value": value, "unit": unit, "better": better,
                            "samples": samples, "note": note}

    def add_latency(self, prefix: str, seconds: list[float], note: str = "",
                    windows: list[float] | None = None) -> None:
        """Median and p90 in ms, plus the highest well-sampled percentile.

        With `windows` (see window_medians), the median is their mean.
        """
        ms = sorted(s * 1000.0 for s in seconds)
        n = len(ms)
        if windows:
            self.add(f"{prefix}_p50_ms", 1000.0 * sum(windows) / len(windows), "ms",
                     "lower", n, note=f"{note + '; ' if note else ''}mean of the "
                     f"medians of {len(windows)} windows; run-wide {median(ms):.2f}")
        else:
            self.add(f"{prefix}_p50_ms", median(ms), "ms", "lower", n, note=note)
        self.add(f"{prefix}_p90_ms", nearest_rank(ms, 90.0), "ms", "lower", n,
                 note=note if n >= 100 else "fewer than ten samples beyond p90")
        tail = tail_percentile(ms)
        if tail is not None:
            pct, value = tail
            self.add(f"{prefix}_p{pct:g}_ms".replace(".", "_"), value, "ms",
                     "lower", n, note="highest percentile with >= 10 samples beyond")

    def report_lines(self) -> list[str]:
        lines = []
        for name, m in self.items.items():
            note = f"  ({m['note']})" if m["note"] else ""
            lines.append(f"  {name:34s} {m['value']:>14.6g} {m['unit']:6s} "
                         f"{m['better']:6s} n={m['samples']}{note}")
        return lines


# ---------------------------------------------------------------------------
# The program's caches
# ---------------------------------------------------------------------------

def clear_program_caches() -> None:
    """Empty every functools cache in the loaded `prolong` modules.

    A pass that starts from cleared caches costs what it costs in a fresh
    process, which is what a user running the program once pays.
    """
    for name, module in list(sys.modules.items()):
        if name == "prolong" or name.startswith("prolong."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


# ---------------------------------------------------------------------------
# Per-case time limit, enforced by the benchmark in its own process
# ---------------------------------------------------------------------------

class CaseTimeout(BaseException):
    """Raised inside a case that ran past its limit.

    A BaseException, so no `except Exception` in the program swallows it.
    """


def _raise_timeout(signum, frame):
    raise CaseTimeout()


def run_with_limit(fn, limit_s: float):
    """(result, elapsed_s, timed_out) for fn() under a wall-clock limit."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return result, time.perf_counter() - t0, False
    except CaseTimeout:
        return None, time.perf_counter() - t0, True
    finally:
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Fresh-process probes
# ---------------------------------------------------------------------------

def time_fresh_process(argv: list[str], timeout_s: float = 120.0) -> float:
    """Wall time from spawn to exit of one child; raises if it fails."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=timeout_s)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv[1:]} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-400:]}")
    return elapsed


def setup_seconds(workload: str, repeats: int = 9) -> list[float]:
    """Fresh interpreter to inputs ready, `repeats` times in turn."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload]
    return [time_fresh_process(argv) for _ in range(repeats)]


def cli_import_seconds(repeats: int = 3) -> list[float]:
    """In-process import time of `prolong.cli`, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import prolong.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        values.append(float(proc.stdout.strip()))
    return values

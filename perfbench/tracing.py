"""Outside-in tracing: wrap the program's public functions from the benchmark.

`install()` replaces each traced function by a wrapper in every loaded
`prolong.*` module namespace that holds it, and each traced method on its
class.  A wrapper records one span per call (name, start, end, parent,
request id) and the counts of its layer.  Spans stay in memory until
`write_spans`; self time is a span's duration minus the time its child spans
cover.  Nothing in `src/` changes, and nothing is wrapped unless `install()`
is called, so untimed and timed runs execute the program untouched.
"""

from __future__ import annotations

import copy
import gzip
import importlib
import sys
import time
from pathlib import Path

# (metric prefix, module, attribute path, extra count)
TARGETS = (
    ("groups.validate_group", "prolong.groups", "validate_group", None),
    ("groups.Homomorphism", "prolong.groups", "Homomorphism.__post_init__", None),
    ("groups.all_homomorphisms", "prolong.groups", "all_homomorphisms", "results"),
    ("groups.automorphism_group_table", "prolong.groups",
     "automorphism_group_table", None),
    ("sweep.generate_pre_prolongations", "prolong.sweep",
     "generate_pre_prolongations", "inputs"),
    ("crossed.check_crossed_module", "prolong.crossed", "check_crossed_module", None),
    ("crossed.induce_crossed_module", "prolong.crossed", "induce_crossed_module", None),
    ("extensions.validate_prolongation", "prolong.extensions",
     "validate_prolongation", None),
    ("extensions.induced_sequence", "prolong.extensions", "induced_sequence", None),
    ("obstruction.derive", "prolong.obstruction", "derive", None),
    ("obstruction.obstruction_class", "prolong.obstruction", "obstruction_class", None),
    ("obstruction.crossed_product", "prolong.obstruction", "crossed_product", None),
    ("obstruction.build_prolongation", "prolong.obstruction", "build_prolongation", None),
    ("snf.smith_normal_form", "prolong.snf", "smith_normal_form", "cells"),
    ("snf.solve_integer", "prolong.snf", "solve_integer", None),
    ("snf.kernel_basis", "prolong.snf", "kernel_basis", None),
    ("cohomology.cohomology_group", "prolong.cohomology", "cohomology_group", None),
    ("cohomology.coboundary", "prolong.cohomology", "coboundary", None),
    ("cohomology.CohomologyGroup.coordinates", "prolong.cohomology",
     "CohomologyGroup.coordinates", None),
    ("cohomology.is_coboundary", "prolong.cohomology", "is_coboundary", None),
    ("classify.enumerate_classes", "prolong.classify", "enumerate_classes", None),
    ("classify.are_equivalent", "prolong.classify", "are_equivalent", "hit_ratio"),
    ("classify.brute_force_coverings", "prolong.classify",
     "brute_force_coverings", "found"),
    ("scenario.load_scenario", "prolong.scenario", "load_scenario", None),
    ("cli.run", "prolong.cli", "run", None),
)

# Every per-layer metric, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("groups.validate_group.calls", "count"), ("groups.validate_group.self_s", "s"),
    ("groups.Homomorphism.calls", "count"), ("groups.Homomorphism.self_s", "s"),
    ("groups.all_homomorphisms.calls", "count"),
    ("groups.all_homomorphisms.self_s", "s"),
    ("groups.all_homomorphisms.results", "count"),
    ("groups.automorphism_group_table.total_s", "s"),
    ("sweep.generate_pre_prolongations.total_s", "s"),
    ("sweep.generate_pre_prolongations.inputs", "count"),
    ("crossed.check_crossed_module.calls", "count"),
    ("crossed.check_crossed_module.self_s", "s"),
    ("crossed.induce_crossed_module.calls", "count"),
    ("crossed.induce_crossed_module.total_s", "s"),
    ("extensions.validate_prolongation.calls", "count"),
    ("extensions.validate_prolongation.self_s", "s"),
    ("extensions.induced_sequence.calls", "count"),
    ("extensions.induced_sequence.total_s", "s"),
    ("obstruction.derive.calls", "count"), ("obstruction.derive.total_s", "s"),
    ("obstruction.obstruction_class.calls", "count"),
    ("obstruction.obstruction_class.total_s", "s"),
    ("obstruction.crossed_product.calls", "count"),
    ("obstruction.crossed_product.self_s", "s"),
    ("obstruction.build_prolongation.calls", "count"),
    ("obstruction.build_prolongation.total_s", "s"),
    ("snf.smith_normal_form.calls", "count"), ("snf.smith_normal_form.self_s", "s"),
    ("snf.smith_normal_form.cells", "count"),
    ("snf.solve_integer.calls", "count"), ("snf.kernel_basis.calls", "count"),
    ("cohomology.cohomology_group.calls", "count"),
    ("cohomology.cohomology_group.total_s", "s"),
    ("cohomology.coboundary.calls", "count"), ("cohomology.coboundary.self_s", "s"),
    ("cohomology.CohomologyGroup.coordinates.calls", "count"),
    ("cohomology.CohomologyGroup.coordinates.total_s", "s"),
    ("cohomology.is_coboundary.calls", "count"),
    ("cohomology.is_coboundary.total_s", "s"),
    ("classify.enumerate_classes.calls", "count"),
    ("classify.enumerate_classes.total_s", "s"),
    ("classify.are_equivalent.calls", "count"),
    ("classify.are_equivalent.total_s", "s"),
    ("classify.are_equivalent.hit_ratio", "ratio"),
    ("classify.brute_force_coverings.calls", "count"),
    ("classify.brute_force_coverings.total_s", "s"),
    ("classify.brute_force_coverings.found", "count"),
    ("scenario.load_scenario.calls", "count"), ("scenario.load_scenario.total_s", "s"),
    ("cli.run.calls", "count"), ("cli.run.total_s", "s"),
    ("cli.import_s", "s"),
    ("snf.smith_normal_form.self_share", "ratio"),
    ("trace.overhead_s", "s"),
)


def _new_stat() -> dict:
    # extra: results / inputs / cells / found summed, or non-None returns
    return {"calls": 0, "total_ns": 0, "self_ns": 0, "extra": 0}


class Tracer:
    def __init__(self):
        names = [t[0] for t in TARGETS]
        self.stats: dict[str, dict] = {n: _new_stat() for n in names}
        self.spans: list[tuple] = []     # (name, start_ns, end_ns, parent, request)
        self.request = -1
        self._stack: list[list] = []     # [span index, child ns]
        self._active: dict[str, int] = dict.fromkeys(names, 0)
        self._installed: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, extra: str | None):
        stats = self.stats[name]
        spans = self.spans
        stack = self._stack
        active = self._active
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            outermost = active[name] == 0
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[index] = (name, start, end, parent, self.request)
                stats["calls"] += 1
                stats["self_ns"] += dur - frame[1]
                if outermost:
                    stats["total_ns"] += dur
            if extra in ("results", "inputs", "found"):
                stats["extra"] += len(result)
            elif extra == "cells":
                a = args[0]
                rows = args[1] if len(args) > 1 and args[1] is not None else len(a)
                cols = (args[2] if len(args) > 2 and args[2] is not None
                        else (len(a[0]) if a else 0))
                stats["extra"] += rows * cols
            elif extra == "hit_ratio" and result is not None:
                stats["extra"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> list[str]:
        """Wrap every target; all `prolong` modules must already be imported.

        A target the program no longer has is skipped and reported, so its
        metrics read zero instead of the benchmark failing.
        """
        missing = []
        for name, module_name, path, extra in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is None:
                    missing.append(name)
                    continue
                setattr(cls, meth, self.wrap(name, orig, extra))
                self._installed.append((cls, meth, orig))
                continue
            orig = getattr(module, path, None)
            if orig is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, orig, extra)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "prolong" or mod_name.startswith("prolong.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._installed.append((mod, attr, orig))
        return missing

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        return copy.deepcopy(self.stats)

    def restore(self, snap: dict) -> None:
        """Counts back to a snapshot, after an interrupted call at top level.

        The interrupt may land inside a wrapper's own bookkeeping, so the
        span stack is reset too.
        """
        for name, stat in snap.items():
            self.stats[name].update(stat)
        self._stack.clear()
        for name in self._active:
            self._active[name] = 0

    def merge(self, stats: dict) -> None:
        for name, stat in stats.items():
            for key, value in stat.items():
                self.stats[name][key] += value

    def self_seconds(self, name: str, since: dict | None = None) -> float:
        ns = self.stats[name]["self_ns"] - (since[name]["self_ns"] if since else 0)
        return ns / 1e9

    # -- output ------------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Every per-layer metric derived from the recorded counts."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat["calls"]
            out[f"{name}.self_s"] = stat["self_ns"] / 1e9
            out[f"{name}.total_s"] = stat["total_ns"] / 1e9
            for key in ("results", "inputs", "cells", "found"):
                out[f"{name}.{key}"] = stat["extra"]
            out[f"{name}.hit_ratio"] = (stat["extra"] / stat["calls"]
                                        if stat["calls"] else 0.0)
        return out

    def write_spans(self, path: Path, extra_spans=()) -> int:
        """Spans as tab-separated rows: name start_ns end_ns parent request.

        `parent` is the row number of the parent span, -1 at top level.
        `extra_spans` are span lists of other processes (the CLI children),
        each numbered from 0 on its own.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for group in (self.spans, *extra_spans):
                base = count
                for span in group:
                    # None: a span whose bookkeeping a case limit interrupted
                    name, start, end, parent, request = (
                        span or ("interrupted", 0, 0, -1, -1))
                    parent = base + parent if parent >= 0 else -1
                    fh.write(f"{name}\t{start}\t{end}\t{parent}\t{request}\n")
                    count += 1
        return count


def overhead(units) -> tuple[float, float]:
    """(untraced s, traced s) summed over `units`, each run both ways.

    A unit is a callable taking a tracer or None; it must do the same work
    either way.  Consecutive units swap which way runs first, so a drift in
    the host's speed adds to both sums alike.  The probe tracer's counts are
    discarded: the per-layer counts come from the workload's own traced pass.
    """
    probe = Tracer()
    sums = {False: 0.0, True: 0.0}
    for i, unit in enumerate(units):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                probe.install()
            t0 = time.perf_counter()
            try:
                unit(probe if with_trace else None)
            finally:
                sums[with_trace] += time.perf_counter() - t0
                if with_trace:
                    probe.uninstall()
    return sums[False], sums[True]

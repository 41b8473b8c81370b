"""The `cli` workload's inputs: shipped scenarios plus a pool of generated ones.

The pool (`data/pool.json`) holds pre-prolongation scenario documents written
by `refresh_data.py`; the library has no serializer for that mode, so
`pre_prolongation_document` below writes them.  Inputs fall into strata by
size, and the pool records how many inputs of the larger generated sweep lie
in each.  Pool and draw take from each stratum in proportion to those counts,
so every seed asks for the mix of sizes of the larger sweep.  Answers
(`data/answers.json`) are the exit code, the SHA-256 of stdout and the stdout
itself of every (scenario, command) pair, recorded at the seed and reviewed.
"""

from __future__ import annotations

import json
import random

import harness

DATA_DIR = harness.BENCH_DIR / "data"
POOL_PATH = DATA_DIR / "pool.json"
ANSWERS_PATH = DATA_DIR / "answers.json"
SHIPPED_DIR = harness.SRC / "prolong" / "fixtures" / "scenarios"

SHIPPED = ("canonical_order4", "cohomology_z2", "inversion_action",
           "klein_ladder", "klein_quotient", "ladder_pair", "obstructed")
ALL_COMMANDS = ("validate", "cohomology", "obstruction", "build", "classify",
                "equiv", "pullback", "oracle")
# The commands a pre-prolongation scenario supports.
PRE_COMMANDS = ("validate", "cohomology", "obstruction", "build", "classify",
                "oracle")
# `oracle` refuses above this middle-group order by its documented bound.
ORACLE_MAX_ORDER = 16
# Pool scenarios drawn per batch.
DRAW_SIZE = 19


def stratum(pi0: int, a_order: int) -> str:
    """The size stratum of an input: `p<|Pi0|>`, or `p4a<|A|>` at |Pi0| = 4.

    At |Pi0| = 4 the cost depends on the kernel: with |A| >= 2 the H^3 behind
    obstruction, build, classify and oracle costs 0.15-0.5 s.
    """
    return f"p{pi0}" if pi0 < 4 else f"p4a{a_order}"


def allocate(counts: dict[str, int], total: int) -> dict[str, int]:
    """`total` split in proportion to `counts`, by largest remainder."""
    whole = sum(counts.values())
    shares = {k: total * c / whole for k, c in counts.items()}
    out = {k: int(v) for k, v in shares.items()}
    by_remainder = sorted(shares, key=lambda k: out[k] - shares[k])
    for k in by_remainder[:total - sum(out.values())]:
        out[k] += 1
    return out


def pre_prolongation_document(pre) -> dict:
    """A pre-prolongation as a scenario document with inline group tables."""
    def table(g, name):
        return {"name": name, "order": g.order, "table": [list(r) for r in g.table]}

    def hom(src, tgt, f):
        return {"source": src, "target": tgt, "map": list(f.map)}

    return {
        "mode": "pre-prolongation",
        "groups": {"A0": table(pre.e0.a, "A0"), "B0": table(pre.e0.b, "B0"),
                   "G0": table(pre.e0.g, "G0"), "A": table(pre.a, "A"),
                   "G": table(pre.g, "G")},
        "homs": {"j0": hom("A0", "B0", pre.e0.j), "p0": hom("B0", "G0", pre.e0.p),
                 "alpha": hom("A0", "A", pre.alpha),
                 "gamma": hom("G0", "G", pre.gamma)},
        "e0": {"j": "j0", "p": "p0"},
        "alpha": "alpha",
        "gamma": "gamma",
        "theta": [list(p) for p in pre.theta],
    }


def load_pool() -> dict:
    """{"natural": inputs of the larger sweep per stratum, "scenarios": [...]}"""
    return json.loads(POOL_PATH.read_text())


def load_answers() -> dict:
    return json.loads(ANSWERS_PATH.read_text())


def scenario_path(entry_id: str, pool_by_id: dict):
    """Path of a scenario file, writing pool scenarios out on first use."""
    kind, name = entry_id.split("/", 1)
    if kind == "shipped":
        return SHIPPED_DIR / f"{name}.json"
    path = harness.OUT_DIR / "scenarios" / f"{name}.json"
    text = json.dumps(pool_by_id[entry_id]["scenario"])
    if not path.exists() or path.read_text() != text:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return path


def draw(seed: int, pool: dict, answers: dict, batch: int) -> list[tuple]:
    """One seeded batch of (scenario id, command) queries in seeded order."""
    rng = random.Random(f"{seed}/{batch}")
    strata: dict[str, list[dict]] = {}
    for entry in pool["scenarios"]:
        strata.setdefault(entry["stratum"], []).append(entry)
    ids = [f"shipped/{name}" for name in SHIPPED]
    for key, count in allocate(pool["natural"], DRAW_SIZE).items():
        ids += [e["id"] for e in rng.sample(strata.get(key, []), count)]
    queries = [(sid, cmd) for sid in ids for cmd in answers[sid]]
    rng.shuffle(queries)
    return queries

"""Rebuild `data/pool.json` and `data/answers.json` from the current program.

Run from the repository root, only when the inputs or the reviewed answers
must change (a change to the CLI's JSON output is a behaviour change):

    python3 perfbench/refresh_data.py

The pool takes POOL_SIZE pre-prolongations from the larger generated sweep
(|Pi0| <= 4, middle-group order <= 32), evenly spaced within each stratum
(see scenarios.stratum), each stratum in proportion to its share of that
sweep; the share is recorded with the pool.  Every (scenario, command) pair
the scenario supports is run once as a fresh `prolong --format json` process;
its exit code, the SHA-256 of its stdout and the stdout itself (parsed,
when it is JSON) become the answer, one answer per line of the file.  An
exit other than 0 or 3 (nonzero obstruction) stops the script, except exit 2
for a shipped scenario that lacks what a command needs.  The cross-query checks of the
`cli` workload are applied too, and answers that fail them are not written.
"""

from __future__ import annotations

import hashlib
import json
import sys

import harness
import scenarios
import workload_cli

POOL_SIZE = 60


def build_pool() -> dict:
    from prolong.obstruction import derive
    from prolong.sweep import SweepConfig, generate_pre_prolongations

    pres = generate_pre_prolongations(SweepConfig(max_cokernel=4, max_total=32))
    strata: dict[str, list] = {}
    for pre in pres:
        key = scenarios.stratum(derive(pre).pi0.order, pre.a.order)
        strata.setdefault(key, []).append(pre)
    natural = {key: len(members) for key, members in sorted(strata.items())}
    pool = []
    for key, size in scenarios.allocate(natural, POOL_SIZE).items():
        members = strata[key]
        step = len(members) / size
        for k in range(size):
            pre = members[int(k * step)]
            pool.append({"id": f"pool/{key}_{k:02d}", "stratum": key,
                         "middle_order": pre.a.order * pre.g.order,
                         "scenario": scenarios.pre_prolongation_document(pre)})
    return {"natural": natural, "scenarios": pool}


def dump_answers(answers: dict) -> str:
    """JSON with one answer per line, so a changed answer is a changed line."""
    blocks = []
    for sid in sorted(answers):
        rows = ",\n".join(f"  {json.dumps(cmd)}: {json.dumps(a, sort_keys=True)}"
                          for cmd, a in sorted(answers[sid].items()))
        blocks.append(f" {json.dumps(sid)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> None:
    harness.use_checkout_sources()
    pool = build_pool()
    scenarios.DATA_DIR.mkdir(exist_ok=True)
    scenarios.POOL_PATH.write_text(json.dumps(pool, separators=(",", ":")) + "\n")
    pool_by_id = {e["id"]: e for e in pool["scenarios"]}

    answers: dict[str, dict] = {}
    entries = [(f"shipped/{n}", None) for n in scenarios.SHIPPED]
    entries += [(e["id"], e["middle_order"]) for e in pool["scenarios"]]
    for sid, middle in entries:
        commands = scenarios.ALL_COMMANDS if middle is None else scenarios.PRE_COMMANDS
        path = scenarios.scenario_path(sid, pool_by_id)
        found, outputs = {}, {}
        for cmd in commands:
            if cmd == "oracle" and middle is not None \
                    and middle > scenarios.ORACLE_MAX_ORDER:
                continue
            code, out, _ = workload_cli.run_query(cmd, path)
            if code == 2 and middle is None:
                # a shipped scenario without the data this command needs
                print(f"  skip {sid} {cmd}: exit {code}", file=sys.stderr)
                continue
            if code not in (0, 3):
                sys.exit(f"{sid} {cmd}: exit {code}")
            found[cmd] = {"exit": code, "sha256": hashlib.sha256(out).hexdigest(),
                          "stdout": workload_cli.parsed(out)}
            outputs[cmd] = (code, out)
        problems = workload_cli.cross_check(outputs)
        if problems:
            sys.exit(f"{sid}: cross-query checks fail: {problems}")
        answers[sid] = found
        print(f"{sid}: " + " ".join(f"{c}={a['exit']}" for c, a in found.items()))
    scenarios.ANSWERS_PATH.write_text(dump_answers(answers))
    print(f"{len(pool['scenarios'])} pool scenarios, "
          f"{sum(len(v) for v in answers.values())} answers")


if __name__ == "__main__":
    main()

"""Batch command-line front end.

Subcommands: validate, cohomology, obstruction, build, classify, equiv,
oracle, pullback.  Text output is human-oriented and unstable; JSON output
(--format json) is the compatibility surface and is byte-deterministic for
identical inputs and flags.

Exit codes: 0 success / vanishing class, 1 usage error, 2 invalid scenario,
3 nonzero obstruction (or inequivalent ladders), 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .classify import (
    DEFAULT_BRUTE_ORDER,
    are_equivalent,
    brute_force_coverings,
    enumerate_classes,
)
from .cohomology import cohomology_group
from .errors import InvalidProlongation, ObstructionNonzero, ProlongError, ScenarioError
from .extensions import pullback, validate_prolongation
from .fixtures import group_to_json
from .obstruction import (
    build_prolongation,
    derive,
    obstruction_class,
    validate_pre,
    verify_covering,
)
from .scenario import Scenario, load_scenario, prolongation_to_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NONZERO = 3
EXIT_MISMATCH = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="prolong",
                     description="Obstruction theory and classification for "
                                 "prolongations of central extensions")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_cmd(name, help_text, **extra):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("scenario", help="path to a scenario JSON document")
        for flag, kwargs in extra.items():
            cmd.add_argument(flag, **kwargs)
        return cmd

    scenario_cmd("validate", "validate a scenario and report every violation")
    scenario_cmd("cohomology", "invariant factors of H^n of the scenario module",
                 **{"--degree": {"type": int, "choices": (1, 2, 3), "default": None},
                    "--basis": {"action": "store_true"}})
    scenario_cmd("obstruction", "compute the obstruction class",
                 **{"--seed": {"type": int, "default": None}})
    scenario_cmd("build", "build a covering prolongation when the class vanishes",
                 **{"--seed": {"type": int, "default": None},
                    "--out": {"default": None}})
    scenario_cmd("classify", "enumerate equivalence classes of coverings")
    scenario_cmd("equiv", "decide equivalence of the two ladders of a scenario")
    scenario_cmd("oracle", "diff brute-force coverings against the enumeration",
                 **{"--max-order": {"type": int, "default": DEFAULT_BRUTE_ORDER}})
    scenario_cmd("pullback", "pull the ladder row back along gamma")
    return parser


def _emit(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2), file=out)
        return
    for line in _text_lines(payload):
        print(line, file=out)


def _text_lines(payload: dict, indent: str = ""):
    for key in payload:
        value = payload[key]
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _text_lines(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield f"{indent}{key}:"
            for item in value:
                lines = list(_text_lines(item, indent + "    "))
                if lines:
                    yield indent + "  - " + lines[0].lstrip()
                    yield from lines[1:]
        else:
            yield f"{indent}{key}: {value}"


def _cmd_validate(scn: Scenario, args) -> tuple[int, dict]:
    if scn.mode == "pre-prolongation":
        report = validate_pre(scn.pre_prolongation())
        code = EXIT_OK if report.ok else EXIT_INVALID
        return code, {"command": "validate", "mode": scn.mode,
                      "report": report.as_dict()}
    if scn.mode == "full-ladder":
        payload: dict = {"command": "validate", "mode": scn.mode, "ladders": []}
        code = EXIT_OK
        for idx, ladder in enumerate(scn.ladders):
            report = validate_prolongation(ladder)
            entry = {"index": idx, "report": report.as_dict()}
            if report.ok and scn.theta is not None:
                entry["covering"] = verify_covering(ladder, scn.pre_prolongation())
            payload["ladders"].append(entry)
            if not report.ok:
                code = EXIT_INVALID
        return code, payload
    module = scn.module()
    return EXIT_OK, {"command": "validate", "mode": scn.mode,
                     "module": {"pi_order": module.pi.order,
                                "coefficient_order": module.a.order}}


def _scenario_module(scn: Scenario):
    if scn.cohomology is not None:
        return scn.module(), scn.cohomology.get("degree")
    return derive(scn.pre_prolongation()).module, None


def _cmd_cohomology(scn: Scenario, args) -> tuple[int, dict]:
    module, default_degree = _scenario_module(scn)
    degree = args.degree if args.degree is not None else (default_degree or 2)
    h = cohomology_group(degree, module)
    payload = {
        "command": "cohomology",
        "degree": degree,
        "invariant_factors": list(h.invariant_factors),
        "order": h.order,
    }
    if args.basis:
        ident = tuple(range(module.a.order))
        entry = {"pi": module.pi.name, "a": module.a.name}
        if any(p != ident for p in module.action):
            entry["action"] = [list(p) for p in module.action]
        payload["basis"] = [
            {**entry, "degree": degree, "values": list(b.values)}
            for b in h.basis
        ]
    return EXIT_OK, payload


def _cmd_obstruction(scn: Scenario, args) -> tuple[int, dict]:
    pre = scn.pre_prolongation()
    rng = random.Random(args.seed) if args.seed is not None else None
    res = obstruction_class(pre, rng=rng)
    payload = {
        "command": "obstruction",
        "h3_invariant_factors": list(res.h3.invariant_factors),
        "class": list(res.coordinates),
        "vanishes": res.vanishes,
    }
    if res.vanishes:
        payload["built_scenario"] = prolongation_to_scenario(
            res.prolongation, theta=pre.theta)
        return EXIT_OK, payload
    return EXIT_NONZERO, payload


def _cmd_build(scn: Scenario, args) -> tuple[int, dict]:
    pre = scn.pre_prolongation()
    rng = random.Random(args.seed) if args.seed is not None else None
    try:
        built = build_prolongation(pre, rng=rng)
    except ObstructionNonzero as exc:
        return EXIT_NONZERO, {
            "command": "build",
            "vanishes": False,
            "class": list(exc.coordinates),
            "h3_invariant_factors": list(exc.invariant_factors),
        }
    doc = prolongation_to_scenario(built.prolongation, theta=pre.theta)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    payload = {
        "command": "build",
        "vanishes": True,
        "middle_group": group_to_json(built.prolongation.e.b),
        "built_scenario": doc,
    }
    return EXIT_OK, payload


def _cmd_classify(scn: Scenario, args) -> tuple[int, dict]:
    pre = scn.pre_prolongation()
    try:
        classes = enumerate_classes(pre)
    except ObstructionNonzero as exc:
        return EXIT_NONZERO, {
            "command": "classify",
            "vanishes": False,
            "class": list(exc.coordinates),
        }
    h2 = cohomology_group(2, derive(pre).module)
    payload = {
        "command": "classify",
        "h2_invariant_factors": list(h2.invariant_factors),
        "h2_order": h2.order,
        "class_count": len(classes),
        "classes": [
            {
                "coordinates": list(c.coordinates),
                "middle_group": group_to_json(c.representative.e.b),
            }
            for c in classes
        ],
    }
    return EXIT_OK, payload


def _cmd_equiv(scn: Scenario, args) -> tuple[int, dict]:
    if scn.mode != "full-ladder" or len(scn.ladders) < 2:
        raise ScenarioError("equiv needs a full-ladder scenario with two ladders")
    p1, p2 = scn.ladder(0), scn.ladder(1)
    witness = are_equivalent(p1, p2)
    payload = {
        "command": "equiv",
        "equivalent": witness is not None,
    }
    if witness is not None:
        payload["witness"] = list(witness.beta_star.map)
        return EXIT_OK, payload
    return EXIT_NONZERO, payload


def _cmd_oracle(scn: Scenario, args) -> tuple[int, dict]:
    pre = scn.pre_prolongation()
    brute = brute_force_coverings(pre, max_order=args.max_order)
    classes = enumerate_classes(pre) if obstruction_class(pre).vanishes else ()
    match = len(brute) == len(classes)
    if match and classes:
        # each enumerated class must meet exactly one brute-force covering
        hits = []
        for c in classes:
            hit = [k for k, p in enumerate(brute)
                   if are_equivalent(c.representative, p) is not None]
            hits.append(hit)
        match = (sorted(sum(hits, [])) == list(range(len(brute)))
                 and all(len(h) == 1 for h in hits))
    payload = {
        "command": "oracle",
        "brute_force_count": len(brute),
        "enumerated_count": len(classes),
        "match": match,
    }
    return (EXIT_OK if match else EXIT_MISMATCH), payload


def _cmd_pullback(scn: Scenario, args) -> tuple[int, dict]:
    if scn.mode != "full-ladder":
        raise ScenarioError("pullback needs a full-ladder scenario")
    ladder = scn.ladder(0)
    report = validate_prolongation(ladder)
    if not report.ok:
        raise InvalidProlongation(report)
    pb = pullback(ladder.e, ladder.gamma)
    payload = {
        "command": "pullback",
        "middle_group": group_to_json(pb.ext.b),
        "j": list(pb.ext.j.map),
        "p": list(pb.ext.p.map),
        "to_base": list(pb.to_base.map),
    }
    return EXIT_OK, payload


_HANDLERS = {
    "validate": _cmd_validate,
    "cohomology": _cmd_cohomology,
    "obstruction": _cmd_obstruction,
    "build": _cmd_build,
    "classify": _cmd_classify,
    "equiv": _cmd_equiv,
    "oracle": _cmd_oracle,
    "pullback": _cmd_pullback,
}


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        scn = load_scenario(args.scenario)
        code, payload = _HANDLERS[args.command](scn, args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=out)
        return EXIT_USAGE
    except ScenarioError as exc:
        _emit({"error": str(exc), "kind": "scenario"}, args.format, out)
        return EXIT_INVALID
    except ObstructionNonzero as exc:
        _emit({"error": str(exc), "class": list(exc.coordinates)}, args.format, out)
        return EXIT_NONZERO
    except ProlongError as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__}, args.format, out)
        return EXIT_INVALID
    _emit(payload, args.format, out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

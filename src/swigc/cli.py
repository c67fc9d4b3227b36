"""Command line interface.

Exit codes:
  0  success: valid spec, separated query, identified estimand, sound oracle run
  1  evaluation failure: zero-mass conditioning event, empty stratum,
     or a data model that does not cover a requested world
  2  unusable input: syntax error, violated study invariant, bad query,
     a spec file that is missing or cannot be read as UTF-8 text
  3  d-separation query: the sets are connected
  4  estimand only partially identified (a cross-world event survives)
  5  estimand not identifiable (open backdoor witness)
  6  oracle mismatch: an identified formula disagrees with ground truth
  7  resource cap exceeded (joint support too large to enumerate)
  8  internal error: an unexpected exception inside swigc
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__
from .dsep import DSepQuery, d_separated, open_paths, path_string
from .dsl import GRAMMAR_VERSION, parse_file, serialize
from .errors import OracleError, SemanticError, SupportTooLarge, SwigcError, UnknownNode
from .estimand import CompiledEstimand, compile_study, study_swig
from .formula import render
from .graph import Context, canonical_json
from .identify import (
    EstimandReport,
    IdentifyResult,
    NotIdentifiable,
    PartiallyIdentified,
    identify_estimand,
    render_trace,
    verdict_code,
)
from .oracle import (
    SoundnessReport,
    check_soundness,
    data_model,
    enumerate_table,
    soundness_battery,
    write_csv,
)
from .markup import to_dot, to_tikz
from .swig import split, swig_to_payload

_VERDICT_WORDS = {
    "identified": "identified",
    "partial": "partially identified",
    "blocked": "not identifiable",
}


def _emit_json(payload) -> None:
    sys.stdout.write(canonical_json(payload))


# validate


def _cmd_validate(args, compiled: CompiledEstimand) -> int:
    study = compiled.study
    if args.json:
        _emit_json(
            {
                "study": study.name,
                "grammar": GRAMMAR_VERSION,
                "nodes": len(study.graph),
                "edges": len(study.graph.edges),
                "strategies": {v: s.kind for v, s in sorted(study.strategies.items())},
                "estimand": compiled.contrast.label,
                "canonical": serialize(study),
            }
        )
        return 0
    print(f"ok: {study.name}")
    print(f"grammar: {GRAMMAR_VERSION}")
    print(f"nodes: {len(study.graph)}")
    print(f"edges: {len(study.graph.edges)}")
    for var in sorted(study.strategies):
        print(f"strategy: {var} {study.strategies[var].kind}")
    print(f"estimand: {compiled.contrast.label}")
    return 0


# swig


def _parse_world(compiled: CompiledEstimand, text: str) -> Context:
    assigned: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if "=" not in part:
            raise SemanticError(f"world entry {part!r} is not VAR=VALUE")
        var, _, raw = part.partition("=")
        var = var.strip()
        try:
            value = int(raw.strip())
        except ValueError:
            raise SemanticError(f"world value {raw.strip()!r} is not an integer") from None
        if var in assigned:
            raise SemanticError(f"world assigns {var} twice")
        assigned[var] = value
    expected = ", ".join(compiled.split_vars)
    if set(assigned) != set(compiled.split_vars):
        raise SemanticError(f"a world must assign exactly: {expected}")
    for var, value in assigned.items():
        declared = compiled.graph.attr(compiled.graph.node(var)).values
        if value not in declared:
            raise SemanticError(f"level {value} is outside declared values of {var}")
    return tuple((v, assigned[v]) for v in compiled.split_vars)


def _cmd_swig(args, compiled: CompiledEstimand) -> int:
    if args.world:
        sw = split(compiled.graph, _parse_world(compiled, args.world))
    else:
        sw = study_swig(compiled)
    if args.json:
        payload = swig_to_payload(sw)
        payload["study"] = compiled.study.name
        _emit_json(payload)
        return 0
    print(f"study: {compiled.study.name}")
    shown = ", ".join(f"{v}={x}" for v, x in sw.interventions)
    print(f"interventions: {shown}")
    for node in sw.graph.nodes:
        print(f"node {node.label}" + (" [fixed]" if node.fixed else ""))
    for u, v in sorted(sw.graph.edges, key=lambda e: (e[0].label, e[1].label)):
        print(f"edge {u.label} -> {v.label}")
    return 0


# dsep


def _split_labels(text: str) -> list[str]:
    """Split on commas outside parentheses, so Y(a,m) stays one label."""
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _resolve_nodes(graph, text: str):
    out = []
    for raw in _split_labels(text):
        label = raw.strip()
        if not label:
            continue
        if graph.has_label(label):
            out.append(graph.node(label))
        else:
            out.append(graph.random_node(label))
    return frozenset(out)


def _cmd_dsep(args, compiled: CompiledEstimand) -> int:
    g = study_swig(compiled).graph
    try:
        query = DSepQuery(
            x=_resolve_nodes(g, args.x),
            y=_resolve_nodes(g, args.y),
            z=_resolve_nodes(g, args.z) if args.z else frozenset(),
        )
    except UnknownNode as e:
        raise SemanticError(str(e)) from e
    separated = d_separated(g, query)
    witnesses = [] if separated else open_paths(g, query, limit=args.limit)
    if args.json:
        _emit_json(
            {
                "study": compiled.study.name,
                "query": {
                    "x": sorted(n.label for n in query.x),
                    "y": sorted(n.label for n in query.y),
                    "z": sorted(n.label for n in query.z),
                },
                "label": query.label(),
                "separated": separated,
                "witnesses": [
                    {
                        "path": path_string(w),
                        "nodes": [n.label for n in w.nodes],
                        "colliders_opened": [n.label for n in w.colliders_opened],
                    }
                    for w in witnesses
                ],
            }
        )
        return 0 if separated else 3
    print(f"study: {compiled.study.name}")
    print(f"query: {query.label()}")
    print(f"verdict: {'separated' if separated else 'connected'}")
    for w in witnesses:
        print(f"open path: {path_string(w)}")
    return 0 if separated else 3


# identify


def _arm_payload(result: IdentifyResult) -> dict:
    payload: dict = {
        "term": result.mean.label,
        "status": result.status,
        "steps": [
            {
                "rule": s.rule,
                "formula": render(s.formula),
                "justification": s.justification,
                "premise": s.premise.label() if s.premise is not None else None,
            }
            for s in result.steps
        ],
    }
    if isinstance(result, NotIdentifiable):
        payload["blocked"] = {
            "premise": result.blocked.premise.label(),
            "path": result.blocked.witness_label,
        }
    else:
        payload["formula"] = render(result.formula)
    if isinstance(result, PartiallyIdentified):
        payload["cross_world"] = [e.label for e in result.cross_world.events]
    return payload


def _notes(report: EstimandReport) -> list[str]:
    notes = []
    for arm in (report.left, report.right):
        if isinstance(arm, NotIdentifiable):
            notes.append(f"note: open backdoor path {arm.blocked.witness_label}")
        elif isinstance(arm, PartiallyIdentified):
            for event in arm.cross_world.events:
                notes.append(f"note: cross-world event {event.label} survives consistency")
    return notes


def _cmd_identify(args, compiled: CompiledEstimand) -> int:
    study = compiled.study
    report = identify_estimand(study, compiled)
    code = verdict_code(report)
    combined = report.combined
    if args.json:
        _emit_json(
            {
                "study": study.name,
                "estimand": compiled.contrast.label,
                "left": _arm_payload(report.left),
                "right": _arm_payload(report.right),
                "combined": render(combined) if combined is not None else None,
                "verdict": _VERDICT_WORDS[report.status],
                "exit": code,
            }
        )
        return code
    print(f"study: {study.name}")
    print(f"estimand: {compiled.contrast.label}")
    for arm in (report.left, report.right):
        print()
        print(f"term: {arm.mean.label}")
        for line in render_trace(arm):
            print(line)
    print()
    if combined is not None:
        print(f"combined: {render(combined)}")
    print(f"verdict: {_VERDICT_WORDS[report.status]}")
    for note in _notes(report):
        print(note)
    return code


# simulate


def _fraction_str(x: Fraction | None) -> str | None:
    return None if x is None else str(x)


def _report_payload(r: SoundnessReport) -> dict:
    return {
        "study": r.study,
        "seed": r.seed,
        "status": r.status,
        "consistency_ok": r.consistency_ok,
        "true": _fraction_str(r.true_value),
        "formula": _fraction_str(r.formula_value),
        "gap": _fraction_str(r.gap),
        "naive": _fraction_str(r.naive_value),
        "naive_gap": _fraction_str(r.naive_gap),
        "sound": r.sound,
    }


def _write_table_csv(compiled: CompiledEstimand, seed, path: str) -> None:
    table = enumerate_table(compiled.graph, data_model(compiled, seed), compiled.worlds())
    if path == "-":
        write_csv(table, sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(table, fh)


def _cmd_simulate(args, compiled: CompiledEstimand) -> int:
    study = compiled.study
    if args.csv == "-" and args.json:
        raise SemanticError("--csv - and --json both write to stdout")
    if args.csv:
        _write_table_csv(compiled, args.seed, args.csv)

    if args.seeds is not None:
        first, last = args.seeds
        reports = soundness_battery(study, range(first, last), jobs=args.jobs)
        sound = sum(1 for r in reports if r.sound)
        ok = sound == len(reports)
        if args.json:
            _emit_json(
                {
                    "study": study.name,
                    "seeds": [first, last],
                    "runs": len(reports),
                    "sound_runs": sound,
                    "all_sound": ok,
                    "reports": [_report_payload(r) for r in reports],
                }
            )
            return 0 if ok else 6
        print(f"study: {study.name}")
        print(f"seeds: {first}..{last - 1}")
        print(f"runs: {len(reports)}")
        print(f"sound: {sound}")
        print(f"verdict: {'sound' if ok else 'MISMATCH'}")
        if not ok:
            for r in reports:
                if not r.sound:
                    print(f"mismatch at seed {r.seed}: formula {r.formula_value}, true {r.true_value}")
        return 0 if ok else 6

    report = check_soundness(study, seed=args.seed, compiled=compiled)
    if args.json:
        _emit_json(_report_payload(report))
        return 0 if report.sound else 6
    print(f"study: {report.study}")
    print(f"seed: {'none' if report.seed is None else report.seed}")
    print(f"status: {report.status}")
    print(f"consistency: {'ok' if report.consistency_ok else 'VIOLATED'}")
    print(f"true: {report.true_value}")
    if report.formula_value is not None:
        print(f"formula: {report.formula_value}")
        print(f"gap: {report.gap}")
    if report.naive_value is not None:
        print(f"naive: {report.naive_value}")
        print(f"naive gap: {report.naive_gap}")
    print(f"verdict: {'sound' if report.sound else 'MISMATCH'}")
    return 0 if report.sound else 6


# render


def _cmd_render(args, compiled: CompiledEstimand) -> int:
    study = compiled.study
    if args.dag and args.world:
        raise SemanticError("--dag and --world are mutually exclusive")
    conditioned = None
    if args.dag:
        target = study.graph
    elif args.world:
        world = _parse_world(compiled, args.world)
        target = split(compiled.graph, world)
        conditioned = compiled.stratum_box(dict(world)[study.treatment])
    else:
        target = study_swig(compiled)
    markup = (
        to_tikz(target, conditioned_values=conditioned)
        if args.format == "tikz"
        else to_dot(target, conditioned_values=conditioned)
    )
    if args.json:
        _emit_json({"study": study.name, "format": args.format, "markup": markup})
        return 0
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(markup)
        return 0
    sys.stdout.write(markup)
    return 0


# wiring


def _seed_range(text: str) -> tuple[int, int]:
    first, sep, last = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("use FIRST:LAST, e.g. 0:100")
    try:
        a, b = int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError("seed range bounds must be integers") from None
    if b <= a:
        raise argparse.ArgumentTypeError("seed range must be non-empty")
    return a, b


def _at_least(low: int):
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {low} or more")
        return value
    return count


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="swigc",
        description="Compile trial specs into split graphs, estimands, and derivations.",
    )
    p.add_argument(
        "--version", action="version", version=f"swigc {__version__} (grammar {GRAMMAR_VERSION})"
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("spec", help="path to a study file")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("validate", help="parse and check a study file")
    common(sp)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("swig", help="print the split graph")
    common(sp)
    sp.add_argument("--world", help="concrete assignments, e.g. A=1,M3=0")
    sp.set_defaults(func=_cmd_swig)

    sp = sub.add_parser("dsep", help="decide d-separation in the split graph")
    common(sp)
    sp.add_argument("--x", required=True, help="comma-separated node labels")
    sp.add_argument("--y", required=True, help="comma-separated node labels")
    sp.add_argument("--z", default="", help="comma-separated conditioning labels")
    sp.add_argument("--limit", type=_at_least(0), default=5, help="max open paths to list")
    sp.set_defaults(func=_cmd_dsep)

    sp = sub.add_parser("identify", help="derive or refute the estimand")
    common(sp)
    sp.set_defaults(func=_cmd_identify)

    sp = sub.add_parser("simulate", help="check the derivation against exact enumeration")
    common(sp)
    sp.add_argument("--seed", type=int, help="random data model seed (default: the study's)")
    sp.add_argument("--seeds", type=_seed_range, help="seed range FIRST:LAST for a battery")
    sp.add_argument("--jobs", type=_at_least(1), default=1, help="parallel workers for a battery")
    sp.add_argument("--csv", help="also write the potential-outcome table (- for stdout)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("render", help="emit TikZ or DOT markup")
    common(sp)
    sp.add_argument("--format", choices=("tikz", "dot"), default="tikz")
    sp.add_argument("--dag", action="store_true", help="render the graph before splitting")
    sp.add_argument("--world", help="concrete assignments, e.g. A=1,M3=0")
    sp.add_argument("--out", help="write markup to a file instead of stdout")
    sp.set_defaults(func=_cmd_render)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, compile_study(parse_file(args.spec)))
    except (SwigcError, OSError) as e:
        # A file that cannot be read or written is unusable input, like a bad spec.
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, SupportTooLarge):
            return 7
        return 1 if isinstance(e, OracleError) else 2
    except Exception as e:
        # Last resort: a fault in swigc itself still ends in one line and
        # a documented code, not a traceback.
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 8


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

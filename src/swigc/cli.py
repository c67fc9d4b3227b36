"""Command line interface.

Exit codes:
  0  success: valid spec, separated query, identified estimand, sound oracle run
  1  evaluation failure: zero-mass conditioning event, empty stratum,
     or a data model that does not cover a requested world
  2  unusable input: syntax error, violated study invariant, bad query,
     a spec file that is missing or cannot be read as UTF-8 text, or one
     longer than the cap of 2**24 bytes (dsl.MAX_SPEC_BYTES), which is
     refused before it is read further
  3  d-separation query: the sets are connected
  4  estimand only partially identified (a cross-world event survives)
  5  estimand not identifiable (open backdoor witness)
  6  oracle mismatch: an identified formula disagrees with ground truth
  7  resource cap exceeded (the declared noise supports multiply past the cap,
     or a battery of more than 1,000,000 seeds)
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
from .identify import arm_payload, identify_estimand, trace_lines, verdict_code
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

# Each ``_cmd_*`` returns its ``--json`` payload and its exit code.  Each
# ``_*_text`` draws the text view from that payload alone, so the two
# views cannot disagree; ``main`` writes one of them.


def _lines(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


# validate


def _cmd_validate(args, compiled: CompiledEstimand) -> tuple[dict, int]:
    study = compiled.study
    return {
        "study": study.name,
        "grammar": GRAMMAR_VERSION,
        "nodes": len(study.graph),
        "edges": len(study.graph.edges),
        "strategies": {v: s.kind for v, s in sorted(study.strategies.items())},
        "estimand": render(compiled.contrast),
        "canonical": serialize(study),
    }, 0


def _validate_text(p: dict) -> str:
    return _lines(
        [
            f"ok: {p['study']}",
            f"grammar: {p['grammar']}",
            f"nodes: {p['nodes']}",
            f"edges: {p['edges']}",
            *(f"strategy: {var} {kind}" for var, kind in p["strategies"].items()),
            f"estimand: {p['estimand']}",
        ]
    )


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


def _cmd_swig(args, compiled: CompiledEstimand) -> tuple[dict, int]:
    world = None if args.world is None else _parse_world(compiled, args.world)
    sw = study_swig(compiled) if world is None else split(compiled.graph, world)
    payload = swig_to_payload(sw)
    payload["study"] = compiled.study.name
    return payload, 0


def _swig_text(p: dict) -> str:
    shown = ", ".join(f"{v}={x}" for v, x in p["interventions"])
    return _lines(
        [
            f"study: {p['study']}",
            f"interventions: {shown}",
            *(f"node {n['label']}" + (" [fixed]" if n["fixed"] else "") for n in p["nodes"]),
            # The payload's edges are sorted by their labels.
            *(f"edge {u} -> {v}" for u, v in p["edges"]),
        ]
    )


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


def _cmd_dsep(args, compiled: CompiledEstimand) -> tuple[dict, int]:
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
    return {
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
    }, 0 if separated else 3


def _dsep_text(p: dict) -> str:
    return _lines(
        [
            f"study: {p['study']}",
            f"query: {p['label']}",
            f"verdict: {'separated' if p['separated'] else 'connected'}",
            *(f"open path: {w['path']}" for w in p["witnesses"]),
        ]
    )


# identify


def _cmd_identify(args, compiled: CompiledEstimand) -> tuple[dict, int]:
    report = identify_estimand(compiled.study, compiled)
    code = verdict_code(report)
    combined = report.combined
    payload = {
        "study": compiled.study.name,
        "estimand": render(compiled.contrast),
        "left": arm_payload(report.left),
        "right": arm_payload(report.right),
        "combined": render(combined) if combined is not None else None,
        "verdict": _VERDICT_WORDS[report.status],
        "exit": code,
    }
    return payload, code


def _identify_text(p: dict) -> str:
    arms = (p["left"], p["right"])
    lines = [f"study: {p['study']}", f"estimand: {p['estimand']}"]
    for arm in arms:
        lines += ["", f"term: {arm['term']}", *trace_lines(arm)]
    lines.append("")
    if p["combined"] is not None:
        lines.append(f"combined: {p['combined']}")
    lines.append(f"verdict: {p['verdict']}")
    for arm in arms:
        if "blocked" in arm:
            lines.append(f"note: open backdoor path {arm['blocked']['path']}")
        for event in arm.get("cross_world", ()):
            lines.append(f"note: cross-world event {event} survives consistency")
    return _lines(lines)


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


def _cmd_simulate(args, compiled: CompiledEstimand) -> tuple[dict, int]:
    study = compiled.study
    if args.seed is not None and args.seeds is not None:
        raise SemanticError("--seed and --seeds are mutually exclusive")
    if args.csv is not None and args.seeds is not None:
        # A battery has no one model whose table the file could hold.
        raise SemanticError("--csv and --seeds are mutually exclusive")
    if args.csv == "-" and args.json:
        raise SemanticError("--csv - and --json both write to stdout")
    if args.csv is not None:
        # A side effect, written before the report.
        _write_table_csv(compiled, args.seed, args.csv)

    if args.seeds is None:
        report = check_soundness(study, seed=args.seed, compiled=compiled)
        return _report_payload(report), 0 if report.sound else 6
    first, last = args.seeds
    reports = soundness_battery(study, range(first, last), jobs=args.jobs)
    sound = sum(1 for r in reports if r.sound)
    ok = sound == len(reports)
    return {
        "study": study.name,
        "seeds": [first, last],
        "runs": len(reports),
        "sound_runs": sound,
        "all_sound": ok,
        "reports": [_report_payload(r) for r in reports],
    }, 0 if ok else 6


def _simulate_text(p: dict) -> str:
    if "reports" in p:
        first, last = p["seeds"]
        lines = [
            f"study: {p['study']}",
            f"seeds: {first}..{last - 1}",
            f"runs: {p['runs']}",
            f"sound: {p['sound_runs']}",
            f"verdict: {'sound' if p['all_sound'] else 'MISMATCH'}",
        ]
        for r in p["reports"]:
            if not r["sound"]:
                lines.append(f"mismatch at seed {r['seed']}: formula {r['formula']}, true {r['true']}")
        return _lines(lines)
    lines = [
        f"study: {p['study']}",
        f"seed: {'none' if p['seed'] is None else p['seed']}",
        f"status: {p['status']}",
        f"consistency: {'ok' if p['consistency_ok'] else 'VIOLATED'}",
        f"true: {p['true']}",
    ]
    if p["formula"] is not None:
        lines += [f"formula: {p['formula']}", f"gap: {p['gap']}"]
    if p["naive"] is not None:
        lines += [f"naive: {p['naive']}", f"naive gap: {p['naive_gap']}"]
    lines.append(f"verdict: {'sound' if p['sound'] else 'MISMATCH'}")
    return _lines(lines)


# render


def _cmd_render(args, compiled: CompiledEstimand) -> tuple[dict, int]:
    study = compiled.study
    if args.dag and args.world is not None:
        raise SemanticError("--dag and --world are mutually exclusive")
    conditioned = None
    if args.dag:
        target = study.graph
    elif args.world is not None:
        world = _parse_world(compiled, args.world)
        target = split(compiled.graph, world)
        conditioned = compiled.stratum_box(dict(world)[study.treatment])
    else:
        target = study_swig(compiled)
    to_markup = to_tikz if args.format == "tikz" else to_dot
    markup = to_markup(target, conditioned_values=conditioned)
    return {"study": study.name, "format": args.format, "markup": markup}, 0


def _render_text(p: dict) -> str:
    return p["markup"]


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
    sp.set_defaults(func=_cmd_validate, view=_validate_text)

    sp = sub.add_parser("swig", help="print the split graph")
    common(sp)
    sp.add_argument("--world", help="concrete assignments, e.g. A=1,M3=0")
    sp.set_defaults(func=_cmd_swig, view=_swig_text)

    sp = sub.add_parser("dsep", help="decide d-separation in the split graph")
    common(sp)
    sp.add_argument("--x", required=True, help="comma-separated node labels")
    sp.add_argument("--y", required=True, help="comma-separated node labels")
    sp.add_argument("--z", default="", help="comma-separated conditioning labels")
    sp.add_argument("--limit", type=_at_least(0), default=5, help="max open paths to list")
    sp.set_defaults(func=_cmd_dsep, view=_dsep_text)

    sp = sub.add_parser("identify", help="derive or refute the estimand")
    common(sp)
    sp.set_defaults(func=_cmd_identify, view=_identify_text)

    sp = sub.add_parser("simulate", help="check the derivation against the exact oracle")
    common(sp)
    sp.add_argument("--seed", type=int, help="random data model seed (default: the study's)")
    sp.add_argument("--seeds", type=_seed_range, help="seed range FIRST:LAST for a battery")
    sp.add_argument("--jobs", type=_at_least(1), default=1, help="parallel workers for a battery")
    sp.add_argument("--csv", help="also write the potential-outcome table (- for stdout)")
    sp.set_defaults(func=_cmd_simulate, view=_simulate_text)

    sp = sub.add_parser("render", help="emit TikZ or DOT markup")
    common(sp)
    sp.add_argument("--format", choices=("tikz", "dot"), default="tikz")
    sp.add_argument("--dag", action="store_true", help="render the graph before splitting")
    sp.add_argument("--world", help="concrete assignments, e.g. A=1,M3=0")
    sp.add_argument("--out", help="write the output (markup, or JSON with --json) to a file")
    sp.set_defaults(func=_cmd_render, view=_render_text)
    return p


def _error_code(e: SwigcError | OSError) -> int:
    """The exit code of an error reported in one line: 7 when the noise
    support exceeds the row cap, 1 for another oracle error, and 2 for
    unusable input."""
    if isinstance(e, SupportTooLarge):
        return 7
    return 1 if isinstance(e, OracleError) else 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args, compile_study(parse_file(args.spec)))
        output = canonical_json(payload) if args.json else args.view(payload)
        out = getattr(args, "out", None)  # only render has --out
        if out is None:
            sys.stdout.write(output)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(output)
        return code
    except (SwigcError, OSError) as e:
        # A file that cannot be read or written is unusable input, like a bad spec.
        print(f"error: {e}", file=sys.stderr)
        return _error_code(e)
    except Exception as e:
        # Last resort: a fault in swigc itself still ends in one line and
        # a documented code, not a traceback.
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 8


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Render every study in specs/ to TikZ and DOT under build/figures.

Emits, per study: the SWIG after splitting, plus the raw DAG when --dag is
set.  Principal-stratum studies additionally get one concrete world per
treatment level so the boxed stratum event is visible.  With --document a
single compilable LaTeX article wrapping all TikZ pictures is written too.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

from swigc.dsl import parse_study
from swigc.errors import SwigcError
from swigc.estimand import compile_study, study_swig
from swigc.markup import to_dot, to_tikz
from swigc.swig import split

ROOT = Path(__file__).resolve().parent.parent
SPECS_DIR = ROOT / "specs"

PREAMBLE = """\\documentclass{article}
\\usepackage{tikz}
\\usetikzlibrary{shapes.geometric}
\\begin{document}
"""


@dataclass
class Config:
    out_dir: Path = ROOT / "build" / "figures"
    dag: bool = True
    document: bool = False


def figure_jobs(cfg: Config):
    """Yield (stem, graph, conditioned_values) for every renderable view."""
    for path in sorted(SPECS_DIR.glob("*.swg")):
        try:
            study = parse_study(path.read_text())
            compiled = compile_study(study)
        except SwigcError as exc:  # broken fixtures stay listed
            print(f"skip {path.name}: {exc}")
            continue
        stem = path.stem
        if cfg.dag:
            yield f"dag_{stem}", study.graph, {}
        yield f"swig_{stem}", study_swig(compiled).graph, {}
        if compiled.stratum is None:
            continue
        for level in study.treatment_levels:
            sw = split(compiled.graph, compiled.arm_context(level))
            arm = "treated" if level == study.treatment_levels[0] else "control"
            yield f"swig_{stem}_{arm}", sw.graph, compiled.stratum_box(level)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--no-dag", action="store_true", help="skip pre-split DAGs")
    ap.add_argument("--document", action="store_true", help="also write figures.tex")
    args = ap.parse_args()

    cfg = Config(dag=not args.no_dag, document=args.document)
    if args.out:
        cfg.out_dir = Path(args.out)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    pictures = []
    count = 0
    for stem, graph, boxed in figure_jobs(cfg):
        tikz = to_tikz(graph, conditioned_values=boxed)
        (cfg.out_dir / f"{stem}.tex").write_text(tikz)
        (cfg.out_dir / f"{stem}.dot").write_text(to_dot(graph, conditioned_values=boxed))
        pictures.append((stem, tikz))
        count += 1
        print(f"wrote {stem}.tex / {stem}.dot")

    if cfg.document:
        parts = [PREAMBLE]
        for stem, tikz in pictures:
            name = stem.replace("_", " ")
            parts.append(f"\\section*{{{name}}}\n{tikz}\n")
        parts.append("\\end{document}\n")
        (cfg.out_dir / "figures.tex").write_text("".join(parts))
        print("wrote figures.tex")

    print(f"{count} figures under {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

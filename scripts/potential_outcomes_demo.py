#!/usr/bin/env python3
"""Five-unit worked example of why naive contrasts mislead under confounding.

Builds a tiny population of five units whose treatment choice depends on a
latent unit identity, enumerates the full potential-outcome table exactly,
and prints the true average treatment effect next to the naive observed
difference in means.  With healthier units opting into treatment, the naive
contrast comes out positive while the true effect of treatment is negative.
"""

from __future__ import annotations

import io
from fractions import Fraction

from swigc.graph import NodeAttrs, build_graph
from swigc.model import SCMSpec, StructuralEquation
from swigc.oracle import (
    enumerate_table,
    eval_formula,
    true_estimand,
    validate_consistency,
    write_csv,
)
from swigc.formula import Difference, Event, Expect, Term

# Per-unit potential outcomes and treatment choices.  Treatment lowers the
# outcome by 8 for every unit, but the three treated units are the ones with
# high baseline outcomes, so the observed means point the other way.
UNITS = (1, 2, 3, 4, 5)
CHOICE = {1: 1, 2: 0, 3: 1, 4: 1, 5: 0}
OUTCOME = {  # unit -> (Y under a=0, Y under a=1)
    1: (60, 52),
    2: (45, 37),
    3: (46, 38),
    4: (75, 67),
    5: (21, 15),
}


def build_model():
    graph = build_graph(
        [
            ("I", NodeAttrs(role="latent", observed=False, values=UNITS)),
            ("A", NodeAttrs(values=(0, 1))),
            ("Y", NodeAttrs(role="outcome", values=tuple(sorted(
                v for pair in OUTCOME.values() for v in pair)))),
        ],
        [("I", "A"), ("I", "Y"), ("A", "Y")],
    )
    fifth = Fraction(1, 5)
    scm = SCMSpec(
        equations={
            "I": StructuralEquation(
                parents=(),
                noise=tuple((i, fifth) for i in UNITS),
                table={(i,): i for i in UNITS},
            ),
            "A": StructuralEquation(
                parents=("I",),
                noise=((0, Fraction(1)),),
                table={(i, 0): CHOICE[i] for i in UNITS},
            ),
            "Y": StructuralEquation(
                parents=("A", "I"),
                noise=((0, Fraction(1)),),
                table={(a, i, 0): OUTCOME[i][a] for i in UNITS for a in (0, 1)},
            ),
        }
    )
    return graph, scm


def main() -> int:
    graph, scm = build_model()
    table = enumerate_table(graph, scm, contexts=[(("A", 0),), (("A", 1),)])

    buf = io.StringIO()
    write_csv(table, buf)
    print(buf.getvalue(), end="")

    violations = validate_consistency(table)
    print(f"\nconsistency violations: {len(violations)}")

    def mean(level: int) -> Fraction:
        return true_estimand(table, Expect(Term("Y", (("A", level),))))

    true_ate = mean(1) - mean(0)
    naive = eval_formula(
        table,
        Difference(
            Expect(Term("Y", ()), (Event(Term("A", ()), 1),)),
            Expect(Term("Y", ()), (Event(Term("A", ()), 0),)),
        ),
    )
    print(f"true average treatment effect: {true_ate}")
    print(f"naive observed difference:     {naive}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Graph markup: TikZ and DOT renderings of DAGs and split graphs.

Layout is longest-path layering on the graph with split pairs merged
back into one unit, so the two halves of an intervened variable sit
side by side.  Within a layer, units fan out from the horizontal axis
in label order.  Output is deterministic down to the byte: node order,
edge order, and coordinate formatting never depend on dict iteration.

The TikZ output needs \\usetikzlibrary{shapes.geometric} for the
semicircular halves of split nodes.
"""

from __future__ import annotations

import re
from typing import Mapping

from .errors import GraphError
from .graph import CausalGraph, NodeId
from .swig import SWIG

__all__ = ["to_tikz", "to_dot"]

FIXED_HALF_COLOR = "red"
EDGE_COLOR = "blue"
LATENT_FILL = "gray!40"
X_STEP = 2.75
Y_STEP = 2.5
PAIR_GAP = 1.1


def _graph_of(target: CausalGraph | SWIG) -> CausalGraph:
    """The graph to draw.  A drawing pairs each base's random node with its
    fixed half, so a base with several of either is refused."""
    graph = target.graph if isinstance(target, SWIG) else target
    for kind, halves in (("random", graph._random), ("fixed", graph._fixed)):
        for base in (b for b, n in halves.items() if n is None):
            raise GraphError(f"cannot draw variable {base!r}: it has several {kind} nodes")
    return graph


def _layout(graph: CausalGraph) -> dict[NodeId, tuple[float, float]]:
    """Positions keyed by node; split pairs share a unit, fixed half offset right."""
    # A unit's layer is one past its parents' deepest, among the units laid
    # out before it in topological order.
    layer: dict[str, int] = {}
    for node in graph.topological_order():
        if not node.fixed:
            above = (layer[p.base] + 1 for p in graph.parents(node) if p.base in layer)
            layer[node.base] = max(above, default=0)

    pos: dict[NodeId, tuple[float, float]] = {}
    filled: dict[int, int] = {}
    for node in graph._random.values():  # in label order
        k = layer[node.base]
        i = filled[k] = filled.get(k, -1) + 1
        x, y = k * X_STEP, (i + 1) // 2 * (1 if i % 2 else -1) * Y_STEP
        pos[node] = (x, y)
        if node.base in graph._fixed:
            pos[graph._fixed[node.base]] = (x + PAIR_GAP, y)
    return pos


def _safe_id(label: str, used: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_") or "n"
    name = base
    k = 2
    while name in used:
        name = f"{base}_{k}"
        k += 1
    used.add(name)
    return name


def _tex(label: str) -> str:
    return label.replace("_", r"\_")


_TIKZ_STYLE = {
    "fixed": f"semicircle, draw, shape border rotate=270, color={FIXED_HALF_COLOR}, inner sep=2pt",
    "boxed": "rectangle, draw",
    "latent": f"circle, draw, fill={LATENT_FILL}",
    "half": "semicircle, draw, shape border rotate=90, inner sep=2pt",
    "plain": "circle, draw",
}
_DOT_STYLE = {
    "fixed": f"shape=ellipse, color={FIXED_HALF_COLOR}, fontcolor={FIXED_HALF_COLOR}",
    "boxed": "shape=box",
    "latent": "shape=ellipse, style=filled, fillcolor=lightgray",
    "half": "shape=ellipse",
    "plain": "shape=ellipse",
}


def _kinds(graph: CausalGraph, shown: Mapping[str, int]) -> dict[NodeId, str]:
    """Each node's kind, the one drawing rule both renderers share.

    The first kind that applies wins: the fixed half of a split variable,
    a boxed node (a shown value or an adjusted covariate), a latent node,
    the random half of a split variable, any other node.
    """
    kinds: dict[NodeId, str] = {}
    for n in graph.nodes:
        a = graph.attrs[n]
        if n.fixed:
            kinds[n] = "fixed"
        elif n.base in shown or a.conditioned:
            kinds[n] = "boxed"
        elif a.role == "latent":
            kinds[n] = "latent"
        else:
            kinds[n] = "half" if n.base in graph._fixed else "plain"
    return kinds


def to_tikz(
    target: CausalGraph | SWIG,
    conditioned_values: Mapping[str, int] | None = None,
) -> str:
    """TikZ picture for a DAG or a split graph.

    ``conditioned_values`` boxes the named variables and appends
    ``=value`` to their labels, for stratum-membership displays.
    """
    shown = dict(conditioned_values or {})
    graph = _graph_of(target)
    swig_mode = bool(graph._fixed) or isinstance(target, SWIG)
    kinds = _kinds(graph, shown)
    # A node of a split graph that is not split itself is bare text.
    style = {**_TIKZ_STYLE, "plain": "inner sep=1pt"} if swig_mode else _TIKZ_STYLE
    pos = _layout(graph)

    ordered = sorted(graph.nodes, key=lambda n: (pos[n][0], -pos[n][1], n.label))
    used: set[str] = set()
    ids: dict[NodeId, str] = {n: _safe_id(n.label, used) for n in ordered}

    lines = [r"\begin{tikzpicture}[>=stealth, semithick]"]
    for n in ordered:
        x, y = pos[n]
        label = f"{n.label}={shown[n.base]}" if kinds[n] == "boxed" and n.base in shown else n.label
        lines.append(
            f"  \\node ({ids[n]}) at ({x:.2f}, {y:.2f}) [{style[kinds[n]]}] {{${_tex(label)}$}};"
        )
    for u, v in graph.ordered_edges():
        lines.append(
            f"  \\path ({ids[u]}) edge [->, very thick, color={EDGE_COLOR}] ({ids[v]});"
        )
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def to_dot(
    target: CausalGraph | SWIG,
    conditioned_values: Mapping[str, int] | None = None,
) -> str:
    """DOT digraph; split pairs are tied into same-rank invisible clusters."""
    shown = dict(conditioned_values or {})
    graph = _graph_of(target)
    kinds = _kinds(graph, shown)
    lines = ["digraph G {", "  rankdir=LR;", f"  edge [color={EDGE_COLOR}];"]
    for i, (base, f) in enumerate(sorted(graph._fixed.items())):
        lines.append(
            f'  subgraph cluster_{i} {{ rank=same; style=invis;'
            f' "{graph._random[base].label}"; "{f.label}"; }}'
        )
    for n in graph.nodes:
        attrs = _DOT_STYLE[kinds[n]]
        if kinds[n] == "boxed" and n.base in shown:
            attrs += f', label="{n.label}={shown[n.base]}"'
        lines.append(f'  "{n.label}" [{attrs}];')
    for u, v in graph.ordered_edges():
        lines.append(f'  "{u.label}" -> "{v.label}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

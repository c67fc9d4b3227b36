"""Seeded generators for the benchmark's synthetic study families.

Every generator takes an explicit ``random.Random`` and returns spec text
in the swigc language together with the answer that is known by
construction.  The same seed always gives the same text; only labels,
declaration order and data-model seeds vary with it, so the cost of a
request depends on its family and size, not on the seed.

Families:

adjust-chain   A -> M -> Y with k adjust-eligible confounders of the held
               event and the outcome.  Options add decoy covariates that
               confound nothing, alternative-blocker pairs C -> D -> M with
               C -> Y (either member closes the path), and a second held
               event.  Answer: the smallest adjustment set, ties broken by
               label order.
dense-refute   k latent confounders of M and Y with every U_i -> U_j edge
               (i < j).  Answer: not identifiable, witness through the
               confounder with the smallest label; the first open paths
               between M(a) and Y(a,m) are known in closed form.
row-scaling    Two three-valued adjusted confounders, a four-valued outcome
               and a latent noise source of the outcome whose support sets
               the number of enumerated rows (144 rows per noise value).
cap-refusal    A treatment and an outcome with many-valued parents, plus
               ten-valued roots, so the joint support is past the oracle's
               cap; ``random_scm`` still builds every table entry first.
"""

from __future__ import annotations

import random
from itertools import permutations
from math import prod

# Label pool for generated covariates; excludes the fixed names A, M*, Y.
_NAME_POOL = tuple(
    f"{first}{second}"
    for first in "BCDEFGHJKLNPQRSTVWX"
    for second in "abcdefghijknpqrstuvwxz"
)


def _names(rng: random.Random, count: int) -> list[str]:
    return rng.sample(_NAME_POOL, count)


def _values(n: int) -> str:
    return ", ".join(str(i) for i in range(n))


def _spec(title: str, nodes: list[str], edges: list[tuple[str, str]], tail: list[str]) -> str:
    lines = [f'study "{title}" {{']
    lines.extend(f"  {n}" for n in nodes)
    lines.append("  edges {")
    lines.extend(f"    {u} -> {v};" for u, v in edges)
    lines.append("  }")
    lines.extend(f"  {t}" for t in tail)
    lines.append("}")
    return "\n".join(lines) + "\n"


_ESTIMAND = "estimand mean_difference(Y; A = 1 vs A = 0);"


def adjust_chain(
    rng: random.Random, k: int, decoys: int = 0, pairs: int = 0, events: int = 1
) -> tuple[str, list[str]]:
    """Spec text and the expected adjustment set (labels in sorted order).

    With two events the confounders alternate between M1 and M2; every
    confounder is needed, so the set is the same for both arms.
    """
    held = ["M"] if events == 1 else [f"M{i}" for i in range(1, events + 1)]
    names = _names(rng, k + decoys + 2 * pairs)
    confounders = names[:k]
    decoy_names = names[k : k + decoys]
    pair_names = [tuple(names[k + decoys + 2 * i : k + decoys + 2 * i + 2]) for i in range(pairs)]

    edges: list[tuple[str, str]] = [("A", "Y")]
    for m in held:
        edges += [("A", m), (m, "Y")]
    for i, c in enumerate(confounders):
        edges += [(c, held[i % len(held)]), (c, "Y")]
    for i, d in enumerate(decoy_names):
        edges.append((d, "Y") if i % 2 == 0 else (d, held[0]))
    for root, mid in pair_names:
        edges += [(root, mid), (mid, held[0]), (root, "Y")]
    rng.shuffle(edges)

    covariates = confounders + decoy_names + [n for p in pair_names for n in p]
    rng.shuffle(covariates)
    nodes = ["node A { role: treatment; }"]
    nodes += [f"node {m} {{ role: intercurrent; }}" for m in held]
    nodes += [f"node {c} {{ adjust: true; }}" for c in covariates]
    nodes.append("node Y { role: outcome; }")
    tail = [f"strategy {m}: hypothetical(0);" for m in held] + [_ESTIMAND]
    title = f"Adjust chain k={k} decoys={decoys} pairs={pairs} events={events}"
    expected = sorted(confounders + [min(p) for p in pair_names])
    return _spec(title, nodes, edges, tail), expected


def _valley(seq: tuple[int, ...]) -> bool:
    # A confounder inside the path is a collider when both neighbours have
    # smaller indices (U_i -> U_j for i < j); colliders block.
    return not any(seq[t - 1] < seq[t] > seq[t + 1] for t in range(1, len(seq) - 1))


def refute_paths(labels: list[str], limit: int) -> list[str]:
    """The first ``limit`` open paths M(a) ... Y(a,m) given A, by construction.

    ``labels[i]`` is the latent confounder U_(i+1).  An open path enters
    the confounders from M(a), walks a simple path among them without a
    collider, and leaves to Y(a,m).
    """
    out: list[str] = []
    for length in range(1, len(labels) + 1):
        found = sorted(
            tuple(labels[i] for i in seq)
            for seq in permutations(range(len(labels)), length)
            if _valley(seq)
        )
        for names in found:
            hops = []
            for prev, nxt in zip(names, names[1:]):
                arrow = "->" if labels.index(prev) < labels.index(nxt) else "<-"
                hops.append(f" {arrow} {nxt}")
            out.append(f"M(a) <- {names[0]}{''.join(hops)} -> Y(a,m)")
            if len(out) == limit:
                return out
    return out


def dense_refute(rng: random.Random, k: int) -> tuple[str, list[str]]:
    """Spec text and the latent labels in confounder order U_1..U_k."""
    labels = _names(rng, k)
    edges: list[tuple[str, str]] = [("A", "M"), ("A", "Y"), ("M", "Y")]
    for i, u in enumerate(labels):
        edges += [(u, "M"), (u, "Y")]
        edges += [(u, v) for v in labels[i + 1 :]]
    rng.shuffle(edges)
    latent = [f"node {u} {{ observed: false; }}" for u in labels]
    rng.shuffle(latent)
    nodes = ["node A { role: treatment; }", "node M { role: intercurrent; }"]
    nodes += latent + ["node Y { role: outcome; }"]
    tail = ["strategy M: hypothetical(0);", _ESTIMAND]
    return _spec(f"Dense refute k={k}", nodes, edges, tail), labels


def row_scaling(noise_values: int) -> str:
    """An adjusted study whose oracle enumerates ``144 * noise_values`` rows."""
    nodes = [
        "node A { role: treatment; }",
        f"node C1 {{ adjust: true; values: {_values(3)}; }}",
        f"node C2 {{ adjust: true; values: {_values(3)}; }}",
        "node M { role: intercurrent; }",
        f"node N {{ observed: false; values: {_values(noise_values)}; }}",
        f"node Y {{ role: outcome; values: {_values(4)}; }}",
    ]
    edges = [
        ("A", "M"), ("A", "Y"), ("C1", "M"), ("C1", "Y"),
        ("C2", "M"), ("C2", "Y"), ("M", "Y"), ("N", "Y"),
    ]
    tail = ["strategy M: hypothetical(0);", _ESTIMAND]
    return _spec(f"Row scaling {144 * noise_values}", nodes, edges, tail)


def cap_refusal(parent_values: tuple[int, ...], roots: int) -> str:
    """A ten-valued outcome with parents of ``parent_values`` levels besides
    the binary treatment, plus ``roots`` unconnected ten-valued roots."""
    extra = [f"P{i}" for i in range(1, len(parent_values) + 1)]
    free = [f"R{i}" for i in range(1, roots + 1)]
    nodes = ["node A { role: treatment; }"]
    nodes += [f"node {n} {{ values: {_values(v)}; }}" for n, v in zip(extra, parent_values)]
    nodes += [f"node {n} {{ values: {_values(10)}; }}" for n in free]
    nodes.append(f"node Y {{ role: outcome; values: {_values(10)}; }}")
    edges = [("A", "Y")] + [(p, "Y") for p in extra]
    return _spec(f"Cap refusal {len(extra)}+{roots}", nodes, edges, [_ESTIMAND])


def cap_refusal_size(parent_values: tuple[int, ...], roots: int) -> tuple[int, int]:
    """(table entries ``random_scm`` builds, joint noise configurations)."""
    outcome_rows = 2 * prod(parent_values)
    entries = 2 + sum(parent_values) + 10 * roots + 10 * outcome_rows
    return entries, outcome_rows * 10 ** (roots + 1)

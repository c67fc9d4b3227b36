"""The four workloads: fixed request mixes, drawn from a seed.

``build(workload, seed)`` returns the inputs a run sends to its worker
process: the spec texts to parse during set-up and ``VARIANTS`` passes of
requests, each request carrying the answer it must produce.  A run
repeats whole passes, cycling through the variants, so every run sees
the same mix in the same proportions whatever its length.

Each mix has 25 (or 65) requests.  With N whole passes, the p50 and p90
sample ranks then fall inside one request type's samples instead of on
the boundary between two types, so the percentiles do not jump when N
changes by one between runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import families

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPECS = ROOT / "specs"
GOLDEN = ROOT / "tests" / "golden"
EXPECTED = HERE / "expected"

WORKLOADS = ("specs", "adjust-search", "refute-witness", "oracle")
VARIANTS = 8

# specs: the bundled studies and one d-separation query on each SWIG.
SPEC_STEMS = (
    "simplest",
    "itt",
    "hypothetical_unobserved",
    "hypothetical_adjusted",
    "composite",
    "principal_stratum",
    "chronic_pain",
)
DSEP_QUERIES = {
    "simplest": ("Y(a)", "A", ""),
    "itt": ("Y(a)", "A", ""),
    "hypothetical_unobserved": ("Y(a,m)", "M(a)", "A"),
    "hypothetical_adjusted": ("Y(a,m)", "M(a)", "A,C"),
    "composite": ("U(a)", "A", ""),
    "principal_stratum": ("Y(a)", "M(a)", "A"),
    "chronic_pain": ("Y(a,m3,m4)", "M3(a)", "A,C"),
}
# The principal-stratum study is drawn in the treated arm's world, which
# is the one its golden markup shows.
RENDER_WORLD = {"principal_stratum": ["--world", "A=1"]}
SIMULATE_SEEDS = range(50)

# adjust-search: (k confounders, decoys, alternative-blocker pairs, held events).
# Sorted by cost, the 12th-14th requests are one type (p50 falls there) and
# so are the 22nd-24th (p90), each well apart from its neighbours.
ADJUST_MIX = (
    (2, 0, 0, 1), (3, 0, 0, 1), (4, 0, 0, 1), (5, 0, 0, 1), (6, 0, 0, 1),
    (2, 0, 0, 2), (4, 0, 0, 2), (3, 2, 0, 1), (2, 0, 1, 1), (4, 0, 1, 1),
    (5, 1, 0, 1),
    (5, 2, 0, 1), (5, 2, 0, 1), (5, 2, 0, 1),
    (7, 0, 0, 1), (3, 0, 2, 1), (4, 1, 1, 2), (8, 0, 0, 1), (9, 0, 0, 1),
    (8, 2, 0, 1), (10, 0, 0, 1),
    (11, 0, 0, 1), (11, 0, 0, 1), (11, 0, 0, 1),
    (12, 0, 0, 1),
)
# refute-witness: (request kind, k latent confounders, graph copy).  Sorted
# by cost, identify k=5 holds ranks 12-14 and identify k=8 ranks 21-23.
REFUTE_MIX = tuple(
    [("identify", k, 0) for k in range(2, 10)]
    + [("identify", 3, 1), ("identify", 4, 1), ("identify", 5, 1), ("identify", 5, 2)]
    + [("identify", 8, 1), ("identify", 8, 2)]
    + [("open_paths", k, 0) for k in range(2, 10)]
    + [("open_paths", 4, 1), ("open_paths", 5, 1), ("open_paths", 7, 1)]
)
REFUTE_QUERY = ("M(a)", "Y(a,m)", "A")
REFUTE_LIMIT = 5
# oracle: chronic_pain seeds per pass, row-scaling noise supports, and
# cap-refusal shapes of 1e5, 2e5 and 6e5 table entries.  The 6e5 shape is
# drawn three times per pass so that p90 falls inside its samples.  Its cost
# does not depend on the data-model seed, but a chronic_pain or row-scaling
# check's cost does (through the size of its exact weights, by up to 1.8x),
# so pass v always uses the same data-model seeds for those: a seed-drawn
# set would move p50 by itself.  The run's seed draws the order of each
# pass and the cap-refusal data models.
CHRONIC_PER_PASS = 15
CHRONIC_SEEDS = range(VARIANTS * CHRONIC_PER_PASS)
ROW_NOISE = (4, 7, 14, 28, 56)
ROW_SEEDS = range(VARIANTS)
CAP_SHAPES = (((10, 10, 10, 5), 2), ((10, 10, 10, 10), 1), ((10, 10, 10, 10, 3), 1))
CAP_MIX = (0, 1, 2, 2, 2)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def _load_expected(name: str) -> dict:
    with open(EXPECTED / name, encoding="utf-8") as fh:
        return json.load(fh)


def spec_argvs(stem: str, sim_seed: int) -> list[tuple[list[str], str | None]]:
    """Every CLI request on one bundled study, with its golden file if any."""
    path = f"specs/{stem}.swg"
    x, y, z = DSEP_QUERIES[stem]
    world = RENDER_WORLD.get(stem, [])
    tex = "swig_principal_stratum_treated.tex" if world else f"swig_{stem}.tex"
    dsep = ["dsep", path, "--x", x, "--y", y] + (["--z", z] if z else [])
    return [
        (["validate", path], None),
        (["validate", path, "--json"], None),
        (["swig", path], None),
        (dsep, None),
        (["identify", path], f"trace_{stem}.txt"),
        (["identify", path, "--json"], None),
        (["render", path] + world, tex),
        (["render", path, "--format", "dot"] + world, f"swig_{stem}.dot"),
        (["simulate", path, "--seed", str(sim_seed)], None),
    ]


def extra_argvs() -> list[tuple[list[str], str | None]]:
    return [
        (["identify", "specs/enumeration_cap.swg"], None),
        (["validate", "specs/bad_syntax.swg"], None),
    ]


def _specs(seed: int) -> dict:
    recorded = _load_expected("specs.json")
    passes = []
    for v in range(VARIANTS):
        rng = random.Random(f"specs:{seed}:{v}")
        argvs = []
        for stem in SPEC_STEMS:
            argvs += spec_argvs(stem, rng.choice(SIMULATE_SEEDS))
        argvs += extra_argvs()
        requests = []
        for argv, golden in argvs:
            expect = dict(recorded[cli_key(argv)])
            if golden is not None and (GOLDEN / golden).exists():
                expect["stdout"] = digest((GOLDEN / golden).read_text(encoding="utf-8"))
            # The label names the request type; a simulate seed is an input.
            shown = ["--seed"] if argv[0] == "simulate" else argv[2:]
            label = " ".join(["cli", argv[0], Path(argv[1]).stem, *shown])
            requests.append({"kind": "cli", "label": label, "argv": argv, "expect": expect})
        rng.shuffle(requests)
        passes.append(requests)
    texts = [(SPECS / f"{stem}.swg").read_text(encoding="utf-8") for stem in SPEC_STEMS]
    return {"texts": texts, "passes": passes}


def _adjust(seed: int) -> dict:
    texts: list[str] = []
    passes = []
    for v in range(VARIANTS):
        rng = random.Random(f"adjust-search:{seed}:{v}")
        requests = []
        for k, decoys, pairs, events in ADJUST_MIX:
            text, chosen = families.adjust_chain(rng, k, decoys, pairs, events)
            texts.append(text)
            requests.append(
                {
                    "kind": "identify",
                    "label": f"identify adjust k={k} decoys={decoys} pairs={pairs} events={events}",
                    "text": len(texts) - 1,
                    "expect": {"verdict": 0, "sets": [chosen, chosen]},
                }
            )
        rng.shuffle(requests)
        passes.append(requests)
    return {"texts": texts, "passes": passes}


def _refute(seed: int) -> dict:
    texts: list[str] = []
    passes = []
    for v in range(VARIANTS):
        rng = random.Random(f"refute-witness:{seed}:{v}")
        graphs: dict[tuple[int, int], tuple[int, list[str]]] = {}
        requests = []
        for kind, k, copy in REFUTE_MIX:
            if (k, copy) not in graphs:
                text, labels = families.dense_refute(rng, k)
                texts.append(text)
                graphs[(k, copy)] = (len(texts) - 1, labels)
            index, labels = graphs[(k, copy)]
            request = {"kind": kind, "label": f"{kind} dense k={k}", "text": index}
            if kind == "identify":
                witness = families.refute_paths(labels, 1)[0]
                request["expect"] = {"verdict": 5, "witness": [witness, witness]}
            else:
                request["query"] = list(REFUTE_QUERY)
                request["limit"] = REFUTE_LIMIT
                request["expect"] = families.refute_paths(labels, REFUTE_LIMIT)
            requests.append(request)
        rng.shuffle(requests)
        passes.append(requests)
    return {"texts": texts, "passes": passes}


def _cap_key(values: tuple[int, ...], roots: int) -> str:
    entries, _ = families.cap_refusal_size(values, roots)
    return f"cap-{entries}"


def oracle_texts() -> dict[str, str]:
    """The oracle workload's studies by key; keys also index expected/oracle.json."""
    out = {"chronic_pain": (SPECS / "chronic_pain.swg").read_text(encoding="utf-8")}
    for noise in ROW_NOISE:
        out[f"rows-{144 * noise}"] = families.row_scaling(noise)
    for values, roots in CAP_SHAPES:
        out[_cap_key(values, roots)] = families.cap_refusal(values, roots)
    return out


def _oracle(seed: int) -> dict:
    recorded = _load_expected("oracle.json")
    studies = oracle_texts()
    keys = list(studies)
    passes = []
    for v in range(VARIANTS):
        rng = random.Random(f"oracle:{seed}:{v}")
        first = v * CHRONIC_PER_PASS
        draws = [("chronic_pain", s) for s in CHRONIC_SEEDS[first : first + CHRONIC_PER_PASS]]
        draws += [(key, v) for key in keys if key.startswith("rows-")]
        draws += [(_cap_key(*CAP_SHAPES[i]), rng.randrange(1000)) for i in CAP_MIX]
        requests = []
        for key, scm_seed in draws:
            if key.startswith("cap-"):
                expect = {"error": "SupportTooLarge"}
            else:
                expect = recorded[f"{key}/{scm_seed}"]
            requests.append(
                {
                    "kind": "soundness",
                    "label": f"soundness {key}",
                    "text": keys.index(key),
                    "seed": scm_seed,
                    "expect": expect,
                }
            )
        rng.shuffle(requests)
        passes.append(requests)
    return {"texts": list(studies.values()), "passes": passes}


def build(workload: str, seed: int) -> dict:
    makers = {"specs": _specs, "adjust-search": _adjust, "refute-witness": _refute, "oracle": _oracle}
    return makers[workload](seed)

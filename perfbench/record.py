"""Record the expected answers the benchmark checks against.

    python3 perfbench/record.py

Run from a checkout whose swigc output is the reference.  Writes
``expected/specs.json`` (exit code and stdout/stderr digests of every CLI
request the specs workload can draw) and ``expected/oracle.json`` (exact
soundness results of every chronic_pain and row-scaling study the oracle
workload can draw).  Identify traces and markup that have golden files
must match them; recording stops if one does not.
"""

from __future__ import annotations

import json
import os
import sys

import child
import workloads


def _specs(runner) -> dict:
    out = {}
    for stem in workloads.SPEC_STEMS:
        for sim_seed in workloads.SIMULATE_SEEDS:
            for argv, golden in workloads.spec_argvs(stem, sim_seed):
                key = workloads.cli_key(argv)
                if key in out:
                    continue
                out[key] = runner.answer({"kind": "cli", "argv": argv})
                path = workloads.GOLDEN / golden if golden else None
                if path is not None and path.exists():
                    if out[key]["stdout"] != workloads.digest(path.read_text(encoding="utf-8")):
                        sys.exit(f"error: {key} does not match {path.name}")
    for argv, _ in workloads.extra_argvs():
        out[workloads.cli_key(argv)] = runner.answer({"kind": "cli", "argv": argv})
    return out


def _oracle(runner, keys: list[str]) -> dict:
    out = {}
    for index, key in enumerate(keys):
        if key == "chronic_pain":
            seeds = workloads.CHRONIC_SEEDS
        elif key.startswith("rows-"):
            seeds = workloads.ROW_SEEDS
        else:
            continue
        for seed in seeds:
            out[f"{key}/{seed}"] = runner.answer({"kind": "soundness", "text": index, "seed": seed})
            print(f"{key}/{seed}: {out[f'{key}/{seed}']}", file=sys.stderr)
    return out


def main() -> int:
    os.chdir(workloads.ROOT)
    swigc = child._import_swigc()
    texts = workloads.oracle_texts()
    runner = child.Runner(swigc, [swigc.dsl.parse_study(t) for t in texts.values()])
    workloads.EXPECTED.mkdir(exist_ok=True)
    for name, data in (("specs.json", _specs(runner)), ("oracle.json", _oracle(runner, list(texts)))):
        with open(workloads.EXPECTED / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

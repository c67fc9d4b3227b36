"""swigc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload adjust-search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's inputs are generated
from ``--seed``; set-up is measured in ``SETUP_RUNS`` fresh processes and
the closed loop runs in the last of them.  Every answer is checked; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The exit code is 0 only when every
answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SPANS_DIR = BUILD / "perfbench"
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170.0


def _per(totals: dict, name: str, n: float) -> float:
    return totals.get(name, 0) / n if n else 0.0


def _ratio(totals: dict, num: str, den: str, scale: float = 1.0) -> float:
    d = totals.get(den, 0)
    return totals.get(num, 0) * scale / d if d else 0.0


def _calls(span: str) -> tuple:
    return (f"{span}.calls", "count", [span], lambda t, n: _per(t, f"{span}.calls", n))


def _ms(span: str) -> tuple:
    return (f"{span}.ms", "ms", [span], lambda t, n: _per(t, f"{span}.ms", n))


# Per-layer metrics: (name, unit, traced functions it needs, value from the
# summed span totals and the number of traced requests).  Times are self
# times; every value is per request unless its name says otherwise.
PER_LAYER = [
    _calls("dsep.d_separated"),
    _ms("dsep.d_separated"),
    ("dsep.d_separated.us_per_call", "us", ["dsep.d_separated"],
     lambda t, n: _ratio(t, "dsep.d_separated.ms", "dsep.d_separated.calls", 1000.0)),
    ("identify.dsep_per_verdict", "count", ["dsep.d_separated", "identify.identify_estimand"],
     lambda t, n: _ratio(t, "identify.dsep_calls", "identify.identify_estimand.calls")),
    _calls("dsep.open_paths"),
    _ms("dsep.open_paths"),
    _ms("identify.identify_estimand"),
    _calls("identify.identify_term"),
    _ms("identify.identify_term"),
    _calls("swig.split"),
    _ms("swig.split"),
    _calls("estimand.compile_study"),
    _ms("estimand.compile_study"),
    _ms("dsl.parse_study"),
    _ms("dsl.serialize"),
    _ms("formula.render"),
    _ms("markup.to_tikz"),
    _ms("markup.to_dot"),
    _ms("graph.canonical_json"),
    _ms("cli.main"),
    _ms("oracle.random_scm"),
    ("oracle.random_scm.entries", "count", ["oracle.random_scm"],
     lambda t, n: _per(t, "oracle.random_scm.entries", n)),
    ("oracle.refused_entries", "count", ["oracle.random_scm"],
     lambda t, n: _per(t, "oracle.refused_entries", n)),
    _ms("oracle.enumerate_table"),
    ("oracle.rows", "count", ["oracle.enumerate_table"],
     lambda t, n: _per(t, "oracle.enumerate_table.rows", n)),
    ("oracle.worlds", "count", ["oracle.enumerate_table"],
     lambda t, n: _per(t, "oracle.enumerate_table.worlds", n)),
    ("oracle.cells", "count", ["oracle.enumerate_table"],
     lambda t, n: _per(t, "oracle.enumerate_table.cells", n)),
    ("oracle.us_per_row", "us", ["oracle.enumerate_table"],
     lambda t, n: _ratio(t, "oracle.enumerate_table.ms", "oracle.enumerate_table.rows", 1000.0)),
    _ms("oracle.eval_formula"),
    _ms("oracle.true_estimand"),
    _ms("oracle.validate_consistency"),
    _ms("oracle.check_soundness"),
]


def _spawn(inputs: bytes, args: list[str]) -> dict:
    """Run the worker in a fresh process and return its JSON summary."""
    # Bytecode is cached under .bench_build, so set-up after the first
    # process imports swigc as an installed CLI would, whatever the caller's
    # PYTHONDONTWRITEBYTECODE says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--spawned", repr(spawned), *args]
    proc = subprocess.run(
        cmd, input=inputs, capture_output=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    p = argparse.ArgumentParser(description="swigc benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "swigc").is_dir():
        print(f"error: no swigc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inputs = json.dumps(workloads.build(args.workload, args.seed)).encode("utf-8")
    setups = [_spawn(inputs, ["--setup-only"]) for _ in range(SETUP_RUNS - 1)]
    run_args = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        run_args += ["--spans", str(spans)]
    run = _spawn(inputs, run_args)
    setups.append(run)

    attempted, failed = run["attempted"], run["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {run['passes']}")
    print(f"failed_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} requests)")
    for line in run["failures"]:
        print(f"FAILED {line}")

    if not args.trace:
        n = run["samples"]
        metrics = {
            "latency_ms.p50": _metric(run["p50_ms"], "ms"),
            "latency_ms.p90": _metric(run["p90_ms"], "ms"),
            "requests_per_s": _metric(run["requests_per_s"], "1/s"),
            "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
            "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
        }
        counts = {"latency_ms.p50": n, "latency_ms.p90": n, "requests_per_s": n, "setup_s": len(setups)}
        raw = run["raw"]
        print(
            f"unscaled: latency_ms.p50 {raw['p50_ms']:.6g} ms, latency_ms.p90 {raw['p90_ms']:.6g} ms,"
            f" requests_per_s {raw['requests_per_s']:.6g} 1/s,"
            f" setup_s {statistics.median(s['raw_setup_s'] for s in setups):.6g} s"
        )
    else:
        totals, n = run["totals"], run["samples"]
        missing = set(run["missing"])
        metrics = {}
        for name, unit, needs, value in PER_LAYER:
            if missing.intersection(needs):
                print(f"MISSING {name}: swigc no longer defines {', '.join(sorted(missing.intersection(needs)))}")
                continue
            metrics[name] = _metric(value(totals, n), unit)
        metrics["trace.overhead_ms"] = _metric(run["overhead_ms"], "ms")
        counts = {name: n for name in metrics}
        print(f"spans written to {spans.relative_to(ROOT)}")
        for label, row in run["by_request"].items():
            print(
                f"request {label}: {row['ms']:.3f} ms, d_separated {row['d_separated']:.0f},"
                f" open_paths {row['open_paths']:.0f}"
            )
    for name, m in metrics.items():
        shown = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{shown}")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

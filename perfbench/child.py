"""One workload run in a fresh process: set up, closed loop, answer checks.

Reads the workload's inputs (see ``workloads.build``) as JSON on stdin and
writes one JSON summary as its last stdout line.  ``--spawned`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` runs from process start to the first timed request and covers
interpreter start-up, ``import swigc`` and parsing every input study.
Times are reported at reference speed (see ``Speed``).

One client, no threads: each request starts when the previous one has
returned, as a CLI caller's would.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import digest

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 110  # p90 keeps at least ten samples beyond it
MAX_LOOP_S = 75.0  # per loop; a traced run has two

# The 2-core shared virtual machine the baseline was measured on runs at
# speeds up to 1.6x apart, in phases of 15-60 s, and every operation slows
# alike: a run's raw times depend on the phases it meets.  So a fixed probe that does
# not touch swigc runs between requests every PROBE_EVERY_S, and each time
# is scaled by PROBE_REF_MS over the median of the last PROBE_WINDOW probe
# times: times are reported at the speed where the probe takes PROBE_REF_MS.
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 9
PROBE_REF_MS = 1.5


def _import_swigc():
    src = ROOT / "src"
    if not (src / "swigc" / "__init__.py").is_file():
        sys.exit(f"error: no swigc sources under {src}")
    sys.path.insert(0, str(src))
    import swigc
    import swigc.cli

    if Path(swigc.__file__).resolve().parent != src / "swigc":
        sys.exit(f"error: imported swigc from {swigc.__file__}, not from {src}")
    return swigc


def probe() -> None:
    """Tuple-keyed dicts, frozensets and exact fractions, as swigc uses them."""
    table: dict = {}
    total = Fraction(0)
    for i in range(300):
        key = (i % 31, i % 7, "n")
        table[key] = table.get(key, 0) + 1
        total += Fraction(len(frozenset((i % 5, i % 3, key))), i % 11 + 2)
    cells = {}
    for i in range(3000):
        cells[(i, i % 7, i % 3)] = (i,)


class Speed:
    """Factor that scales a time measured now to the reference speed."""

    def __init__(self) -> None:
        self.recent: list[float] = []
        for _ in range(PROBE_WINDOW):
            self.measure()

    def measure(self) -> None:
        gc.disable()  # collecting swigc's garbage is not probe time
        try:
            start = time.perf_counter()
            probe()
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.recent = self.recent[1 - PROBE_WINDOW :] + [(self.last - start) * 1000.0]

    def scale(self) -> float:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.measure()
        return PROBE_REF_MS / statistics.median(self.recent)


class Runner:
    """Executes requests against swigc and turns each result into an answer."""

    def __init__(self, swigc, studies: list):
        self.sw = swigc
        self.studies = studies

    def answer(self, req: dict):
        return getattr(self, "_" + req["kind"])(req)

    def _cli(self, req: dict) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.sw.cli.main(req["argv"])
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
        return {"exit": code, "stdout": digest(out.getvalue()), "stderr": digest(err.getvalue())}

    def _identify(self, req: dict) -> dict:
        ident = self.sw.identify
        report = ident.identify_estimand(self.studies[req["text"]])
        code = ident.verdict_code(report)
        arms = (report.left, report.right)
        if code == 5:
            return {"verdict": code, "witness": [a.blocked.witness_label for a in arms]}
        sets = [
            [base for base, _ in a.formula.bindings]
            if isinstance(a.formula, self.sw.formula.SumOver)
            else []
            for a in arms
        ]
        return {"verdict": code, "sets": sets}

    def _open_paths(self, req: dict) -> list[str]:
        compiled = self.sw.estimand.compile_study(self.studies[req["text"]])
        graph = self.sw.estimand.study_swig(compiled).graph
        x, y, z = (frozenset({graph.node(label)}) for label in req["query"])
        query = self.sw.dsep.DSepQuery(x, y, z)
        found = self.sw.dsep.open_paths(graph, query, limit=req["limit"])
        return [self.sw.dsep.path_string(w) for w in found]

    def _soundness(self, req: dict) -> dict:
        try:
            r = self.sw.oracle.check_soundness(self.studies[req["text"]], seed=req["seed"])
        except self.sw.errors.SupportTooLarge:
            return {"error": "SupportTooLarge"}
        return {
            "sound": r.sound,
            "true": _text(r.true_value),
            "formula": _text(r.formula_value),
            "naive": _text(r.naive_value),
        }


def _text(value) -> str | None:
    return None if value is None else str(value)


def run_loop(
    runner: Runner,
    passes: list,
    seconds: float,
    tracer=None,
    speed: Speed | None = None,
    min_samples: int = MIN_SAMPLES,
) -> dict:
    """Whole passes until ``seconds`` have gone and ``min_samples`` requests ran.

    With ``speed``, ``scaled`` holds each request's time at reference speed.
    """
    latencies: list[float] = []
    scaled: list[float] = []
    failures: list[str] = []
    requests: list[tuple[int, str]] = []  # (request span id, label) when traced
    refused: set[int] = set()
    start = time.perf_counter()
    n = 0
    while True:
        for req in passes[n % len(passes)]:
            rid = len(tracer.spans) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    got = runner.answer(req)
                else:
                    got = tracer.call(tracing.REQUEST, runner.answer, (req,), {})
            except Exception as exc:  # an unexpected error is a failed request
                got = {"unexpected": f"{type(exc).__name__}: {exc}"}
            latencies.append((time.perf_counter() - t0) * 1000.0)
            if speed is not None:
                scaled.append(latencies[-1] * speed.scale())
            if got != req["expect"]:
                failures.append(f"{req['label']}: got {got!r}, expected {req['expect']!r}")
            if tracer is not None:
                requests.append((rid, req["label"]))
                if got == {"error": "SupportTooLarge"}:
                    refused.add(rid)
        n += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= min_samples) or elapsed >= MAX_LOOP_S:
            break
    return {
        "latencies": latencies,
        "scaled": scaled,
        "failures": failures,
        "wall_s": elapsed,
        "passes": n,
        "requests": requests,
        "refused": refused,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="file the traced run's spans are written to")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    inputs = json.load(sys.stdin)
    swigc = _import_swigc()
    studies = [swigc.dsl.parse_study(text) for text in inputs["texts"]]
    setup_s = time.monotonic() - args.spawned
    speed = Speed()
    setup = {"setup_s": setup_s * speed.scale(), "raw_setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    runner = Runner(swigc, studies)
    passes = inputs["passes"]
    if not args.trace:
        run = run_loop(runner, passes, args.seconds, speed=speed)
        lat, raw = run["scaled"], run["latencies"]
        cuts = statistics.quantiles(lat, n=100, method="inclusive")
        raw_cuts = statistics.quantiles(raw, n=100, method="inclusive")
        summary = {
            "p50_ms": cuts[49],
            "p90_ms": cuts[89],
            "requests_per_s": len(lat) / (sum(lat) / 1000.0),
            "raw": {
                "p50_ms": raw_cuts[49],
                "p90_ms": raw_cuts[89],
                "requests_per_s": len(raw) / (sum(raw) / 1000.0),
            },
        }
    else:
        half = args.seconds / 2
        # Percentiles are not reported here, so whole passes are enough.
        plain = run_loop(runner, passes, half, min_samples=0)
        tracer = tracing.Tracer()
        tracer.install(swigc)
        try:
            run = run_loop(runner, passes, half, tracer, min_samples=0)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        lat = run["latencies"]
        run["failures"] = plain["failures"] + run["failures"]
        summary = {
            "totals": tracing.layer_totals(tracer.spans, run["refused"]),
            "missing": tracer.missing,
            "overhead_ms": statistics.fmean(lat) - statistics.fmean(plain["latencies"]),
            "by_request": tracing.per_label(tracer.spans, run["requests"]),
        }
        lat = plain["latencies"] + lat
    summary.update(
        **setup,
        samples=len(run["latencies"]),
        attempted=len(lat),
        failed=len(run["failures"]),
        failures=run["failures"][:10],
        passes=run["passes"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

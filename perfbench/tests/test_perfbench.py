"""Tests for the benchmark itself: generators, known answers, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import families  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from swigc import (  # noqa: E402
    DSepQuery,
    SumOver,
    SupportTooLarge,
    check_soundness,
    compile_study,
    identify_estimand,
    open_paths,
    parse_study,
    path_string,
    random_scm,
    study_swig,
    verdict_code,
)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    first = workloads.build(workload, 11)
    assert json.dumps(first) == json.dumps(workloads.build(workload, 11))
    assert json.dumps(first) != json.dumps(workloads.build(workload, 12))


@pytest.mark.parametrize(
    "workload, size", [("specs", 65), ("adjust-search", 25), ("refute-witness", 25), ("oracle", 25)]
)
def test_every_pass_has_the_same_mix(workload, size):
    passes = workloads.build(workload, 3)["passes"]
    assert len(passes) == workloads.VARIANTS
    mixes = {tuple(sorted(r["label"] for r in p)) for p in passes}
    assert len(mixes) == 1 and len(passes[0]) == size


def _chosen(report) -> list[list[str]]:
    return [
        [base for base, _ in arm.formula.bindings] if isinstance(arm.formula, SumOver) else []
        for arm in (report.left, report.right)
    ]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("decoys, pairs, events", [(0, 0, 1), (2, 0, 1), (0, 1, 1), (0, 2, 1), (0, 0, 2), (1, 1, 2)])
def test_adjust_chain_answer_matches_the_search(k, decoys, pairs, events):
    for seed in range(3):
        text, expected = families.adjust_chain(random.Random(seed), k, decoys, pairs, events)
        report = identify_estimand(parse_study(text))
        assert verdict_code(report) == 0
        assert _chosen(report) == [expected, expected]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_dense_refute_answer_matches_the_engine(k):
    for seed in range(3):
        text, labels = families.dense_refute(random.Random(seed), k)
        study = parse_study(text)
        report = identify_estimand(study)
        witness = families.refute_paths(labels, 1)[0]
        assert verdict_code(report) == 5
        assert [report.left.blocked.witness_label, report.right.blocked.witness_label] == [witness] * 2
        assert witness == f"M(a) <- {min(labels)} -> Y(a,m)"
        graph = study_swig(compile_study(study)).graph
        x, y, z = (frozenset({graph.node(n)}) for n in workloads.REFUTE_QUERY)
        found = [path_string(w) for w in open_paths(graph, DSepQuery(x, y, z), limit=5)]
        assert found == families.refute_paths(labels, 5)


def test_row_scaling_smallest_matches_recorded_answer():
    recorded = json.loads((workloads.EXPECTED / "oracle.json").read_text())
    noise = workloads.ROW_NOISE[0]
    report = check_soundness(parse_study(families.row_scaling(noise)), seed=0)
    assert report.sound
    assert recorded[f"rows-{144 * noise}/0"] == {
        "sound": True,
        "true": str(report.true_value),
        "formula": str(report.formula_value),
        "naive": str(report.naive_value),
    }


def test_cap_refusal_smallest_is_refused_after_building_its_tables():
    values, roots = workloads.CAP_SHAPES[0]
    study = parse_study(families.cap_refusal(values, roots))
    entries, rows = families.cap_refusal_size(values, roots)
    assert rows > 10**6
    scm = random_scm(compile_study(study).graph, 0)
    assert sum(len(eq.table) for eq in scm.equations.values()) == entries
    with pytest.raises(SupportTooLarge):
        check_soundness(study, seed=0)


def _span(sid, parent, name, start, end, counts=None):
    return (sid, parent, name, start, end, counts)


def test_self_time_subtracts_only_what_children_cover():
    spans = [
        _span(0, None, "request", 0.0, 10.0),
        _span(1, 0, "identify.identify_estimand", 1.0, 4.0),
        _span(2, 0, "dsep.open_paths", 5.0, 9.0),
        _span(3, 2, "dsep.d_separated", 6.0, 8.0),
        _span(4, 1, "dsep.d_separated", 2.0, 3.5),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 2.0, 2.0, 1.5])


def test_layer_totals_count_calls_dsep_per_verdict_and_waste():
    spans = [
        _span(0, None, "request", 0.0, 0.010),
        _span(1, 0, "identify.identify_estimand", 0.001, 0.004),
        _span(2, 1, "dsep.d_separated", 0.002, 0.003),
        _span(3, 0, "dsep.d_separated", 0.005, 0.006),
        _span(4, 0, "oracle.random_scm", 0.006, 0.009, {"entries": 7}),
        _span(5, None, "request", 0.020, 0.030),
        _span(6, 5, "oracle.random_scm", 0.021, 0.022, {"entries": 5}),
    ]
    totals = tracing.layer_totals(spans, refused={0})
    assert totals["dsep.d_separated.calls"] == 2
    assert totals["identify.dsep_calls"] == 1
    assert totals["dsep.d_separated.ms"] == pytest.approx(2.0)
    assert totals["identify.identify_estimand.ms"] == pytest.approx(2.0)
    assert totals["request.ms"] == pytest.approx(3.0 + 9.0)
    assert totals["oracle.random_scm.entries"] == 12
    assert totals["oracle.refused_entries"] == 7


def test_tracer_wraps_every_binding_and_restores_them(monkeypatch):
    import swigc
    import swigc.cli
    import swigc.dsep
    import swigc.identify

    original = swigc.dsep.d_separated
    monkeypatch.setitem(tracing.TRACED, "dsep", ("d_separated", "no_such_function"))
    study = parse_study(families.adjust_chain(random.Random(0), 2)[0])
    tracer = tracing.Tracer()
    tracer.install(swigc)
    try:
        for module in (swigc, swigc.dsep, swigc.identify, swigc.cli):
            assert module.d_separated is not original
        tracer.call(tracing.REQUEST, swigc.identify.identify_estimand, (study,), {})
    finally:
        tracer.uninstall()
    assert tracer.missing == ["dsep.no_such_function"]
    for module in (swigc, swigc.dsep, swigc.identify, swigc.cli):
        assert module.d_separated is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[:2] == [tracing.REQUEST, "identify.identify_estimand"]
    assert names.count("identify.identify_term") == 2
    assert names.count("dsep.d_separated") == 16  # 2 ** (k + 2) for k = 2
    assert all(s[tracing.PARENT] is not None for s in tracer.spans[1:])
    totals = tracing.layer_totals(tracer.spans, refused=set())
    assert totals["identify.dsep_calls"] == 16


def test_benchmark_json_lists_every_metric_the_runner_prints():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [m[0] for m in run.PER_LAYER] + [
        "trace.overhead_ms"
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

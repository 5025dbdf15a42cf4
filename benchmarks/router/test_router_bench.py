"""Checks of the router benchmark itself (``pytest benchmarks/router -q``).

Not part of tier-1: the parametrized tests run every workload in ``--quick``
shape, which takes about a minute.
"""

import json
from pathlib import Path

import pytest

import harness
import metrics
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAMES = [workload.name for workload in workloads.WORKLOADS]


@pytest.fixture(scope="module")
def contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- names -------------------------------------------------------------------

def test_benchmark_json_lists_the_tables(contract):
    assert contract["paths"] == ["benchmarks/router"]
    assert contract["run_seconds"] == workloads.REFERENCE_SECONDS
    assert ([(w["name"], w["why"]) for w in contract["workloads"]]
            == [(w.name, w.why) for w in workloads.WORKLOADS])
    assert ([(m["name"], m["unit"], m["better"], m["bound"])
             for m in contract["end_to_end"]]
            == [row[:4] for row in metrics.END_TO_END if row[0] in metrics.GATED])
    assert ([(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]]
            == list(metrics.PER_LAYER)
            + [row[:3] for row in metrics.END_TO_END
               if row[0] not in metrics.GATED])
    assert "setup_s" in metrics.GATED


@pytest.mark.parametrize("name", NAMES)
def test_quick_run_is_correct_and_emits_the_listed_names(contract, name):
    report = harness.run_workload(name, seed=3, seconds=workloads.REFERENCE_SECONDS,
                                  end_to_end=True, traced=True, quick=True)
    assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
    # The traced pass accounts for itself.
    assert report["per_layer"]["trace.submit_coverage"]["value"] >= 0.9
    # --quick drops the tail percentiles it has no samples for; everything
    # else an end-to-end run of this workload reports is in the bounds table.
    expected = set(metrics.bounds_for(name)) - {"submit_p95_ms", "submit_p99_ms"}
    assert expected <= set(report["end_to_end"]) <= set(metrics.bounds_for(name))
    assert set(report["per_layer"]) == {row[0] for row in metrics.PER_LAYER}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = run._parse(["--workload", name, "--trace", str(trace)])
        line = json.loads(run._contract_line(args, report))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert ({(key, value["unit"]) for key, value in line["metrics"].items()}
                == {(m["name"], m["unit"]) for m in contract[section]})


# -- the unrolled submit -----------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_unrolled_submit_returns_what_broker_submit_returns(name):
    inputs = workloads.generate(workloads.BY_NAME[name], seed=3)
    served = harness.set_up(inputs)
    session = harness.UnrolledSession(served.index, served.delivery,
                                      harness.Tracer())
    churner = harness.Churner(inputs) if inputs.workload.churn_pairs else None
    for position, chunks in enumerate(inputs.feed[:6]):
        if churner is not None:
            assert churner.step(served.broker.subscribe,
                                served.broker.unsubscribe) == 0
        through_broker = served.broker.submit(position, chunks)
        rows, stats = through_broker.results, through_broker.stats.as_row()
        unrolled = session.submit(position, chunks)
        assert unrolled.results == rows
        if churner is None:
            assert unrolled.stats.as_row() == stats
        else:
            # The two sessions share one automaton: whichever runs first
            # after an invalidation re-materializes the dropped transitions.
            assert unrolled.stats.events == stats["events"]
    spans = session.tracer.spans
    assert all(end >= start for _, start, end, _, _ in spans)
    assert {spans[parent][0] for _, _, _, parent, _ in spans
            if parent is not None} == {"submit"}


def test_unrolled_submit_rebuilds_after_a_vacuum():
    inputs = workloads.generate(workloads.BY_NAME["churn_large_verdict"], seed=3)
    served = harness.set_up(inputs)
    session = harness.UnrolledSession(served.index, served.delivery,
                                      harness.Tracer())
    session.submit(0, inputs.feed[0])
    for key in range(300):      # past vacuum_ratio: ordinals are remapped
        served.broker.unsubscribe(key)
    assert served.index.churn.vacuum_runs >= 1
    assert (session.submit(1, inputs.feed[1]).results
            == served.broker.submit(1, inputs.feed[1]).results)
    assert session.builds == 2


# -- arithmetic --------------------------------------------------------------

def test_span_self_time_is_span_minus_children():
    spans = [
        ["submit", 0, 100, None, "d0"],
        ["parser.feed", 10, 40, 0, "d0"],
        ["engine.feed", 40, 90, 0, "d0"],
        ["submit", 100, 150, None, "d1"],
        ["parser.feed", 100, 120, 3, "d1"],
    ]
    assert metrics.span_totals(spans) == {
        "submit": (2, 150, 50),
        "parser.feed": (2, 50, 50),
        "engine.feed": (1, 50, 50),
    }


def test_no_percentile_with_fewer_than_ten_samples_beyond():
    samples = [float(value) for value in range(1, 211)]     # 3 passes of 70
    assert metrics.percentile(samples, 0.95) == 200.0
    assert metrics.samples_beyond(210, 0.95) == 10
    assert metrics.percentile(samples[:200], 0.95) == 190.0
    assert metrics.percentile(samples[:199], 0.95) is None
    assert metrics.percentile(samples, 0.99) is None
    assert metrics.percentile([float(v) for v in range(1000)], 0.99) == 989.0
    assert metrics.percentile([5.0, 1.0, 3.0][::-1], 0.5) is not None
    for workload in workloads.WORKLOADS:
        pooled = harness.TIMED_PASSES * workloads.docs_per_pass(
            workload, workloads.REFERENCE_SECONDS, quick=False)
        assert metrics.samples_beyond(pooled, 0.95) >= metrics.MIN_SAMPLES_BEYOND


# -- inputs ------------------------------------------------------------------

def test_input_digests_are_stable_and_pinned():
    assert set(workloads.PINNED_SHA256) == set(NAMES)
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, workloads.DEFAULT_SEED)
        again = workloads.generate(workload, workloads.DEFAULT_SEED)
        assert first.sha256 == again.sha256 == workloads.PINNED_SHA256[workload.name]
        assert first.documents == again.documents and first.queries == again.queries
        assert workloads.generate(workload, 8).sha256 != first.sha256


def test_shared_inputs_are_shared():
    large, wide, churn = (workloads.generate(workloads.BY_NAME[name], 5)
                          for name in ("stream_large_ids", "wide_10k_ids",
                                       "churn_large_verdict"))
    assert large.documents == wide.documents == churn.documents
    assert wide.queries[:1000] == large.queries == churn.queries
    assert churn.churn_query(1000) == wide.queries[1000]
    assert all(b"".join(chunks) == data and all(len(c) <= workloads.CHUNK_BYTES
                                                for c in chunks)
               for chunks, data in zip(large.feed, large.documents))


# -- compare -----------------------------------------------------------------

def _report(value, passes):
    return {"comparable": True, "workloads": {"stream_large_ids": {
        "attempted": 100, "failed": 0,
        "end_to_end": {"docs_per_s": {"value": value, "passes": passes}}}}}


@pytest.mark.parametrize("after, status", [
    (_report(50.0, [49.0, 50.0, 51.0]), 0),      # within bound
    (_report(70.0, [69.0, 70.0, 71.0]), 0),      # better
    (_report(35.0, [34.0, 35.0, 36.0]), 1),      # worse
])
def test_compare_applies_the_bounds(tmp_path, capsys, after, status):
    paths = []
    for label, report in (("a", _report(50.0, [49.5, 50.0, 50.5])), ("b", after)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(report))
    assert run.compare(*map(str, paths)) == status
    assert "stream_large_ids" in capsys.readouterr().out


def test_compare_reports_unresolved_when_the_baseline_is_noisy(tmp_path, capsys):
    noisy = tmp_path / "a.json"
    noisy.write_text(json.dumps(_report(50.0, [40.0, 50.0, 65.0])))
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(_report(36.0, [35.0, 36.0, 37.0])))
    assert run.compare(str(noisy), str(worse)) == 0
    assert "unresolved" in capsys.readouterr().out

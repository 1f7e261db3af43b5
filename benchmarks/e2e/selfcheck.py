"""Checks of the end-to-end benchmark's own machinery (not of its numbers).

The file name keeps these checks out of the repository's default pytest
run, whose test set the benchmark leaves unchanged.  Run them with::

    python -m pytest benchmarks/e2e/selfcheck.py
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.algebra import parse_ra

from e2e import compare, layers, run, stats, workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# self-time folding
# ----------------------------------------------------------------------
_clock = threading.local()


def _now():
    return getattr(_clock, "now", 0.0)


def _advance(seconds):
    _clock.now = _now() + seconds


def inner():
    _advance(1.0)


def middle():
    _advance(2.0)
    inner()
    _advance(0.5)


def outer():
    _advance(3.0)
    middle()
    middle()


def test_self_time_folds_nested_calls_from_two_threads():
    name = __name__
    table = {
        "outer": (f"{name}.outer",),
        "middle": (f"{name}.middle",),
        "inner": (f"{name}.inner", f"{name}.no_such_function"),
    }
    # A per-thread fake clock makes each thread's durations exact even
    # though both threads record into one recorder at the same time.
    recorder = layers.SpanRecorder(clock=_now)
    restore, missing = layers.install(recorder, table)
    barrier = threading.Barrier(2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def work():
        barrier.wait(timeout=10)
        for _ in range(50):
            outer()

    try:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
        restore()

    assert missing == [f"{name}.no_such_function"]
    assert getattr(sys.modules[name], "outer") is outer  # restored
    folded = layers.fold(recorder.spans)
    assert folded["outer"] == {"self_seconds": 2 * 50 * 3.0, "calls": 100}
    assert folded["middle"] == {"self_seconds": 2 * 50 * 2 * 2.5, "calls": 200}
    assert folded["inner"] == {"self_seconds": 2 * 50 * 2 * 1.0, "calls": 200}
    by_id = {span.span_id: span for span in recorder.spans}
    assert len({span.thread for span in recorder.spans}) == 2
    for span in recorder.spans:
        if span.parent_id is None:
            assert span.layer == "outer"
        else:
            assert by_id[span.parent_id].thread == span.thread


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_percentile_refuses_p95_below_200_samples():
    with pytest.raises(ValueError, match="200"):
        stats.percentile([float(i) for i in range(199)], 95)
    assert stats.percentile([float(i) for i in range(1, 201)], 95) == 190.0
    assert stats.percentile([float(i) for i in range(1, 21)], 50) == 10.0


def test_compare_verdicts():
    old = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(old, [v * 1.3 for v in old], 0.1, "lower") == "regressed"
    assert compare.verdict(old, [v * 0.7 for v in old], 0.1, "lower") == "improved"
    assert compare.verdict(old, [v * 1.01 for v in old], 0.1, "lower") == "unchanged"
    assert compare.verdict(old, [50.0, 150.0, 90.0, 110.0, 100.0], 0.1, "lower") == "unresolved"
    assert compare.verdict(old, [v * 1.3 for v in old], 0.1, "higher") == "improved"


# ----------------------------------------------------------------------
# correctness checks and inputs
# ----------------------------------------------------------------------
def test_wrong_answer_shows_in_fail_frac(monkeypatch):
    def wrong(seed):
        workload = workloads.tiny_warm(seed)
        workload.expected_diff = frozenset()  # every e01 answer now mismatches
        return workload

    monkeypatch.setitem(workloads.WORKLOADS, "tiny_wrong", wrong)
    result = run.measure(run.untraced_spec("tiny_wrong", 0, 0.0, smoke=True))
    assert result["failed"] > 0
    assert result["metrics"]["fail_frac"] == 0.5  # the DIFF half of the pair
    assert "wrong answer" in result["first_error"]


@pytest.mark.parametrize("seed", range(5))
def test_worlds_generator_enumerates_every_world(seed):
    workload = workloads.Worlds(seed)
    assert workload.expected_certain
    database = repro.Database.from_relations(
        [
            repro.Relation.create("R", workload.r, attributes=("a", "b")),
            repro.Relation.create("S", workload.s, attributes=("a", "b")),
        ]
    )
    session = repro.connect(database)
    answer = session.query(parse_ra(workloads.WORLDS_QUERY)).certain()
    assert answer.rows == workload.expected_certain
    # A nonempty intersection never stops early: all 64 distinct worlds run.
    assert session.metrics()["counters"]["worlds.evaluated"] == 64


# ----------------------------------------------------------------------
# the traced run and the command
# ----------------------------------------------------------------------
def test_traced_run_reports_every_layer_metric_and_restores():
    original = repro.session.Query.certain
    result = run.measure(run.lite_spec("tiny_warm", 0, 0.2, traced=True))
    assert repro.session.Query.certain is original
    names = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(result["layers"]) | {"obs.trace_overhead"} == names
    assert result["layers"]["session.self_ms"] > 0
    assert result["failed"] == 0


def test_smoke_run_uses_no_deprecated_entry_point(tmp_path):
    out = tmp_path / "smoke.json"
    process = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    results = json.loads(out.read_text(encoding="utf-8"))
    assert [r["workload"] for r in results["runs"]] == list(workloads.WORKLOADS)
    for record in results["runs"]:
        assert record["rounds"] == 3 and record["failed"] == 0
        assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(record["metrics"])

"""Tests of the benchmark's own machinery: run with
``python3 -m pytest perfbench -q`` from the repository root."""

import json
import os
import statistics
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pace  # noqa: E402
import stats  # noqa: E402
from run import ENTERED, check_trace  # noqa: E402
from spans import Recorder  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    recorder = Recorder(clock)

    def child(name, seconds):
        recorder.enter(name)
        clock.now += seconds
        recorder.exit()

    def body():
        clock.now += 1.0                 # root's own work
        recorder.enter("outer")
        clock.now += 2.0                 # outer's own work
        child("inner", 3.0)
        child("inner", 4.0)
        recorder.exit()
        child("leaf", 5.0)

    recorder.root(body)
    totals = recorder.totals()
    assert totals["outer"] == [1, 2.0, 9.0]
    assert totals["inner"] == [2, 7.0, 7.0]
    assert totals["leaf"] == [1, 5.0, 5.0]
    assert totals["root"] == [1, 1.0, 15.0]
    report = recorder.report()
    assert report["wall_s"] == report["root_thread_self_s"] == 15.0


def test_only_spans_closed_inside_a_root_are_counted():
    clock = FakeClock()
    recorder = Recorder(clock)

    def span(name, seconds):
        recorder.enter(name)
        clock.now += seconds
        recorder.exit()

    span("setup", 10.0)

    def body():
        span("work", 2.0)
        clock.now += 0.5

    recorder.root(body)
    span("check", 3.0)
    assert set(recorder.totals()) == {"root", "work"}
    report = recorder.report()
    assert report["wall_s"] == report["root_thread_self_s"] == 2.5


def test_other_threads_count_into_the_totals_not_the_root_thread():
    clock = FakeClock()
    recorder = Recorder(clock)

    def worker():
        recorder.enter("handle")
        clock.now += 1.5
        recorder.exit()

    def body():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        clock.now += 0.5

    recorder.root(body)
    report = recorder.report()
    assert report["spans"]["handle"] == [1, 1.5, 1.5]
    assert report["wall_s"] == report["root_thread_self_s"] == 2.0
    assert report["other_thread_max_self_s"] == 1.5


class FakeSession:
    def __init__(self):
        self.reasons = []

    def check(self, ok, reason):
        if not ok:
            self.reasons.append(reason)


def _trace_report(wall, root_thread_self, other_max):
    return {"spans": {}, "gauges": {}, "wall_s": wall,
            "root_thread_self_s": root_thread_self,
            "other_thread_max_self_s": other_max}


def test_check_trace_fails_on_spans_outside_the_phase_and_unentered_layers():
    entered = dict.fromkeys(ENTERED["serve_batch"], 1)
    good = FakeSession()
    check_trace(good, "serve_batch", [_trace_report(2.0, 2.0, 1.9)], entered)
    assert good.reasons == []
    bad = FakeSession()
    check_trace(bad, "serve_batch", [_trace_report(2.0, 2.5, 2.1)],
                {**entered, "nn.ops.segment_sum.calls": 0})
    assert len(bad.reasons) == 3


def test_wrap_records_span_even_when_the_call_raises():
    recorder = Recorder(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.root(recorder.wrap("boom", boom))
    assert recorder.totals()["boom"][0] == 1


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert stats.percentile(values, 99) == 990
    assert stats.percentile(values[:110], 90) == 99
    with pytest.raises(ValueError):
        stats.percentile(values[:999], 99)
    with pytest.raises(ValueError):
        stats.latency_summary(values[:999])


def test_latency_p50_averages_windows_and_p99_takes_their_median():
    # Windows alternate between a fast and a slow mode: the pooled median
    # would be one mode or the other; the windowed one is their mean.
    fast = [1.0 + i / 1000 for i in range(1000)]
    slow = [2.0 + i / 1000 for i in range(1000)]
    # A window that caught a burst of host stalls: its p99 is one vote.
    burst = fast[:970] + [50.0] * 30
    summary = stats.latency_summary(fast + slow + burst + [99.0] * 999)
    assert summary["samples"] == 3999
    # Nearest rank: a window's p50 is its 50th value.
    burst_p50 = [sorted(burst[i:i + 100])[49] for i in range(0, 1000, 100)]
    assert summary["p50_ms"] == pytest.approx(statistics.fmean(
        [fast[i + 49] for i in range(0, 1000, 100)]
        + [slow[i + 49] for i in range(0, 1000, 100)] + burst_p50 + [99.0] * 9))
    assert summary["p99_ms"] == pytest.approx(slow[989])


def test_paced_latencies_divide_by_their_own_slowdown():
    # The same work measured in a fast and in a 1.5x slower phase reads
    # the same once each latency is divided by its probe's slowdown.
    work = [1.0 + i / 1000 for i in range(1000)]
    slow = [1.5 * v for v in work]
    summary = stats.latency_summary(work + slow, [1.0] * 1000 + [1.5] * 1000)
    assert summary["p50_ms"] == pytest.approx(statistics.fmean(
        [work[i + 49] for i in range(0, 1000, 100)]))
    assert summary["p99_ms"] == pytest.approx(work[989])


def test_pace_probe_reports_slowdown_and_time_spent():
    clock = FakeClock()

    def task():
        clock.now += 1.5 * pace.REFERENCE_S

    probe = pace.Pace(task, clock)
    assert probe.probe() == pytest.approx(1.5)
    assert probe.probe() == pytest.approx(1.5)
    assert probe.spent == pytest.approx(3 * pace.REFERENCE_S)
    assert list(probe.stamps) == pytest.approx([1.5 * pace.REFERENCE_S,
                                                3 * pace.REFERENCE_S])
    assert stats.paced(3.0, [1.0, 2.0]) == pytest.approx(2.0)


def test_smoothed_slowdown_averages_nearby_probes_or_takes_the_nearest():
    stamps = [0.0, 0.1, 0.2, 1.0, 5.0]
    slowdowns = [1.0, 2.0, 3.0, 4.0, 5.0]
    got = stats.smoothed([0.1, 0.9, 2.9, 3.1, 9.0], stamps, slowdowns, 0.15)
    assert got == pytest.approx([2.0, 4.0, 4.0, 5.0, 5.0])


def test_merge_spans_folds_backend_tags():
    reports = [{"spans": {"nn.ops.segment_sum@reduceat": [2, 1.0, 1.5],
                          "nn.ops.segment_sum@legacy": [1, 0.5, 0.5]}},
               {"spans": {"nn.ops.segment_sum@reduceat": [1, 0.25, 0.25]}}]
    assert stats.merge_spans(reports) == {"nn.ops.segment_sum": [4, 1.75, 2.25]}
    assert stats.backend_tags(reports) == {
        "nn.ops.segment_sum": {"reduceat": 3, "legacy": 1}}


def test_layer_metrics_match_the_declared_per_layer_set():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = {m["name"] for m in json.load(handle)["per_layer"]}
    report = _trace_report(1.0, 1.0, 0.0)
    metrics = stats.layer_metrics([report], 1.0,
                                  {"fit_s": 0.0, "throughput_rps": 0.0})
    assert set(metrics) == declared


def _peak_rss_via_light_launcher(megabytes: int) -> float:
    """``jobs.peak_rss_mb()`` of a job that touches ``megabytes`` MB, started
    the way ``run.py`` starts the server: by a stdlib-only parent."""
    job = ("import numpy as np, jobs; a = np.ones({} * 2**20 // 8); "
           "print(jobs.peak_rss_mb())").format(megabytes)
    launcher = ("import subprocess, sys; sys.stdout.write(subprocess.run("
                "[sys.executable, '-c', {!r}], capture_output=True, text=True, "
                "check=True).stdout)").format(job)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(HERE), "src"), HERE]))
    out = subprocess.run([sys.executable, "-c", launcher], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip())


def test_job_rss_reading_is_its_own_peak_not_the_callers():
    """Linux carries the exec-ing process's high-water RSS into the child's
    ``ru_maxrss``; the stdlib-only launcher keeps that floor small, so a
    job's reading is its own even when the benchmark's caller is large."""
    ballast = bytearray(400 * 2**20)  # this process's peak: > 400 MB
    ballast[::4096] = b"x" * len(ballast[::4096])
    small = _peak_rss_via_light_launcher(1)
    large = _peak_rss_via_light_launcher(200)
    assert small < 150.0
    assert 200.0 <= large < 200.0 + small

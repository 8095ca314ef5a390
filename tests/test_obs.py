"""Observability layer: tracer ring, histogram bucketing, Chrome-trace
schema, report determinism, the diff contract, and the
zero-cost-when-disabled guarantees."""

import json

import pytest

from repro.core.framework import run_program
from repro.core.verifier import Verifier
from repro.ipc.base import Channel
from repro.obs import (Counter, Gauge, Histogram, MetricsRegistry, Observer,
                       Tracer, chrome_trace, diff_reports)
from repro.obs.__main__ import main as obs_main, render_summary
from repro.sim.kernel import HQKernelModule
from repro.workloads.generator import build_module
from repro.workloads.profiles import get_profile


def observed_run(observe=True, seed=1):
    module = build_module(get_profile("401.bzip2"), dataset="train")
    return run_program(module, design="hq-sfestk", channel="model",
                       kill_on_violation=False, seed=seed,
                       max_steps=10_000_000, observe=observe)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_ring_wraparound_keeps_newest_events(self):
        tracer = Tracer(capacity=4)
        for i in range(6):
            tracer.instant("t", f"e{i}")
        assert len(tracer) == 4
        assert tracer.dropped == 2
        names = [event[3] for event in tracer.events()]
        assert names == ["e2", "e3", "e4", "e5"]

    def test_events_chronological_after_wrap(self):
        tracer = Tracer(capacity=3)
        for i in range(7):
            tracer.instant("t", f"e{i}")
        timestamps = [event[0] for event in tracer.events()]
        assert timestamps == sorted(timestamps)

    def test_no_wrap_below_capacity(self):
        tracer = Tracer(capacity=8)
        tracer.instant("a", "x")
        tracer.complete("b", "span", 10.0, 5.0, {"k": 1})
        assert tracer.dropped == 0
        assert tracer.summary() == {"events": 2, "dropped": 0,
                                    "capacity": 8}
        kinds = [event[4] for event in tracer.events()]
        assert kinds == ["i", "X"]

    def test_custom_clock_is_used(self):
        ticks = iter([5.0, 7.0])
        tracer = Tracer(capacity=4, clock=lambda: next(ticks))
        tracer.instant("t", "a")
        tracer.instant("t", "b")
        assert [event[0] for event in tracer.events()] == [5.0, 7.0]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((4, 2, 1))

    def test_bucket_edges_are_inclusive_upper_bounds(self):
        hist = Histogram((1, 2, 4))
        for value in (1, 2, 2.5, 4, 5):
            hist.observe(value)
        # 1 -> <=1; 2 -> <=2; 2.5 and 4 -> <=4; 5 -> overflow.
        assert hist.counts == [1, 1, 2, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(14.5)
        assert hist.min == 1 and hist.max == 5

    def test_as_dict_shape(self):
        hist = Histogram((10,))
        data = hist.as_dict()
        assert data == {"edges": [10], "counts": [0, 0], "count": 0,
                        "sum": 0.0, "min": None, "max": None}


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a.x") is registry.counter("a.x")
        assert registry.histogram("a.h", (1, 2)) is \
            registry.histogram("a.h", (1, 2))

    def test_layers_group_on_first_dot_segment(self):
        registry = MetricsRegistry()
        registry.counter("cpu.blocks")
        registry.gauge("ipc.sent", 3)
        registry.histogram("verifier.lag", (1,))
        assert registry.layers() == ["cpu", "ipc", "verifier"]

    def test_counter_and_gauge_semantics(self):
        counter, gauge = Counter(), Gauge()
        counter.inc()
        counter.inc(4)
        gauge.set(9)
        gauge.set(2)     # gauges overwrite, counters accumulate
        assert counter.value == 5
        assert gauge.value == 2


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------

class TestChromeTrace:
    def test_schema(self):
        tracer = Tracer(capacity=16)
        tracer.instant("kernel", "kill", {"pid": 3})
        tracer.complete("verifier", "poll", 2000.0, 500.0)
        trace = chrome_trace(tracer)
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["dropped_events"] == 0
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        # process_name plus one thread_name per layer.
        assert {m["name"] for m in meta} == {"process_name", "thread_name"}
        assert len([m for m in meta if m["name"] == "thread_name"]) == 2

        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        assert instant["args"] == {"pid": 3}
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == pytest.approx(2.0)    # microseconds
        assert span["dur"] == pytest.approx(0.5)

    def test_layers_map_to_distinct_tids(self):
        tracer = Tracer()
        tracer.instant("a", "x")
        tracer.instant("b", "y")
        tracer.instant("a", "z")
        events = [e for e in chrome_trace(tracer)["traceEvents"]
                  if e["ph"] != "M"]
        tids = {e["cat"]: e["tid"] for e in events}
        assert tids["a"] != tids["b"]

    def test_json_serializable(self):
        tracer = Tracer()
        tracer.instant("run", "start", {"design": "hq-sfestk"})
        json.dumps(chrome_trace(tracer))


# ---------------------------------------------------------------------------
# Observed runs (integration)
# ---------------------------------------------------------------------------

class TestObservedRun:
    def test_disabled_is_the_default_and_reports_nothing(self):
        result = observed_run(observe=None)
        assert result.obs_report is None

    def test_report_covers_all_four_layers(self):
        result = observed_run()
        report = result.obs_report
        metrics = report["metrics"]
        names = (list(metrics["counters"]) + list(metrics["gauges"])
                 + list(metrics["histograms"]))
        layers = {name.split(".", 1)[0] for name in names}
        assert {"cpu", "kernel", "ipc", "verifier"} <= layers
        assert "verifier.validation_lag" in metrics["histograms"]
        assert metrics["counters"]["cpu.blocks_executed"] > 0
        assert metrics["counters"]["kernel.syscalls_intercepted"] > 0
        assert metrics["counters"]["ipc.batches"] > 0
        assert metrics["counters"]["verifier.polls"] > 0
        assert report["meta"]["outcome"] == "ok"

    def test_observation_does_not_change_the_run(self):
        plain = observed_run(observe=None)
        observed = observed_run(observe=True)
        assert observed.outcome == plain.outcome
        assert observed.exit_status == plain.exit_status
        assert observed.output == plain.output
        assert observed.steps == plain.steps
        assert observed.messages_sent == plain.messages_sent

    def test_same_seed_runs_report_identically(self):
        first = observed_run(seed=3).obs_report
        second = observed_run(seed=3).obs_report
        assert first == second

    def test_sent_totals_reconcile_with_receive_side(self):
        report = observed_run().obs_report
        metrics = report["metrics"]
        sent = metrics["gauges"]["ipc.sent_total"]
        received = metrics["counters"]["ipc.messages_received"]
        assert sent == received == \
            metrics["gauges"]["verifier.messages_processed"]

    def test_render_summary_names_every_layer(self):
        report = observed_run().obs_report
        text = render_summary(report)
        for layer in ("cpu", "kernel", "ipc", "verifier"):
            assert f"[{layer}]" in text

    def test_summary_cli_prints_every_layer(self, capsys):
        assert obs_main(["summary", "--profile", "403.gcc"]) == 0
        out = capsys.readouterr().out
        for layer in ("cpu", "kernel", "ipc", "verifier"):
            assert f"[{layer}]" in out
        assert "run: outcome=ok" in out


def observed_gcc(channel, capacity=None, fault_injector=None):
    """403.gcc (train) under HQ-CFI-SfeStk with an explicit observer, so
    the trace instants can be counted next to the report's counters."""
    observer = Observer()
    module = build_module(get_profile("403.gcc"), dataset="train")
    result = run_program(
        module, design="hq-sfestk", channel=channel,
        channel_kwargs=None if capacity is None else {"capacity": capacity},
        fault_injector=fault_injector, observe=observer)
    assert observer.tracer.dropped == 0
    return result, observer


def instants(observer, layer, name):
    return sum(1 for _, _, event_layer, event_name, phase, _
               in observer.tracer.events()
               if (event_layer, event_name, phase) == (layer, name, "i"))


class TestOverloadEvents:
    """The counters and trace instants of the overload and fail-closed
    paths, which no default-capacity run reaches."""

    def test_tiny_fpga_ring_drops_then_falls_back(self):
        result, observer = observed_gcc("fpga", capacity=2)
        assert (result.outcome, result.detail) == \
            ("killed", "policy violation")
        counters = result.obs_report["metrics"]["counters"]
        assert counters["ipc.full_events"] == 3 == \
            instants(observer, "ipc", "channel-full")
        assert counters["ipc.messages_dropped"] == 3 == \
            instants(observer, "ipc", "message-dropped")
        assert counters["ipc.counter_fallbacks"] == 11 == \
            instants(observer, "ipc", "counter-fallback")

    def test_small_amr_faults_into_the_kernel(self):
        """A 16-message AMR fills five times; the kernel's handler drains
        the verifier and rewinds the registers each time, so only the
        stall differs from a run with the default AMR."""
        default, _ = observed_gcc("uarch")
        result, observer = observed_gcc("uarch", capacity=16)
        assert (result.outcome, result.exit_status, result.messages_sent,
                result.max_entries) == \
            (default.outcome, default.exit_status, default.messages_sent,
             default.max_entries) == ("ok", 0, 88, 2)
        # Each fault is a 300 ns (1,500-cycle) stall.
        assert (default.cycles["wait"], result.cycles["wait"]) == \
            (1000, 8500)
        counters = result.obs_report["metrics"]["counters"]
        assert counters["ipc.amr_faults"] == 5 == \
            instants(observer, "ipc", "amr-fault")

    def test_tiny_model_buffer_fills(self):
        result, observer = observed_gcc("model", capacity=2)
        assert result.ok
        counters = result.obs_report["metrics"]["counters"]
        assert counters["ipc.full_events"] == 13 == \
            instants(observer, "ipc", "channel-full")

    def test_exhausted_send_retries_fail_closed(self):
        from repro.faults import FaultInjector, FaultKind, FaultPlan
        plan = FaultPlan(1, [FaultKind.FORCED_FULL_PERSISTENT], rate=1.0)
        result, observer = observed_gcc(
            "model", fault_injector=FaultInjector(plan))
        assert result.outcome == "killed"
        assert "fail closed" in result.detail
        counters = result.obs_report["metrics"]["counters"]
        assert counters["kernel.fail_closed"] == 1 == \
            instants(observer, "kernel", "fail-closed")


class TestDisabledPathIsInert:
    def test_observer_defaults_to_none_on_every_layer(self):
        # Class-level None is the whole disabled-path contract: one
        # attribute load and one predicate per emit site.
        assert Channel.observer is None
        assert Verifier.observer is None
        assert HQKernelModule.observer is None

    def test_interpreter_defaults_to_no_observer(self):
        from repro.sim.cpu import Interpreter
        import inspect
        signature = inspect.signature(Interpreter.__init__)
        assert signature.parameters["observer"].default is None

    def test_unobserved_modules_never_import_obs(self):
        import subprocess
        import sys
        # A fresh interpreter running an unobserved benchmark must not
        # pull in repro.obs at all.
        code = (
            "import sys\n"
            "from repro.core.framework import run_program\n"
            "from repro.workloads.generator import build_module\n"
            "from repro.workloads.profiles import get_profile\n"
            "m = build_module(get_profile('401.bzip2'), dataset='train')\n"
            "run_program(m, design='hq-sfestk', channel='model',\n"
            "            kill_on_violation=False, max_steps=10_000_000)\n"
            "assert not any(name.startswith('repro.obs')\n"
            "               for name in sys.modules), 'obs imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Report diffing
# ---------------------------------------------------------------------------

def _sample_report():
    return {
        "version": 1,
        "meta": {"design": "hq-sfestk", "outcome": "ok"},
        "metrics": {
            "counters": {"cpu.blocks_executed": 10, "verifier.polls": 4},
            "gauges": {"ipc.sent_total": 7},
            "histograms": {
                "kernel.barrier_wait_ns": {
                    "edges": [0.0, 400.0], "counts": [3, 1, 0],
                    "count": 4, "sum": 400.0, "min": 0.0, "max": 400.0},
                "ipc.batch_size": {
                    "edges": [1, 8], "counts": [2, 1, 0],
                    "count": 3, "sum": 9.0, "min": 1, "max": 7},
            },
        },
        "trace": {"events": 5, "dropped": 0, "capacity": 4096},
    }


class TestDiffReports:
    def test_identical_reports_match(self):
        assert diff_reports(_sample_report(), _sample_report()) == []

    def test_counter_drift_is_exact(self):
        new = _sample_report()
        new["metrics"]["counters"]["verifier.polls"] = 5
        problems = diff_reports(_sample_report(), new)
        assert any("verifier.polls" in p for p in problems)

    def test_missing_counter_is_flagged(self):
        new = _sample_report()
        del new["metrics"]["counters"]["cpu.blocks_executed"]
        problems = diff_reports(_sample_report(), new)
        assert any("missing" in p for p in problems)

    def test_timing_histogram_tolerates_small_drift(self):
        new = _sample_report()
        hist = new["metrics"]["histograms"]["kernel.barrier_wait_ns"]
        hist["sum"] = 430.0          # within 10%
        hist["max"] = 430.0
        hist["counts"] = [4, 0, 0]   # one-bucket drift, ceil(0.1*4)=1
        assert diff_reports(_sample_report(), new, tolerance=0.1) == []

    def test_timing_histogram_rejects_large_drift(self):
        new = _sample_report()
        hist = new["metrics"]["histograms"]["kernel.barrier_wait_ns"]
        hist["sum"] = 900.0
        problems = diff_reports(_sample_report(), new, tolerance=0.1)
        assert any("barrier_wait_ns" in p and "sum" in p for p in problems)

    def test_timing_histogram_count_is_exact(self):
        new = _sample_report()
        hist = new["metrics"]["histograms"]["kernel.barrier_wait_ns"]
        hist["count"] = 5
        problems = diff_reports(_sample_report(), new, tolerance=0.5)
        assert any("count" in p for p in problems)

    def test_non_timing_histogram_is_exact(self):
        new = _sample_report()
        new["metrics"]["histograms"]["ipc.batch_size"]["counts"] = [3, 0, 0]
        problems = diff_reports(_sample_report(), new, tolerance=0.5)
        assert any("ipc.batch_size" in p for p in problems)

    def test_meta_reference_keys_pin_but_extras_allowed(self):
        new = _sample_report()
        new["meta"]["channel"] = "model"     # extra key: fine
        assert diff_reports(_sample_report(), new) == []
        new["meta"]["design"] = "hq-retptr"  # changed pinned key: not fine
        problems = diff_reports(_sample_report(), new)
        assert any("meta design" in p for p in problems)

    def test_diff_cli_exit_codes(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        same = tmp_path / "same.json"
        drifted = tmp_path / "drifted.json"
        ref.write_text(json.dumps(_sample_report()))
        same.write_text(json.dumps(_sample_report()))
        bad = _sample_report()
        bad["metrics"]["counters"]["verifier.polls"] = 99
        drifted.write_text(json.dumps(bad))

        assert obs_main(["diff", str(ref), str(same)]) == 0
        assert obs_main(["diff", str(ref), str(drifted)]) == 1
        out = capsys.readouterr().out
        assert "verifier.polls" in out


# ---------------------------------------------------------------------------
# Observer unit behaviour
# ---------------------------------------------------------------------------

class TestObserver:
    def test_report_is_deterministically_ordered(self):
        observer = Observer()
        observer.meta["z"] = 1
        observer.meta["a"] = 2
        observer.violation(1, "pointer")
        report = observer.report()
        assert list(report["meta"]) == ["a", "z"]
        assert report["version"] == 1
        json.dumps(report)   # JSON-serializable end to end

    def test_kernel_barrier_splits_waited_and_instant_cases(self):
        observer = Observer()
        observer.kernel_barrier(1, 0, 0.0)        # no wait: histogram only
        assert observer.kernel_barrier_waits.value == 0
        assert len(observer.tracer) == 0
        observer.kernel_barrier(1, 2, 800.0)      # waited: counter + span
        assert observer.kernel_barrier_waits.value == 1
        assert observer.kernel_barrier_wait_ns.count == 2
        event = observer.tracer.events()[-1]
        assert event[4] == "X" and event[1] == pytest.approx(800.0)

    def test_epoch_timeout_kills_count_twice(self):
        observer = Observer()
        observer.kernel_kill(1, "policy violation")
        observer.kernel_kill(2, "synchronization epoch timeout")
        assert observer.kernel_kills.value == 2
        assert observer.kernel_epoch_timeouts.value == 1

    def test_backlog_peak_tracks_maximum(self):
        observer = Observer()
        for size in (2, 9, 4):
            observer.note_backlog(size)
        observer.finalize_run(verifier=_FakeVerifier(), outcome="ok")
        gauges = observer.report()["metrics"]["gauges"]
        assert gauges["verifier.backlog_peak"] == 9


class _FakeVerifier:
    def backlog_size(self):
        return 4

    def total_messages(self):
        return 123

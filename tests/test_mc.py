"""Concurrency soundness tests: model checker, race detector, mutants.

Three layers, mirroring ``python -m repro.mc``:

* the exhaustive explorer on the abstract SPSC and shard-lifecycle
  models (clean models verify; POR and full exploration agree);
* the seeded mutation gate (every mutant caught — a checker that
  cannot fail its mutants proves nothing);
* the happens-before race detector on *real* shared-memory ring
  executions, in-process and across a real worker process (clean runs
  silent, the seeded racy ring flagged).
"""

import json
import time
from array import array

import pytest

from repro.core.framework import run_program
from repro.core.messages import MESSAGE_WORDS
from repro.core.shard_verifier import ShardWorker
from repro.ipc.spsc_ring import HDR_HEAD, HDR_STOP, HDR_TAIL, SpscRing
from repro.mc.__main__ import main as mc_main
from repro.mc.explorer import Step, explore, independent
from repro.mc.model import (REORDER_PUBLISH, SKIP_FRAME_CHECK,
                            STALE_FREE_WINDOW, SpscModel)
from repro.mc.mutants import (MUTANTS, run_mutation_gate,
                              scripted_ring_trace)
from repro.mc.race import (RaceDetector, RingProbe, TraceMergeError,
                           check_ring_events)
from repro.mc.shard_model import (EPOCH_MAX, MIS_SCOPED_KILL,
                                  ShardLifecycleModel, conformance_check)
from repro.workloads import webserver

QUICK = dict(capacity_words=4, frame_words=2, frames=3, crash_budget=1)


# ---------------------------------------------------------------------------
# Explorer
# ---------------------------------------------------------------------------

class TestExplorer:
    def test_clean_spsc_model_verifies_exhaustively(self):
        result = explore(SpscModel(**QUICK), por=False)
        assert result.ok
        assert result.states > 100
        assert result.terminals > 0
        assert not result.truncated

    def test_por_agrees_with_full_exploration(self):
        """Sleep-set POR is an optimization, not a semantics change:
        same verdict, never more transitions."""
        full = explore(SpscModel(**QUICK), por=False)
        por = explore(SpscModel(**QUICK), por=True)
        assert por.ok == full.ok
        assert por.terminals > 0
        assert por.transitions <= full.transitions

    def test_crash_budget_expands_the_state_space(self):
        """Crash transitions are really explored: allowing one crash
        reaches strictly more states than allowing none."""
        no_crash = explore(SpscModel(**dict(QUICK, crash_budget=0)))
        one_crash = explore(SpscModel(**QUICK))
        assert no_crash.ok and one_crash.ok
        assert one_crash.states > no_crash.states

    def test_independence_is_footprint_based(self):
        fn = lambda s: (s, None)  # noqa: E731
        a = Step("a", "p", frozenset(), frozenset({1}), fn)
        b = Step("b", "c", frozenset({1}), frozenset(), fn)
        c = Step("c", "c", frozenset({2}), frozenset(), fn)
        assert not independent(a, b)   # a writes what b reads
        assert independent(a, c)       # disjoint footprints
        assert not independent(b, c)   # same actor never commutes

    def test_rejects_unknown_mutation(self):
        with pytest.raises(ValueError):
            SpscModel(mutation="no-such-mutant")
        with pytest.raises(ValueError):
            ShardLifecycleModel(mutation="no-such-mutant")


# ---------------------------------------------------------------------------
# Mutation gate
# ---------------------------------------------------------------------------

class TestMutationGate:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_every_mutant_is_caught(self, name):
        engine, runner = MUTANTS[name]
        summary = runner(True)
        findings = summary.get("violations", summary.get("races", []))
        assert findings, f"mutant {name} escaped its {engine} analysis"

    @pytest.mark.parametrize("mutation", [REORDER_PUBLISH,
                                          STALE_FREE_WINDOW,
                                          SKIP_FRAME_CHECK])
    @pytest.mark.parametrize("por", [False, True])
    def test_ring_mutants_caught_in_both_exploration_modes(
            self, mutation, por):
        result = explore(SpscModel(mutation=mutation, **QUICK), por=por)
        assert result.violations

    @pytest.mark.parametrize("mutation", [MIS_SCOPED_KILL, EPOCH_MAX])
    @pytest.mark.parametrize("por", [False, True])
    def test_shard_mutants_caught_in_both_exploration_modes(
            self, mutation, por):
        model = ShardLifecycleModel(num_shards=2, pids_per_shard=2,
                                    ack_steps=2, death_budget=1,
                                    mutation=mutation)
        assert explore(model, por=por).violations

    def test_gate_summary_is_green(self):
        gate = run_mutation_gate(quick=True)
        assert gate["ok"]
        assert gate["missed"] == []
        assert len(gate["mutants"]) == len(MUTANTS)


# ---------------------------------------------------------------------------
# Shard lifecycle model + implementation conformance
# ---------------------------------------------------------------------------

class TestShardLifecycle:
    def test_clean_lifecycle_verifies(self):
        result = explore(ShardLifecycleModel(num_shards=3,
                                             pids_per_shard=2,
                                             ack_steps=2))
        assert result.ok
        assert result.terminals > 0

    def test_real_sharded_verifier_conforms_to_the_model(self):
        report = conformance_check()
        assert report["cases"] > 0
        assert report["mismatches"] == []


# ---------------------------------------------------------------------------
# Race detector
# ---------------------------------------------------------------------------

def _frame():
    return array("Q", range(1, MESSAGE_WORDS + 1))


class TestRaceDetector:
    def test_publish_without_release_is_flagged(self):
        """A payload write the consumer reads with no sync path between
        them is exactly what "torn message" means; the seeded trace
        must flag it."""
        races = check_ring_events([
            ("dw", "producer", 0, 4),
            ("dr", "consumer", 0, 4),         # no release/acquire pair
        ])
        assert races and "write-read" in races[0]

    def test_release_acquire_orders_the_same_accesses(self):
        races = check_ring_events([
            ("dw", "producer", 0, 4),
            ("ss", "producer", HDR_TAIL, 4),  # release
            ("sl", "consumer", HDR_TAIL, 4),  # acquire
            ("dr", "consumer", 0, 4),
        ])
        assert races == []

    def test_unordered_overwrite_is_flagged(self):
        """Producer reuses a slot without having acquired the
        consumer's head release — a read-write race."""
        races = check_ring_events([
            ("dw", "producer", 0, 4),
            ("ss", "producer", HDR_TAIL, 4),
            ("sl", "consumer", HDR_TAIL, 4),
            ("dr", "consumer", 0, 4),
            ("ss", "consumer", HDR_HEAD, 4),  # release never acquired
            ("dw", "producer", 0, 4),
        ])
        assert races and "read-write" in races[0]

    def test_log_merge_recovers_cross_process_order(self):
        """Two per-process logs with no global order: the value-matched
        merge must schedule the consumer's acquire after the producer's
        release and prove the data accesses ordered."""
        detector = RaceDetector().feed_logs({
            "consumer": [("sl", "consumer", HDR_TAIL, 4),
                         ("dr", "consumer", 0, 4)],
            "producer": [("dw", "producer", 0, 4),
                         ("ss", "producer", HDR_TAIL, 4)],
        })
        assert detector.clean
        assert detector.events_processed == 4

    def test_unmergeable_logs_raise(self):
        with pytest.raises(TraceMergeError):
            RaceDetector().feed_logs({
                "consumer": [("sl", "consumer", HDR_TAIL, 999)],
            })

    def test_clean_scripted_ring_is_silent(self):
        logs = scripted_ring_trace(racy=False, messages=12)
        detector = RaceDetector().feed_logs(logs)
        assert detector.clean
        assert detector.events_processed > 20

    def test_racy_publish_ring_is_flagged(self):
        logs = scripted_ring_trace(racy=True, messages=12)
        detector = RaceDetector().feed_logs(logs)
        assert not detector.clean
        assert any(race.kind in ("write-read", "read-write")
                   for race in detector.races)

    def test_probe_attach_after_traffic_is_not_a_false_positive(self):
        """Regression: an endpoint that attaches its probe after the
        ring already has traffic must not be charged for the
        constructor's unprobed index snapshot (its first consume must
        re-acquire through the probe)."""
        producer = SpscRing.create(capacity_words=16)
        p_probe = RingProbe()
        producer.attach_probe(p_probe)
        assert producer.publish_words(_frame()) == MESSAGE_WORDS
        consumer = SpscRing.attach(producer.name, 16)   # sees tail != 0
        c_probe = RingProbe()
        consumer.attach_probe(c_probe)
        try:
            assert len(consumer.consume_words()) == MESSAGE_WORDS
            detector = RaceDetector().feed_logs(
                {"producer": list(p_probe.events),
                 "consumer": list(c_probe.events)})
            assert detector.clean
        finally:
            consumer.close()
            producer.close()

    def test_stop_flag_events_round_trip(self):
        ring = SpscRing.create(capacity_words=8)
        probe = RingProbe()
        ring.attach_probe(probe)
        try:
            ring.request_stop()
            assert ring.stop_requested()
            assert ("ss", "producer", HDR_STOP, 1) in probe.events
            assert ("sl", "consumer", HDR_STOP, 1) in probe.events
        finally:
            ring.close()


# ---------------------------------------------------------------------------
# Real worker processes + framework / chaos wiring
# ---------------------------------------------------------------------------

class TestRuntimeIntegration:
    def test_worker_process_run_is_race_free(self):
        """Parent publishes, a real OS worker drains; merged probe logs
        must prove the execution ordered."""
        from repro.bench.msgpath import _cfi_stream
        from repro.bench.sharding import pack_stream
        worker = ShardWorker(0, "hq-cfi", capacity_words=1 << 8,
                             race=True)
        try:
            worker.register(42)
            words = pack_stream(42, _cfi_stream(100))
            view = memoryview(words)
            start = 0
            while start < len(view):
                published = worker.publish(view[start:start + 64])
                if not published:
                    time.sleep(0.0002)
                start += published
            report = worker.stop()
            assert report is not None
            assert report["drained"] >= 100
            assert report["race_events"]
            assert worker.check_races(report) == []
        finally:
            worker.close()

    def test_killed_worker_releases_its_ring(self):
        """SIGKILL mid-drain: close() must still unlink the ring."""
        from repro.bench.msgpath import _cfi_stream
        from repro.bench.sharding import pack_stream
        from repro.ipc.shared_memory import owned_segment_names
        before = set(owned_segment_names())
        worker = ShardWorker(0, "hq-cfi", capacity_words=1 << 8)
        try:
            assert worker.ring.name in owned_segment_names()
            worker.register(42)
            words = pack_stream(42, _cfi_stream(100))
            assert worker.publish(words) > 0
            worker.kill()
            assert not worker.process.is_alive()
        finally:
            worker.close()
        assert set(owned_segment_names()) == before

    def test_worker_reports_idle_polls_and_observer_counter(self):
        from repro.obs.observer import Observer
        observer = Observer()
        worker = ShardWorker(1, "call-counter", capacity_words=1 << 6)
        worker.observer = observer
        try:
            time.sleep(0.05)   # idle worker: spin then backed-off sleeps
            report = worker.stop()
            assert report is not None
            assert report["idle_polls"] > 0
            counter = observer.registry.counter("shard.1.idle_polls")
            assert counter.value == report["idle_polls"]
        finally:
            worker.close()

    def test_run_program_race_check_inline_sharded(self):
        trace = webserver.benign_trace(4)
        result = run_program(
            webserver.build_server(max_requests=len(trace)),
            design="hq-sfestk", channel="model",
            pre_run=lambda image, interp: webserver.plant_trace(image,
                                                                trace),
            shards=3, race_check=True)
        assert result.ok
        assert result.races == []

    def test_run_program_race_check_defaults_off(self):
        trace = webserver.benign_trace(2)
        result = run_program(
            webserver.build_server(max_requests=len(trace)),
            design="hq-sfestk", channel="model",
            pre_run=lambda image, interp: webserver.plant_trace(image,
                                                                trace),
            shards=2)
        assert result.ok
        assert result.races is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_quick_gate_passes_and_writes_report(self, tmp_path):
        path = tmp_path / "mc_report.json"
        assert mc_main(["--quick", "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["ok"] is True
        assert report["quick"] is True
        assert report["spsc-ring"]["full"]["violations"] == []
        assert report["spsc-ring"]["full"]["states"] > 100
        assert report["shard-lifecycle"]["agree"] is True
        assert report["conformance"]["mismatches"] == []
        assert report["race-clean"]["races"] == []
        assert report["mutation-gate"]["missed"] == []

    def test_mutate_only_mode(self):
        assert mc_main(["--mutate", "--quick"]) == 0

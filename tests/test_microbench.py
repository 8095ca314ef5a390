"""The timing CLIs under ``repro.bench``: the message-path
microbenchmark and the pipeline timer behind ``python -m repro.bench
--timing-report``.

The load-bearing properties:

* every Table 2 primitive and every policy stream travels the word path
  (``send_raw`` / ``receive_words``), and each policy stream replays
  without a violation;
* no CLI writes a file unless it is given a path, so a run with default
  flags leaves the working directory as it found it;
* the retired regression-guard options are gone, so a stale invocation
  fails loudly instead of silently skipping its check.

The heavy steps (suites, experiments) are stubbed
wherever the property under test is the CLI's, not the measurement's.
"""

import json
import types

import pytest

from repro.bench import __main__ as pipeline
from repro.bench import msgpath, sharding, timing
from repro.bench.timing import SEED_SERIAL_SECONDS, PipelineTimer, best_of
from repro.core.messages import MESSAGE_WORDS, Op
from repro.ipc.registry import create_channel
from repro.obs import __main__ as obs_cli
from repro.traffic import __main__ as traffic_cli

#: Enough messages for two drains, the second one partial.
MESSAGES = msgpath.DRAIN_EVERY + 100


# ---------------------------------------------------------------------------
# Message-path benchmarks
# ---------------------------------------------------------------------------

class TestChannelBench:
    @pytest.mark.parametrize("primitive", msgpath.CHANNEL_PRIMITIVES)
    def test_every_send_is_drained_as_words(self, primitive, monkeypatch):
        channels, drained = [], []

        def create(name, **kwargs):
            channel = create_channel(name, **kwargs)
            receive = channel.receive_words
            channel.receive_words = lambda: drained.append(
                len(receive())) or drained[-1]
            channels.append(channel)
            return channel

        monkeypatch.setattr(msgpath, "create_channel", create)
        result = msgpath.bench_channel(primitive, MESSAGES)
        assert set(result) == {"messages", "elapsed_s", "msgs_per_sec"}
        assert result["messages"] == MESSAGES
        assert drained == [msgpath.DRAIN_EVERY * MESSAGE_WORDS,
                           100 * MESSAGE_WORDS]
        assert channels[0].pending() == 0


class TestPolicyBench:
    @pytest.mark.parametrize("name", sorted(msgpath._policy_factories()))
    def test_stream_replays_without_a_violation(self, name):
        factory, stream_fn = msgpath._policy_factories()[name]
        stream = stream_fn(MESSAGES)
        result = msgpath.bench_policy(name, factory, stream, MESSAGES)
        assert "path" not in result
        assert result["messages"] == len(stream)
        assert result["processed"] == len(stream)
        assert result["violations"] == 0

    def test_streams_carry_a_syscall_marker_every_64_events(self):
        stream = msgpath._call_counter_stream(200)
        syscalls = [index for index, event in enumerate(stream)
                    if event[0] == int(Op.SYSCALL)]
        assert len(stream) == 200 + 3
        assert syscalls == [64, 129, 194]


def _canned_suite(calls):
    def run_suite(messages, quick, rounds=msgpath.ROUNDS):
        calls.append((messages, quick, rounds))
        return {
            "channel:uarch": {"messages": 10, "elapsed_s": 1e-5,
                              "msgs_per_sec": 1e6, "rounds": rounds},
            msgpath.HOT_PATH: {"messages": 10, "elapsed_s": 2e-5,
                               "msgs_per_sec": 5e5, "processed": 10,
                               "violations": 0, "rounds": rounds},
            "e2e:hq-sfestk:uarch": {"messages": 10, "elapsed_s": 1e-4,
                                    "msgs_per_sec": 1e5,
                                    "steps_per_sec": 4e5,
                                    "outcome": "exited", "steps": 40},
        }
    return run_suite


class TestMsgpathCli:
    @pytest.fixture
    def calls(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(msgpath, "run_suite", _canned_suite(calls))
        monkeypatch.chdir(tmp_path)
        return calls

    def test_default_flags_write_no_file(self, calls, tmp_path):
        assert msgpath.main([]) == 0
        assert list(tmp_path.iterdir()) == []
        assert calls == [(msgpath.FULL_MESSAGES, False, msgpath.ROUNDS)]

    def test_out_writes_the_report(self, calls, tmp_path):
        assert msgpath.main(["--quick", "--out", "report.json"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"harness", "quick", "messages", "hot_path",
                               "benchmarks"}
        assert report["quick"] is True
        assert report["messages"] == msgpath.QUICK_MESSAGES
        assert report["hot_path"] == msgpath.HOT_PATH

    def test_json_prints_the_report(self, calls, capsys):
        assert msgpath.main(["--json", "--messages", "500",
                             "--rounds", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert calls == [(500, False, 1)]
        assert report["benchmarks"][msgpath.HOT_PATH]["rounds"] == 1

    def test_human_table_marks_the_hot_path(self, calls, capsys):
        assert msgpath.main(["--quick"]) == 0
        lines = capsys.readouterr().out.splitlines()
        (hot,) = [line for line in lines if msgpath.HOT_PATH in line]
        (e2e,) = [line for line in lines if "e2e:" in line]
        assert hot.endswith("<- hot path")
        assert "(400,000 steps/s)" in e2e
        assert not any("baseline" in line for line in lines)


# ---------------------------------------------------------------------------
# Retired options
# ---------------------------------------------------------------------------

#: (CLI, retired option, an invocation that uses it).
RETIRED = [
    ("msgpath", "--check", ["--check", "old.json"]),
    ("msgpath", "--tolerance", ["--tolerance", "0.3"]),
    ("msgpath", "--baseline", ["--baseline", "old.json"]),
    ("msgpath", "--update-quick", ["--quick", "--update-quick", "o.json"]),
    ("msgpath", "--perf-profile", ["--perf-profile", "p.json"]),
    ("sharding", "--check", ["--check", "old.json"]),
    ("sharding", "--tolerance", ["--tolerance", "0.3"]),
    ("sharding", "--baseline", ["--baseline", "old.json"]),
    ("sharding", "--update-quick", ["--quick", "--update-quick", "o.json"]),
    ("sharding", "--perf-profile", ["--perf-profile", "p.json"]),
    ("bench", "--perf-profile", ["--perf-profile", "p.json"]),
    ("obs", "--perf-profile", ["export", "--perf-profile", "p.json"]),
    ("traffic", "--perf-profile", ["--perf-profile", "p.json"]),
]

CLIS = {"msgpath": msgpath.main, "sharding": sharding.main,
        "bench": pipeline.main, "obs": obs_cli.main,
        "traffic": traffic_cli.main}


@pytest.mark.parametrize("cli, option, argv", RETIRED,
                         ids=[cli + option for cli, option, _ in RETIRED])
def test_retired_option_is_a_usage_error(cli, option, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        CLIS[cli](argv)
    assert exit_info.value.code == 2
    assert option in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Pipeline timer and ``python -m repro.bench``
# ---------------------------------------------------------------------------

class TestPipelineTimer:
    @pytest.fixture
    def clock(self, monkeypatch):
        """A fake ``perf_counter`` that advances 1.5 s per reading
        pair: each phase lasts exactly 1.5 s."""
        ticks = iter(range(0, 100))
        monkeypatch.setattr(timing, "time", types.SimpleNamespace(
            perf_counter=lambda: 1.5 * next(ticks)))

    def test_phases_accumulate_per_name(self, clock):
        timer = PipelineTimer()
        for name in ("table2", "figure3", "table2"):
            with timer.phase(name):
                pass
        assert timer.phases == {"table2": 3.0, "figure3": 1.5}
        assert timer.total == 4.5

    def test_phase_is_timed_when_its_body_raises(self, clock):
        timer = PipelineTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("broken"):
                raise RuntimeError("experiment failed")
        assert timer.phases == {"broken": 1.5}

    def test_report_shape(self, clock):
        timer = PipelineTimer()
        with timer.phase("table2"):
            pass
        report = timer.report(jobs=2, cache_stats={"hits": 3})
        assert report == {
            "pipeline": "python -m repro.bench", "jobs": 2,
            "phases_seconds": {"table2": 1.5}, "total_seconds": 1.5,
            "seed_serial_seconds": SEED_SERIAL_SECONDS,
            "speedup_vs_seed": round(SEED_SERIAL_SECONDS / 1.5, 2),
            "cache": {"hits": 3}}

    def test_empty_timer_reports_no_speedup(self):
        report = PipelineTimer().report(jobs=1)
        assert report["speedup_vs_seed"] is None
        assert report["cache"] == {}

    def test_write_replaces_the_whole_file(self, clock, tmp_path):
        """No section of an earlier file is carried through."""
        path = tmp_path / "timing.json"
        path.write_text(json.dumps({"interp_tier": {"speedup": 9.0},
                                    "phases_seconds": {"old": 1.0}}))
        timer = PipelineTimer()
        with timer.phase("table2"):
            pass
        payload = timer.write(str(path), jobs=1)
        assert json.loads(path.read_text()) == payload
        assert "interp_tier" not in payload


class TestBestOf:
    def test_keeps_the_highest_round(self):
        values = iter([3.0, 7.0, 5.0])
        best = best_of(3, lambda: {"msgs_per_sec": next(values)})
        assert best == {"msgs_per_sec": 7.0, "rounds": 3}

    def test_at_least_one_round_runs(self):
        calls = []
        best = best_of(0, lambda: calls.append(1) or {"msgs_per_sec": 1.0})
        assert calls == [1]
        assert best["rounds"] == 1


class TestPipelineCli:
    @pytest.fixture
    def ran(self, monkeypatch, tmp_path):
        ran = []
        monkeypatch.setitem(pipeline.EXPERIMENTS, "stub",
                            lambda jobs: ran.append(jobs))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.chdir(tmp_path)
        return ran

    def test_default_flags_write_no_timing_report(self, ran, tmp_path):
        assert pipeline.main(["stub", "--no-cache"]) == 0
        assert ran == [1]
        assert list(tmp_path.iterdir()) == []

    def test_timing_report_path_is_written(self, ran, tmp_path):
        assert pipeline.main(["stub", "--no-cache", "--timing-report",
                              "timing.json"]) == 0
        payload = json.loads((tmp_path / "timing.json").read_text())
        assert list(payload["phases_seconds"]) == ["stub"]
        assert payload["cache"] == {}

    def test_unknown_experiment_runs_nothing(self, ran, capsys):
        assert pipeline.main(["stub", "no-such-table"]) == 1
        assert ran == []
        assert "no-such-table" in capsys.readouterr().out

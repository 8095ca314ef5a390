"""Tests for the profile schema (repro.perf.profile) that ``python -m
benchmark`` writes and compares through.

The load-bearing properties:

* the profile schema round-trips and rejects untagged or unknown
  schemas instead of silently misreading them;
* the environment fingerprint names the checkout's commit, or
  ``worktree`` where there is none;
* ``profile.write`` is a merge: each source owns exactly the metric
  names it registered last time, so re-runs replace stale numbers and
  never clobber other sources, and its meta lands in the source record.
"""

import json
import subprocess

import pytest

from repro.perf import profile
from repro.perf.profile import HIGHER, LOWER, Metric, ProfileSchemaError


class TestProfileSchema:
    def test_metric_round_trip(self):
        metric = Metric(value=123.5, unit="msgs/s", rounds=3,
                        direction=LOWER)
        assert Metric.from_json(metric.to_json()) == metric

    def test_metric_defaults(self):
        metric = Metric.from_json({"value": 7})
        assert metric.unit == ""
        assert metric.rounds == 1
        assert metric.direction == HIGHER

    def test_metric_bad_direction_rejected(self):
        with pytest.raises(ProfileSchemaError):
            Metric.from_json({"value": 1.0, "direction": "sideways"})

    def test_profile_round_trip(self, tmp_path):
        metrics = {"a.x": Metric(1.0, "s", 2, LOWER),
                   "b.y": Metric(2.0, "msgs/s", 3, HIGHER)}
        prof = profile.new_profile(metrics)
        path = tmp_path / "p.json"
        profile.dump(prof, str(path))
        loaded = profile.load(str(path))
        assert loaded["schema"] == profile.SCHEMA
        assert profile.metrics_of(loaded) == metrics

    def test_unknown_schema_rejected(self):
        with pytest.raises(ProfileSchemaError):
            profile.validate({"schema": "repro.perf/999", "metrics": {}})

    @pytest.mark.parametrize("payload", [
        {"benchmarks": {}}, {"metrics": {"a.x": 1.0}}])
    def test_non_profile_rejected(self, payload):
        """Untagged payloads, including the bare pre-versioning shape,
        are not read."""
        with pytest.raises(ProfileSchemaError):
            profile.validate(payload)

    def test_malformed_metric_rejected(self):
        with pytest.raises(ProfileSchemaError):
            profile.validate({"schema": profile.SCHEMA, "metrics": {
                "a.x": {"value": 1.0, "direction": "sideways"}}})

    def test_validate_fills_missing_sections(self):
        loaded = profile.validate({"schema": profile.SCHEMA,
                                   "metrics": {"a.x": {"value": 2}}})
        assert loaded["environment"] == {}
        assert loaded["sources"] == {}
        assert loaded["metrics"]["a.x"] == Metric(2.0).to_json()

    def test_dump_is_sorted_with_a_trailing_newline(self, tmp_path):
        path = tmp_path / "p.json"
        profile.dump({"schema": profile.SCHEMA, "b": 1, "a": 2}, str(path))
        text = path.read_text()
        assert text.endswith("}\n")
        assert list(json.loads(text)) == ["a", "b", "schema"]


class TestEnvironment:
    def test_fingerprint_keys(self, monkeypatch):
        monkeypatch.setattr(profile, "detect_commit", lambda: "abc123")
        env = profile.environment()
        assert env["commit"] == "abc123"
        for key in ("python", "implementation", "hostname_class",
                    "recorded_at"):
            assert env[key]

    def test_commit_outside_a_checkout_is_worktree(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert profile.detect_commit() == "worktree"

    def test_commit_without_git_is_worktree(self, monkeypatch):
        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(subprocess, "run", no_git)
        assert profile.detect_commit() == "worktree"


class TestProfileWrite:
    def test_two_sources_merge(self, tmp_path):
        path = str(tmp_path / "pp.json")
        profile.write(path, "alpha", {"alpha.x": Metric(1.0)})
        profile.write(path, "beta", {"beta.y": Metric(2.0)})
        loaded = profile.load(path)
        assert set(loaded["metrics"]) == {"alpha.x", "beta.y"}
        assert set(loaded["sources"]) == {"alpha", "beta"}

    def test_rerun_replaces_own_metrics_only(self, tmp_path):
        """A source's re-run drops metrics it no longer reports but
        leaves every other source untouched."""
        path = str(tmp_path / "pp.json")
        profile.write(path, "alpha", {"alpha.x": Metric(1.0),
                                      "alpha.stale": Metric(9.0)})
        profile.write(path, "beta", {"beta.y": Metric(2.0)})
        profile.write(path, "alpha", {"alpha.x": Metric(3.0)})
        loaded = profile.load(path)
        assert set(loaded["metrics"]) == {"alpha.x", "beta.y"}
        assert profile.metrics_of(loaded)["alpha.x"].value == 3.0

    def test_write_records_meta(self, tmp_path):
        path = str(tmp_path / "pp.json")
        profile.write(path, "alpha", {"alpha.x": Metric(1.0)},
                      meta={"messages": 5000})
        source = profile.load(path)["sources"]["alpha"]
        assert source["messages"] == 5000
        assert source["metrics"] == ["alpha.x"]

    def test_later_writes_keep_the_first_environment(self, tmp_path,
                                                     monkeypatch):
        """The fingerprint is stamped when the file is created, so a
        profile written from two checkouts names the first one."""
        path = str(tmp_path / "pp.json")
        monkeypatch.setattr(profile, "detect_commit", lambda: "first")
        profile.write(path, "alpha", {"alpha.x": Metric(1.0)})
        monkeypatch.setattr(profile, "detect_commit", lambda: "second")
        profile.write(path, "beta", {"beta.y": Metric(2.0)})
        assert profile.load(path)["environment"]["commit"] == "first"

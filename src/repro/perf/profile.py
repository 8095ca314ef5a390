"""Versioned performance-profile schema and its write API.

``python -m benchmark`` writes its results through :func:`write`, which
merges one *source section* of metrics into a profile file, and
``python -m benchmark compare`` reads two profiles back through
:func:`load`.

Schema (``repro.perf/1``)::

    {
      "schema": "repro.perf/1",
      "environment": {
        "python": "3.12.3",
        "implementation": "cpython",
        "hostname_class": "linux-x86_64",
        "commit": "<sha or 'worktree'>",
        "recorded_at": "2026-08-08T12:00:00Z"
      },
      "metrics": {
        "traffic-inline.wall_s": {
          "value": 2.41,
          "unit": "s",
          "rounds": 10,           # samples behind the number
          "direction": "lower"    # which way is better
        },
        ...
      },
      "sources": {"benchmark": {...free-form provenance...}}
    }
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

#: Current schema tag.  Bump the integer on incompatible changes.
SCHEMA = "repro.perf/1"

#: Metric direction markers.
HIGHER = "higher"
LOWER = "lower"


class ProfileSchemaError(ValueError):
    """The payload is not a profile this code knows how to read."""


@dataclass(frozen=True)
class Metric:
    """One measured quantity inside a profile."""

    value: float
    unit: str = ""
    rounds: int = 1
    direction: str = HIGHER

    def to_json(self) -> Dict[str, object]:
        return {"value": self.value, "unit": self.unit,
                "rounds": self.rounds, "direction": self.direction}

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "Metric":
        direction = str(payload.get("direction", HIGHER))
        if direction not in (HIGHER, LOWER):
            raise ProfileSchemaError(f"bad metric direction {direction!r}")
        return cls(value=float(payload["value"]),
                   unit=str(payload.get("unit", "")),
                   rounds=int(payload.get("rounds", 1)),
                   direction=direction)


def detect_commit() -> str:
    """Best-effort HEAD sha of the working directory's checkout;
    ``'worktree'`` outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "worktree"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "worktree"


def environment() -> Dict[str, object]:
    """The environment fingerprint stamped into every profile."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation().lower(),
        "hostname_class": (f"{platform.system()}-{platform.machine()}"
                           .lower()),
        "commit": detect_commit(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def new_profile(metrics: Optional[Mapping[str, Metric]] = None
                ) -> Dict[str, object]:
    """A fresh, schema-stamped profile payload."""
    return {
        "schema": SCHEMA,
        "environment": environment(),
        "metrics": {name: metric.to_json()
                    for name, metric in (metrics or {}).items()},
        "sources": {},
    }


def validate(payload: Mapping[str, object]) -> Dict[str, object]:
    """Return ``payload`` as a v1 profile.

    Raises :class:`ProfileSchemaError` for untagged or unknown schemas
    and for malformed metric entries.
    """
    schema = payload.get("schema")
    if schema is None:
        raise ProfileSchemaError("payload has no 'schema' tag")
    if schema != SCHEMA:
        raise ProfileSchemaError(f"unsupported profile schema {schema!r} "
                                 f"(this tree reads {SCHEMA!r})")
    profile = dict(payload)
    profile["metrics"] = {
        name: Metric.from_json(entry).to_json()
        for name, entry in payload.get("metrics", {}).items()}
    profile.setdefault("environment", {})
    profile.setdefault("sources", {})
    return profile


def load(path: str) -> Dict[str, object]:
    """Load and validate the profile at ``path``."""
    with open(path, encoding="utf-8") as handle:
        return validate(json.load(handle))


def metrics_of(profile: Mapping[str, object]) -> Dict[str, Metric]:
    """The profile's metrics as :class:`Metric` objects."""
    return {name: Metric.from_json(entry)
            for name, entry in profile.get("metrics", {}).items()}


def dump(profile: Mapping[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(profile, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write(path: str, source: str, metrics: Mapping[str, Metric], *,
          meta: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
    """Merge one source's metrics into the profile at ``path``.

    The profile is created (with a fresh environment fingerprint) if
    absent, and the source's previous metrics — the exact names it
    registered last time, tracked under ``sources[source]["metrics"]``
    — are replaced wholesale so stale numbers cannot linger across
    re-runs.
    """
    profile = load(path) if os.path.exists(path) else new_profile()
    sources = dict(profile.get("sources", {}))
    previous = set(sources.get(source, {}).get("metrics", []))
    kept = {name: entry for name, entry in profile["metrics"].items()
            if name not in previous}
    for name, metric in metrics.items():
        kept[name] = metric.to_json()
    profile["metrics"] = kept
    record = dict(meta or {})
    record["metrics"] = sorted(metrics)
    sources[source] = record
    profile["sources"] = sources
    dump(profile, path)
    return profile

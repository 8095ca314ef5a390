"""Run-result cache for the experiment pipeline.

Every table and figure of section 5 re-executes the same runs: the
uninstrumented baseline for a benchmark is needed by
``relative_performance`` (once per design × channel), by
``classify_correctness``, and by the section-5.4 metrics — yet the
simulation is fully deterministic, so each unique
(profile, dataset, compiler, design, channel, knobs) combination has
exactly one possible :class:`~repro.core.framework.RunResult`.

This module provides a **content-addressed cache** over
:func:`~repro.core.framework.run_program`:

* keys are SHA-256 digests of a canonical JSON encoding of everything
  that determines the run — the full profile field set (not just the
  name, so synthetic sweep profiles key correctly), dataset, compiler
  generation, design, channel, and the execution-relevant knobs
  (``kill_on_violation``, ``max_steps``, ``seed``, ``aslr``, plus any
  caller-supplied extras).  The *accounting mode* is deliberately not
  part of the key: a ``RunResult`` carries every cycle bucket, so both
  MODEL and SIM readings come from the same run.
* hits are served from an in-process dict first, then from an optional
  on-disk store (one pickle per key), which is what lets parallel
  workers share baseline runs;
* results are deep-copied on every hit so callers can never mutate the
  cached copy;
* statistics (hits / misses / bytes) are kept per cache and surfaced by
  ``python -m repro.bench``.

The cache is *opt-in*: nothing is cached until a cache is activated via
:func:`enable_cache` / :func:`cache_enabled`, so unit tests and library
users keep exact run-per-call semantics by default.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.core.framework import RunResult, run_program
from repro.workloads.profiles import BenchmarkProfile


@dataclass
class CacheStats:
    """Hit/miss/volume counters for one :class:`RunCache`."""

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_written: int = 0
    bytes_read: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.disk_hits += other.disk_hits
        self.misses += other.misses
        self.stores += other.stores
        self.bytes_written += other.bytes_written
        self.bytes_read += other.bytes_read

    def format(self) -> str:
        return (f"cache: {self.hits} memory hits, {self.disk_hits} disk "
                f"hits, {self.misses} misses "
                f"({self.bytes_written:,} B written, "
                f"{self.bytes_read:,} B read)")


def run_key(profile: BenchmarkProfile, dataset: str, compiler: str,
            design: str, channel: Optional[str],
            **knobs: object) -> str:
    """Content-addressed key for one deterministic run.

    The profile contributes its *entire field set*, so two profiles
    that share a name but differ in any density or flag (e.g. the
    synthetic ``sweep-N`` profiles) never collide.
    """
    payload = {
        "profile": asdict(profile),
        "dataset": dataset,
        "compiler": compiler,
        "design": design,
        "channel": channel,
        "knobs": knobs,
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunCache:
    """In-process + optional on-disk store of :class:`RunResult`s."""

    def __init__(self, disk_dir: Optional[str] = None) -> None:
        self.disk_dir = disk_dir
        self.stats = CacheStats()
        self._memory: Dict[str, RunResult] = {}
        if disk_dir:
            os.makedirs(disk_dir, exist_ok=True)

    # -- lookup / store ----------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.disk_dir, f"{key}.pkl")

    def lookup(self, key: str) -> Optional[RunResult]:
        """Return a private copy of the cached result, or None."""
        result = self._memory.get(key)
        if result is not None:
            self.stats.hits += 1
            return copy.deepcopy(result)
        if self.disk_dir:
            path = self._path(key)
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
                result = pickle.loads(blob)
            except Exception:
                # Unreadable/torn/corrupt entries are misses: pickle
                # raises a grab-bag of types on garbage input.
                return None
            self.stats.disk_hits += 1
            self.stats.bytes_read += len(blob)
            self._memory[key] = result
            return copy.deepcopy(result)
        return None

    def store(self, key: str, result: RunResult) -> None:
        self._memory[key] = copy.deepcopy(result)
        self.stats.stores += 1
        if self.disk_dir:
            blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            path = self._path(key)
            # Atomic publish so concurrent workers never read a torn
            # file: write to a private temp file, then rename into place.
            handle, tmp_path = tempfile.mkstemp(dir=self.disk_dir,
                                                suffix=".tmp")
            try:
                with os.fdopen(handle, "wb") as tmp:
                    tmp.write(blob)
                os.replace(tmp_path, path)
            except OSError:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
            else:
                self.stats.bytes_written += len(blob)

    def get_or_run(self, key: str,
                   thunk: Callable[[], RunResult]) -> RunResult:
        """Serve ``key`` from cache, or execute ``thunk`` and memoize."""
        cached = self.lookup(key)
        if cached is not None:
            return cached
        self.stats.misses += 1
        result = thunk()
        self.store(key, result)
        return result


#: The process-wide active cache (None = caching disabled).
_ACTIVE: Optional[RunCache] = None


def active_cache() -> Optional[RunCache]:
    return _ACTIVE


def enable_cache(cache: Optional[RunCache] = None,
                 disk_dir: Optional[str] = None) -> RunCache:
    """Activate ``cache`` (or a fresh one) process-wide; returns it."""
    global _ACTIVE
    _ACTIVE = cache if cache is not None else RunCache(disk_dir=disk_dir)
    return _ACTIVE


@contextmanager
def cache_enabled(cache: Optional[RunCache] = None,
                  disk_dir: Optional[str] = None) -> Iterator[RunCache]:
    """Scoped activation; restores the previous cache on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache if cache is not None else RunCache(disk_dir=disk_dir)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def cached_run_program(builder: Callable[[], object], key: str,
                       **run_kwargs: object) -> RunResult:
    """Run ``run_program(builder(), **run_kwargs)`` through the active
    cache (or directly when caching is disabled).

    ``builder`` constructs a *fresh* module — instrumentation passes
    mutate it, so the module can only be built when the run actually
    executes.
    """
    cache = _ACTIVE
    if cache is None:
        return run_program(builder(), **run_kwargs)
    return cache.get_or_run(key,
                            lambda: run_program(builder(), **run_kwargs))

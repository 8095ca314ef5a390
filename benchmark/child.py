"""One repetition of one workload, in a fresh process.

The runner starts ``python -m benchmark.child '<spec json>'`` and reads
the last line of its stdout: one JSON object with when set-up ended
(``time.monotonic``, so the runner can subtract its own spawn time),
the body's wall time, peak RSS, the body's output, the shared-memory
segments still owned afterwards, and for a traced repetition the
per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from benchmark import use_source
from benchmark.trace import BOUNDARY_INDEX, Spans, installed, layer_metrics
from benchmark.workloads import WORKLOADS


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared memory starts, if any."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv) -> int:
    spec = json.loads(argv[0])
    use_source()
    workload = WORKLOADS[spec["workload"]]
    inputs = workload.setup(spec)
    ready = time.monotonic()
    result = {"ready": ready}
    if spec["trace"]:
        spans = Spans()
        with installed(spans):
            start = time.perf_counter()
            with spans.span(BOUNDARY_INDEX["driver"]):
                output = workload.body(inputs)
            result["wall_s"] = time.perf_counter() - start
    else:
        start = time.perf_counter()
        output = workload.body(inputs)
        result["wall_s"] = time.perf_counter() - start
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    from repro.ipc.shared_memory import owned_segment_names
    result["shm_segments"] = len(owned_segment_names())
    if spec["trace"]:
        result["layers"] = layer_metrics(spans, output)
    result["output"] = output
    _stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

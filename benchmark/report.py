"""Printing results, writing them as a ``repro.perf`` profile, and
comparing two profiles against the bounds in ``BENCHMARK.json``.

The profile functions import ``repro.perf``; callers put ``src/`` on the
path first (:func:`benchmark.use_source`)."""

from __future__ import annotations

import statistics
from typing import Dict, List

from benchmark.runner import Tally, quartiles
from benchmark.trace import LAYERS

#: The ``repro.perf`` profile source this benchmark writes.
SOURCE = "benchmark"


def result_line(tally: Tally, metrics: List[dict], trace: bool) -> dict:
    """The one-workload result: medians of ``metrics`` (the spec's
    ``per_layer`` list when traced, else its ``end_to_end`` list)."""
    values = tally.per_layer() if trace else tally.samples
    missing = [m["name"] for m in metrics if not values.get(m["name"])]
    if missing:
        raise ValueError(f"no correct repetition measured {missing}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": statistics.median(
                values[m["name"]]), "unit": m["unit"]} for m in metrics}}


def _number(value: float) -> str:
    return f"{value:,.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def format_tally(name: str, tally: Tally, spec: dict) -> List[str]:
    """The end-to-end table of one workload, then its layer table when
    it has a traced repetition."""
    lines = [f"{name}: {tally.attempted} ops attempted, "
             f"{tally.failed} failed"]
    lines += [f"  FAILED {failure}" for failure in tally.failures]
    for metric in spec["end_to_end"]:
        values = tally.samples.get(metric["name"])
        if values:
            q1, median, q3 = quartiles(values)
            lines.append(f"  {metric['name']:<12} {_number(median):>12} "
                         f"{metric['unit']:<6} [q1 {_number(q1)}, "
                         f"q3 {_number(q3)}, n={len(values)}]")
    layers = tally.per_layer()
    if not layers:
        return lines
    body_s = statistics.median(layers["trace.body_s"])
    traced_wall = statistics.median(tally.traced_walls)
    overhead = layers.get("trace.overhead", [float("nan")])[0]
    lines.append(f"  layers (traced body {body_s:.3f}s = "
                 f"{100 * body_s / traced_wall:.1f}% of traced wall; "
                 f"trace.overhead {_number(overhead)})")
    lines.append(f"    {'layer':<12} {'calls':>9} {'self_s':>9} "
                 f"{'share':>7}")
    for layer in LAYERS:
        share = statistics.median(layers[f"{layer}.share"])
        calls = statistics.median(layers[f"{layer}.calls"])
        if calls:
            lines.append(f"    {layer:<12} {calls:>9,.0f} "
                         f"{share * body_s / 100:>9.3f} {share:>6.1f}%")
    extras = [key for key in layers if not key.endswith((".calls", ".share"))
              and key not in ("trace.body_s", "trace.overhead")]
    lines += [f"    {key} = {_number(statistics.median(layers[key]))}"
              for key in extras if statistics.median(layers[key])]
    return lines


def write_profile(path: str, seed: int, tallies: Dict[str, Tally],
                  spec: dict) -> None:
    """Every (workload, metric) median as ``<workload>.<metric>`` in the
    ``repro.perf`` profile at ``path``, with quartiles and samples in
    the source's meta, so ``python -m repro.perf diff`` reads it."""
    from repro.perf.profile import Metric, write
    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    metrics: Dict[str, Metric] = {}
    meta: dict = {"seed": seed, "quartiles": {}, "samples": {}, "ops": {}}
    for name, tally in tallies.items():
        meta["ops"][name] = {"attempted": tally.attempted,
                             "failed": tally.failed,
                             "failures": tally.failures}
        for metric, values in {**tally.samples, **tally.per_layer()}.items():
            q1, median, q3 = quartiles(values)
            key = f"{name}.{metric}"
            metrics[key] = Metric(value=median, unit=units[metric]["unit"],
                                  rounds=len(values),
                                  direction=units[metric]["better"])
            meta["quartiles"][key] = [q1, q3]
            meta["samples"][key] = values
    write(path, SOURCE, metrics, meta=meta)


def _verdict(metric: dict, old: List[float], new: List[float]) -> str:
    """The choosing-metrics rule: regressed when the new median is worse
    than the old by more than the bound; unresolved when the old runs'
    own quartile spread exceeds the bound, unless every new run beats
    every old one."""
    lower = metric["better"] == "lower"
    old_median, new_median = statistics.median(old), statistics.median(new)
    worse = (new_median - old_median) / old_median
    if not lower:
        worse = -worse
    q1, _, q3 = quartiles(old)
    spread = (q3 - q1) / old_median
    all_better = (max(new) < min(old)) if lower else (min(new) > max(old))
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    if worse > metric["bound"]:
        return "REGRESSED"
    return "improved" if worse < -metric["bound"] else "ok"


def compare(old_path: str, new_path: str, spec: dict) -> int:
    """Print each end-to-end (workload, metric) of two profiles with its
    verdict, then every per-layer count that differs; 1 on a regression."""
    from repro.perf.profile import load
    old, new = load(old_path), load(new_path)
    old_meta = old["sources"][SOURCE]
    new_meta = new["sources"][SOURCE]
    regressed = False
    print(f"{'workload':<16} {'metric':<12} {'old median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    for name in old_meta["ops"]:
        if name not in new_meta["ops"]:
            continue
        for metric in spec["end_to_end"]:
            key = f"{name}.{metric['name']}"
            if key not in old_meta["samples"] or \
                    key not in new_meta["samples"]:
                continue
            cells = []
            for meta in (old_meta, new_meta):
                q1, median, q3 = quartiles(meta["samples"][key])
                cells.append(f"{_number(median)} [{_number(q1)}, "
                             f"{_number(q3)}]")
            change = (new["metrics"][key]["value"]
                      / old["metrics"][key]["value"] - 1.0)
            verdict = _verdict(metric, old_meta["samples"][key],
                               new_meta["samples"][key])
            regressed |= verdict == "REGRESSED"
            print(f"{name:<16} {metric['name']:<12} {cells[0]:>30} "
                  f"{cells[1]:>30} {change:>+8.1%} {metric['bound']:>6.0%}"
                  f"  {verdict}")
        print(f"{name:<16} failed ops: {old_meta['ops'][name]['failed']} "
              f"of {old_meta['ops'][name]['attempted']} -> "
              f"{new_meta['ops'][name]['failed']} of "
              f"{new_meta['ops'][name]['attempted']}")
    counts = [key for name in old_meta["ops"] for metric in spec["per_layer"]
              if metric["unit"] == "count"
              for key in [f"{name}.{metric['name']}"]
              if key in old["metrics"] and key in new["metrics"]]
    differing = [key for key in counts if old["metrics"][key]["value"]
                 != new["metrics"][key]["value"]]
    print(f"per-layer counts: {len(counts) - len(differing)} of "
          f"{len(counts)} equal")
    for key in differing:
        print(f"  {key}: {old['metrics'][key]['value']:g} -> "
              f"{new['metrics'][key]['value']:g}")
    return 1 if regressed else 0

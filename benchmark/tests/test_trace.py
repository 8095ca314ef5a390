"""Span arithmetic and the metric lists, without running a workload."""

from benchmark import use_source
from benchmark.runner import load_spec
from benchmark.trace import (BOUNDARY_INDEX, Spans, installed, layer_metrics,
                             layer_table, per_layer_names, self_times)


def _tree() -> Spans:
    """driver [0, 10] > bench [1, 9] > interp [2, 6] > ipc [3, 4], ipc [4.5, 5]
                                   > bench.cache [7, 8]"""
    spans = Spans()
    driver = spans.add(BOUNDARY_INDEX["driver"], 0.0, 10.0, -1)
    bench = spans.add(BOUNDARY_INDEX["bench.main"], 1.0, 9.0, driver)
    interp = spans.add(BOUNDARY_INDEX["interp.run"], 2.0, 6.0, bench, 700)
    spans.add(BOUNDARY_INDEX["ipc.send_raw"], 3.0, 4.0, interp)
    spans.add(BOUNDARY_INDEX["ipc.send_raw"], 4.5, 5.0, interp)
    spans.add(BOUNDARY_INDEX["cache.lookup"], 7.0, 8.0, bench, 1)
    return spans


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [2.0, 3.0, 2.5, 1.0, 0.5, 1.0]


def test_layer_self_times_sum_to_the_root_span():
    table = layer_table(_tree())
    assert sum(row["self_s"] for row in table.values()) == 10.0
    assert table["ipc"] == {"calls": 2, "self_s": 1.5}
    assert table["interp"]["calls"] == 1


def test_nested_spans_of_one_layer_count_one_call():
    spans = Spans()
    root = spans.add(BOUNDARY_INDEX["driver"], 0.0, 4.0, -1)
    outer = spans.add(BOUNDARY_INDEX["kernel.syscall"], 1.0, 3.0, root)
    spans.add(BOUNDARY_INDEX["kernel.barrier"], 1.5, 2.5, outer, 1)
    table = layer_table(spans)
    assert table["kernel"] == {"calls": 1, "self_s": 2.0}
    assert layer_metrics(spans, {})["kernel.kills"] == 1


def test_layer_metrics_shares_and_counts():
    metrics = layer_metrics(_tree(), {})
    assert metrics["trace.body_s"] == 10.0
    assert metrics["interp.share"] == 25.0
    assert metrics["interp.steps"] == 700
    assert metrics["interp.steps_per_s"] == 700 / 2.5
    assert metrics["bench.cache.hit_ratio"] == 1.0
    assert sum(metrics[f"{layer}.share"] for layer in
               ("driver", "bench", "interp", "ipc", "bench.cache")) == 100.0


def test_spec_lists_exactly_the_metrics_the_code_reports():
    spec = load_spec()
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "wall_s", "peak_rss_mb", "ops_per_s"]


def test_installed_restores_every_entry_point():
    use_source()
    from repro.core.verifier import Verifier
    from repro.ipc.appendwrite import AppendWriteUArch
    from repro.workloads import generator
    originals = (Verifier.poll, AppendWriteUArch.send_raw,
                 generator.build_module)
    with installed(Spans()):
        assert Verifier.poll is not originals[0]
        assert generator.build_module is not originals[2]
    assert (Verifier.poll, AppendWriteUArch.send_raw,
            generator.build_module) == originals

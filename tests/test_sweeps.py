"""The sensitivity-sweep analyses (repro.bench.sweeps) at small size.

``benchmarks/test_sweeps.py`` runs the full sweeps and prints their
tables; these pin the helpers and the memory-safety comparison in the
tier-1 suite.
"""

from repro.bench.sweeps import (
    SweepPoint,
    crossover_density,
    format_sweep,
    memory_safety_vs_cfi,
)

POINTS = [SweepPoint(density, primitive, relative, messages=0)
          for density, primitive, relative in (
              (0, "mq", 0.99), (150, "mq", 0.40), (400, "mq", 0.20),
              (0, "sim", 1.00), (150, "sim", 0.97), (400, "sim", 0.96))]


def test_crossover_is_the_first_density_below_the_floor():
    assert crossover_density(POINTS, "mq") == 150
    assert crossover_density(POINTS, "sim") is None
    assert crossover_density(POINTS, "sim", floor=0.965) == 400


def test_format_sweep_is_one_row_per_density():
    lines = format_sweep(POINTS).splitlines()
    assert lines[0].split() == ["events/k", "iter", "mq", "sim"]
    assert lines[2].split() == ["150", "0.400", "0.970"]
    assert len(lines) == 4


def test_memory_safety_costs_more_than_cfi():
    """Section 4.2: checking every access subsumes CFI, at the price of
    far more messages and a lower relative performance."""
    cfi, memory_safety = memory_safety_vs_cfi()
    assert (cfi.policy, memory_safety.policy) == ("hq-cfi", "memory-safety")
    assert memory_safety.messages > cfi.messages
    assert memory_safety.relative < cfi.relative

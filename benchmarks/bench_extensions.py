"""Benchmark: the beyond-the-paper extensions at library-trace scale.

* Cascade SLAs save a large multiple over worst-case provisioning while
  meeting every tier's coverage.
* The shadow autoscaler's live estimate brackets the offline ``Cmin``.
"""

from __future__ import annotations

from repro.experiments import extensions


def test_extensions_benchmark(benchmark, config):
    result = benchmark.pedantic(
        lambda: extensions.run(config), rounds=1, iterations=1
    )
    print()
    print(extensions.render(result))

    for cell in result.cascade:
        # Both tiers covered...
        assert cell.coverage[0] >= 0.90
        assert cell.coverage[1] >= 0.99
        # ...at a fraction of the worst-case capacity.
        assert cell.worst_case / cell.cascade_total > 2.0
        # The cascade's silver tier rides the gold overflow, so its
        # capacity is below planning the silver target from scratch.
        assert cell.tier_capacities[1] <= cell.flat_silver

    for cell in result.streaming:
        assert cell.replans >= 5
        # The live estimate converges on the offline plan...
        assert cell.final_estimate <= 1.2 * cell.offline_cmin
        # ...and the high-water mark brackets it conservatively but not
        # wastefully.
        assert 0.9 <= cell.high_water_mark / cell.offline_cmin <= 1.5

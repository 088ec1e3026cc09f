"""Figures 6, 7 and 8: the seven-scheme comparison matrix.

One matrix of runs feeds all three figures, exactly as in the paper;
the three tests share it (and the headline summary) through the
session-scoped ``comparison_results`` fixture, so the benchmark timings
reflect each figure's own assembly cost.
"""

import pytest

from repro.experiments.comparison import (
    average_row,
    fig6_energy,
    fig7_completion,
    fig8_miss_breakdown,
    render_miss_table,
    render_normalized_table,
)


def test_fig6_energy(benchmark, comparison_results):
    table = benchmark.pedantic(fig6_energy, args=(comparison_results,), rounds=1, iterations=1)
    print()
    print(render_normalized_table(table, "Figure 6: Energy (normalized to S-NUCA)"))
    for row in table.values():
        assert row["S-NUCA"] == pytest.approx(1.0)
    averages = average_row(table)
    # The headline direction: locality-aware RT-3 saves energy vs S-NUCA.
    assert averages["RT-3"] < averages["S-NUCA"]


def test_fig7_completion(benchmark, comparison_results):
    table = benchmark.pedantic(fig7_completion, args=(comparison_results,), rounds=1, iterations=1)
    print()
    print(render_normalized_table(table, "Figure 7: Completion Time (normalized to S-NUCA)"))
    averages = average_row(table)
    assert averages["RT-3"] < averages["S-NUCA"]


def test_fig8_miss_types(benchmark, comparison_results):
    table = benchmark.pedantic(
        fig8_miss_breakdown, args=(comparison_results,), rounds=1, iterations=1
    )
    print()
    print(render_miss_table(table, "Figure 8: L1 Cache Miss Type Breakdown"))
    # S-NUCA and R-NUCA never produce replica hits; RT-3 does on BARNES.
    for row in table.values():
        assert row["S-NUCA"]["LLC-Replica-Hits"] == 0.0
        assert row["R-NUCA"]["LLC-Replica-Hits"] == 0.0
    assert table["BARNES"]["RT-3"]["LLC-Replica-Hits"] > 0.0

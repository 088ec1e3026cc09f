"""The abstract's headline numbers: RT-3 vs VR / ASR / R-NUCA / S-NUCA."""

from repro.experiments.summary import headline_reductions, render_summary


def test_headline_summary(benchmark, comparison_results):
    energy_reduction, time_reduction = benchmark.pedantic(
        headline_reductions, args=(comparison_results,), rounds=1, iterations=1
    )
    print()
    print(render_summary(energy_reduction, time_reduction))
    # Direction of the headline claim (magnitudes are workload-model
    # dependent; EXPERIMENTS.md records the measured values):
    assert energy_reduction["S-NUCA"] > 0
    assert time_reduction["S-NUCA"] > 0
    assert energy_reduction["ASR"] > 0

"""Experiment harness: every table and figure of the paper, regenerable.

Each ``figure*`` function sweeps the paper's parameter, optimizes a plan
per policy and seed, simulates it, and returns a :class:`FigureResult`
whose series carry means and 90 % confidence intervals -- the same
methodology as the paper ("the experiments were executed repeatedly so
that the 90% confidence intervals ... were within 5%", section 4.1).
"""

from repro.experiments.stats import PointEstimate, summarize
from repro.experiments.runner import RunSettings
from repro.experiments.report import render_figure
from repro.experiments.figures import (
    FigureResult,
    SeriesPoint,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure10,
    figure11,
    availability_sweep,
    cache_warmup,
    function_shipping,
    memory_contention,
    qs_under_load_text,
    throughput_sweep,
    two_step_caching,
    write_mix,
    table1,
    table2,
)

__all__ = [
    "FigureResult",
    "PointEstimate",
    "RunSettings",
    "SeriesPoint",
    "availability_sweep",
    "cache_warmup",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure10",
    "figure11",
    "function_shipping",
    "memory_contention",
    "qs_under_load_text",
    "render_figure",
    "summarize",
    "table1",
    "table2",
    "throughput_sweep",
    "two_step_caching",
    "write_mix",
]

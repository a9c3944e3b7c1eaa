"""Experiment harness reproducing every figure of the paper's §V.

Each ``figure_NN`` function returns a :class:`~repro.experiments.result.FigureResult`
holding "Analysis: …" and "Simulation: …" series exactly as the paper plots
them. The benchmarks under ``benchmarks/`` call these functions and print
the regenerated rows; EXPERIMENTS.md records the outcomes.
"""

from repro.experiments.ascii_chart import render_chart
from repro.experiments.config import PaperConfig, DEFAULT_CONFIG
from repro.experiments.cost_figs import figure_11
from repro.experiments.extension_figs import figure_e1, figure_e2
from repro.experiments.persistence import (
    CheckpointStore,
    load_figure,
    run_checkpointed,
    save_figure,
)
from repro.experiments.sensitivity import (
    density_sensitivity,
    network_size_sensitivity,
)
from repro.experiments.delivery_figs import figure_04, figure_05, figure_10
from repro.experiments.parallel import (
    WorkerPool,
    chunk_sizes,
    parallel_map,
    run_parallel_montecarlo,
    spawn_chunk_seeds,
    worker_count,
    workers_metadata,
)
from repro.experiments.result import FigureResult, Series
from repro.experiments.robustness_figs import figure_r1, figure_r2
from repro.experiments.security_figs import (
    figure_06,
    figure_07,
    figure_08,
    figure_09,
    figure_12,
    figure_13,
)
from repro.experiments.trace_figs import (
    figure_14,
    figure_15,
    figure_16,
    figure_17,
    figure_18,
    figure_19,
)

__all__ = [
    "PaperConfig",
    "DEFAULT_CONFIG",
    "FigureResult",
    "Series",
    "figure_04",
    "figure_05",
    "figure_06",
    "figure_07",
    "figure_08",
    "figure_09",
    "figure_10",
    "figure_11",
    "figure_12",
    "figure_13",
    "figure_14",
    "figure_15",
    "figure_16",
    "figure_17",
    "figure_18",
    "figure_19",
    "figure_e1",
    "figure_e2",
    "figure_r1",
    "figure_r2",
    "network_size_sensitivity",
    "density_sensitivity",
    "chunk_sizes",
    "parallel_map",
    "run_parallel_montecarlo",
    "spawn_chunk_seeds",
    "WorkerPool",
    "worker_count",
    "workers_metadata",
    "render_chart",
    "save_figure",
    "load_figure",
    "CheckpointStore",
    "run_checkpointed",
]

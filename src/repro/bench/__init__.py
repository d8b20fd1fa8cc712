"""Benchmark harness: regenerates every table of the paper's evaluation.

``Arm2Experiments`` owns the shared state (parsed design, synthesized full
netlist, composers for both extraction modes) and exposes one method per
paper table; the ``benchmarks/`` pytest files are thin wrappers that time the
underlying operation and print the rows.
"""

from repro.bench.experiments import (
    Arm2Experiments,
    bench_scale,
    default_atpg_options,
    get_experiments,
)
from repro.bench.micro import run_bench

__all__ = ["Arm2Experiments", "bench_scale", "default_atpg_options",
           "get_experiments", "run_bench"]

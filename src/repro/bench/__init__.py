"""Experiment harness: regenerates every table and figure of the paper.

Each experiment module exposes ``cases(scenario) -> [Case]`` (independent
simulation runs) and ``assemble(scenario, results) -> Table`` (pure
presentation), plus ``run(scenario) -> Table`` composing the two; the
registry maps experiment ids (``fig5``, ``table3``, ...) to them.  Run
from the command line::

    python -m repro.bench fig5 --scale 32 --preset fast
    python -m repro.bench all --preset fast -j 4

The CLI executes cases on a process pool (``-j``) backed by an on-disk
result cache (``.bench_cache/``); serial, parallel, and cached runs
produce byte-identical tables.  The paper's claims about each table are
checked against the committed goldens by ``tests/bench/test_paper_claims.py``.
"""

from repro.bench.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.bench.report import Table
from repro.bench.scenario import Scenario

__all__ = ["EXPERIMENTS", "Scenario", "Table", "get_experiment", "run_experiment"]

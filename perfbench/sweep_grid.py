"""sweep-grid: the 21-cell ``scale-protection`` grid through the batch runner.

Every registered adversary strategy (7) at intensities 1, 2 and 4 against a
1,000-receiver cohort audience, attack onset at 24 s of 30 s, run through
``ExperimentRunner(jobs=2)`` with a fresh cache directory per grid.  This
is the one workload where warm-start planning, checkpoint build and restore,
the process pool and cache writes all do real work.  Grids ``2j`` and
``2j+1`` share their spec seed and are compared byte for byte, counters
included; one seeded cell of each pair is also re-run cold in-process.

A batch cell's result reaches its caller when the batch returns, so each
grid cell's ``miss_ms`` sample is its grid's wall time.  After each grid a
fresh runner re-reads every cell from the cache (the cached re-run of the
sweep), one :meth:`ExperimentRunner.run_one` per cell, timed as ``hit_ms``.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path
from typing import List, Optional

from common import Outcome, SetupSampler, WorkDir, child_env, tamper, time_interpreter
from tracing import Tracer, counter_drift, install, load_payloads, summarise

INTENSITIES = (1.0, 2.0, 4.0)
AUDIENCE = 1_000
ATTACKER_FRACTION = 0.01
ONSET_S = 24.0
DURATION_S = 30.0
JOBS = 2
#: Grids the traced run executes (and re-executes untraced for overhead).
TRACED_GRIDS = 2

SETUP_CODE = (
    "import sys\n"
    "from repro.adversary import ADVERSARIES\n"
    "from repro.experiments import ExperimentRunner, scale_protection_spec\n"
    "grid = [scale_protection_spec(audience=%d, attacker_fraction=%r, strategy=s,\n"
    "        intensity=i, attack_start_s=%r, duration_s=%r)\n"
    "        for s in sorted(ADVERSARIES) for i in %r]\n"
    "ExperimentRunner(jobs=%d, cache_dir=sys.argv[1])\n"
    % (AUDIENCE, ATTACKER_FRACTION, ONSET_S, DURATION_S, INTENSITIES, JOBS)
)


def grid_specs(seed: int, index: int) -> list:
    """The grid run as number ``index``: ``2j`` and ``2j+1`` share a seed."""
    from repro.adversary import ADVERSARIES
    from repro.experiments import scale_protection_spec

    spec_seed = random.Random(f"sweep-grid:{seed}:{index // 2}").randrange(1 << 30)
    return [
        scale_protection_spec(
            audience=AUDIENCE,
            attacker_fraction=ATTACKER_FRACTION,
            strategy=strategy,
            intensity=intensity,
            attack_start_s=ONSET_S,
            duration_s=DURATION_S,
        ).with_seed(spec_seed)
        for strategy in sorted(ADVERSARIES)
        for intensity in INTENSITIES
    ]


class Grid:
    """One executed grid: its outputs, timings, counters and cached re-reads."""

    def __init__(self, index: int, specs: list, cache_dir: Path) -> None:
        self.index = index
        self.specs = specs
        self.cache_dir = cache_dir
        self.outputs: List[str] = []
        self.wall_s = 0.0
        self.window = (0, 0)
        #: Exact counters, equal across twin grids.
        self.counters: dict = {}
        #: Checkpoint blob sizes: reported, not compared, because a blob
        #: pickles process-global state such as the packet-id counter.
        self.blob_bytes = 0
        self.hits: list = []


def _run_grids(seed: int, seconds: float, grids: Optional[int], work: WorkDir,
               tracer: Optional[Tracer],
               setup: Optional[SetupSampler] = None) -> List[Grid]:
    from repro.experiments import ExperimentRunner

    done: List[Grid] = []
    started = time.perf_counter()
    index = 0
    while (index < grids) if grids is not None else (
        index % 2 or index == 0 or time.perf_counter() - started < seconds
    ):
        if setup is not None:
            setup.between_units()
        grid = Grid(index, grid_specs(seed, index), work.fresh("grid-cache"))
        runner = ExperimentRunner(jobs=JOBS, cache_dir=grid.cache_dir)
        if tracer is None:
            begin = time.perf_counter_ns()
            results = runner.run(grid.specs)
            end = time.perf_counter_ns()
        else:
            tracer.cell = None
            with tracer.span("benchmark.unit") as record:
                results = runner.run(grid.specs)
            begin, end = record[1], record[2]
        grid.wall_s = (end - begin) / 1e9
        grid.window = (begin, end)
        grid.outputs = [result.to_json() for result in results]
        grid.counters = {
            "checkpoint_hits": runner.checkpoint_hits,
            "checkpoint_misses": runner.checkpoint_misses,
            "warm_runs": runner.warm_runs,
            "cache_misses": runner.cache_misses,
        }
        grid.blob_bytes = sum(p.stat().st_size for p in grid.cache_dir.glob("ck_*.pkl"))
        for spec in grid.specs:
            rerun = ExperimentRunner(jobs=JOBS, cache_dir=grid.cache_dir)
            if tracer is None:
                begin = time.perf_counter_ns()
                result = rerun.run_one(spec)
                end = time.perf_counter_ns()
            else:
                with tracer.span("benchmark.unit") as record:
                    result = rerun.run_one(spec)
                begin, end = record[1], record[2]
            grid.hits.append((result.to_json(), (end - begin) / 1e9, (begin, end)))
        done.append(grid)
        index += 1
    return done


def cell_problems(spec, output: str, reference: str) -> List[str]:
    """Why ``output`` is not ``spec``'s result (``reference`` is trusted)."""
    from repro.experiments import RunResult

    problems = []
    if output != reference:
        problems.append("differs byte-for-byte from its reference")
    try:
        result = RunResult.from_json(output)
        if (result.scenario, result.seed) != (spec.name, spec.seed):
            problems.append("names another cell")
        if "protection" not in result.metrics:
            problems.append("has no protection block")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable result document ({exc!r})")
    return problems


def _check(outcome: Outcome, grids: List[Grid], seed: int, label: str) -> None:
    """Every check, outside the timed region; failures feed ``failed``."""
    from repro.experiments import run_spec_json

    for grid in grids:
        twin = grids[grid.index ^ 1] if (grid.index ^ 1) < len(grids) else None
        if twin is not None and grid.index % 2 == 0 and twin.counters != grid.counters:
            outcome.fail(
                f"{label} determinism: grid {grid.index} counters {grid.counters} "
                f"!= grid {twin.index} {twin.counters}"
            )
        if twin is not None and grid.index % 2 == 0:
            sample = random.Random(f"sweep-grid-sample:{seed}:{grid.index}").randrange(
                len(grid.specs)
            )
            spec = grid.specs[sample]
            cold = run_spec_json(spec.to_json())
            if cold != grid.outputs[sample]:
                outcome.fail(
                    f"{label} grid {grid.index} cell {sample} differs from a cold run_spec_json"
                )
            if not cell_problems(spec, tamper(cold), cold):
                outcome.fail(f"{label}: the check does not reject a tampered cell")
        for position, (spec, output) in enumerate(zip(grid.specs, grid.outputs)):
            reference = twin.outputs[position] if twin is not None else output
            problems = cell_problems(spec, output, reference)
            served = grid.hits[position][0]
            if served != output:
                problems.append("cached re-read differs from the grid's result")
            if problems:
                outcome.fail(
                    f"{label} grid {grid.index} cell {position}: " + "; ".join(problems)
                )
        outcome.attempted += len(grid.specs) + len(grid.hits)


def _cells(grids: List[Grid]) -> int:
    return sum(len(grid.specs) for grid in grids)


def measure(seed: int, seconds: float, work: WorkDir, setup_repeats: int) -> Outcome:
    outcome = Outcome()
    argv = [sys.executable, "-c", SETUP_CODE, str(work.fresh("setup-cache"))]
    env = child_env(work.path)
    setup = SetupSampler(lambda: time_interpreter(argv, env), seconds, setup_repeats)
    grids = _run_grids(seed, seconds, None, work, None, setup)
    _check(outcome, grids, seed, "untraced")
    wall = sum(grid.wall_s for grid in grids)
    outcome.metrics.update({
        "setup_s": setup.median(),
        "sim_s_per_wall_s": _cells(grids) * DURATION_S / wall,
        "cells_per_s": _cells(grids) / wall,
    })
    outcome.latency("miss_ms", [grid.wall_s * 1e3 for grid in grids for _ in grid.specs])
    outcome.latency("hit_ms", [hit[1] * 1e3 for grid in grids for hit in grid.hits])
    outcome.notes.append(f"grids: {len(grids)} ({_cells(grids)} cells) in {wall:.2f}s")
    return outcome


def traced(seed: int, seconds: float, work: WorkDir) -> Outcome:
    outcome = Outcome()
    reference = _run_grids(seed, seconds, TRACED_GRIDS, work, None)
    _check(outcome, reference, seed, "reference")
    tracer = Tracer(work.fresh("grid-trace"))
    undo = install(tracer)
    try:
        grids = _run_grids(seed, seconds, TRACED_GRIDS, work, tracer)
    finally:
        undo()
        tracer.flush()
    _check(outcome, grids, seed, "traced")
    payloads = load_payloads(tracer.directory)
    roots = [grid.window for grid in grids] + [hit[2] for grid in grids for hit in grid.hits]
    outcome.metrics.update(summarise(payloads, roots, workers=JOBS))
    for key in ("checkpoint_hits", "checkpoint_misses", "warm_runs"):
        outcome.metrics[f"experiments.warmstart.{key}"] = sum(
            grid.counters[key] for grid in grids
        )
    outcome.metrics["experiments.warmstart.blob_bytes"] = sum(g.blob_bytes for g in grids)
    wall = sum(grid.wall_s for grid in grids)
    outcome.metrics["trace.overhead"] = wall / sum(grid.wall_s for grid in reference)
    for drift in counter_drift(payloads):
        outcome.fail(f"determinism: counters drifted on cell {drift}")
    outcome.notes.append(f"traced {len(grids)} grids in {wall:.2f}s")
    return outcome

"""figure-duel: the paper's Figure 1 and Figure 7 cells, cold and in-process.

Each pair runs ``figure1-attack`` (FLID-DL, IGMP) and ``figure7-defence``
(FLID-DS with DELTA, SIGMA and FEC) for the paper's 200 simulated seconds
through :func:`run_spec_json`, serially in this process, so planning, the
result cache, warm starts and the pool are all bypassed: >95% of the time is
per-packet simulation.  Pairs ``2j`` and ``2j+1`` share their spec seed, so
every run re-simulates each seed once more and compares bytes.

``hit_ms`` is the cached re-run of a figure (``python -m repro run
figure1-attack --cache-dir D`` a second time): each new document is
published to a result cache outside the timed region, and a second process
(``hits.py``) re-reads published cells through
:meth:`ExperimentRunner.run_one` all through the run.  The traced run
simulates the cells only: the cache is not part of this workload's path.
"""

from __future__ import annotations

import json
import random
import sys
import time
from typing import List, Optional

from common import Outcome, SetupSampler, WorkDir, child_env, tamper, time_interpreter
from hits import HitSampler, digest
from tracing import Tracer, cell_id, counter_drift, install, load_payloads, summarise

FIGURES = ("figure1-attack", "figure7-defence")
#: The paper's claims (as ``tests/integration/test_paper_claims.py`` asserts
#: them): the attacker's goodput during the attack over its fair share.
CLAIMS = {"figure1-attack": (1.8, None), "figure7-defence": (None, 1.3)}
#: Pairs the traced run simulates (and re-simulates untraced for overhead).
TRACED_PAIRS = 2

SETUP_CODE = (
    "from repro.experiments import scenario_spec, run_spec_json\n"
    "for name in %r:\n"
    "    scenario_spec(name).to_json()\n" % (FIGURES,)
)


def spec_seed(seed: int, pair: int) -> int:
    """Spec seed of pair ``pair``: pairs ``2j`` and ``2j+1`` share one."""
    return random.Random(f"figure-duel:{seed}:{pair // 2}").randrange(1 << 30)


def _simulate(seed: int, seconds: float, pairs: Optional[int],
              tracer: Optional[Tracer] = None,
              sampler: Optional[HitSampler] = None,
              cache=None, setup: Optional[SetupSampler] = None) -> list:
    """Run pairs until ``seconds`` pass (whole twin pairs) or ``pairs`` ran.

    Returns ``[(name, spec, output, wall_s, (begin_ns, end_ns))]``.  With a
    ``sampler``, every new document is stored in ``cache`` and offered to it;
    ``setup`` times its set-ups between pairs.
    """
    from repro.experiments import run_spec_json, scenario_spec

    cells: list = []
    started = time.perf_counter()
    pair = 0
    while (pair < pairs) if pairs is not None else (
        pair % 2 or pair == 0 or time.perf_counter() - started < seconds
    ):
        if setup is not None:
            setup.between_units()
        for name in FIGURES:
            spec = scenario_spec(name).with_seed(spec_seed(seed, pair))
            spec_json = spec.to_json()
            if tracer is None:
                begin = time.perf_counter_ns()
                output = run_spec_json(spec_json)
                end = time.perf_counter_ns()
            else:
                tracer.cell = cell_id(spec_json)
                with tracer.span("benchmark.unit") as record:
                    output = run_spec_json(spec_json)
                begin, end = record[1], record[2]
            cells.append((name, spec, output, (end - begin) / 1e9, (begin, end)))
            if sampler is not None and pair % 2 == 0:
                cache.store(spec, output)
                sampler.publish(spec_json)
        pair += 1
    return cells


def cell_problems(name: str, spec, output: str, twin: Optional[str]) -> List[str]:
    """Why ``output`` is not a correct ``name`` document for ``spec``."""
    problems = []
    if twin is not None and twin != output:
        problems.append("differs from the same seed's other run")
    try:
        document = json.loads(output)
        attacker = document["metrics"]["protection"]["sessions"]["F1"]["attackers"]["0"]
        share = attacker["goodput_kbps"] / (spec.config.fair_share_bps / 1e3)
        if (document["scenario"], document["seed"], document["duration_s"]) != (
            name, spec.seed, spec.effective_duration_s
        ):
            problems.append("names another cell")
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable result document ({exc!r})"]
    above, below = CLAIMS[name]
    if above is not None and not share > above:
        problems.append(f"attacker at {share:.2f}x fair share, paper claims > {above}x")
    if below is not None and not share < below:
        problems.append(f"attacker at {share:.2f}x fair share, paper claims < {below}x")
    return problems


def _check(outcome: Outcome, cells: list, label: str) -> None:
    """Every check, outside the timed region; failures feed ``failed``."""
    for index, (name, spec, output, _wall, _window) in enumerate(cells):
        pair, slot = divmod(index, len(FIGURES))
        twin_index = (pair ^ 1) * len(FIGURES) + slot
        twin = cells[twin_index][2] if twin_index < len(cells) else None
        problems = cell_problems(name, spec, output, twin)
        if problems:
            outcome.fail(f"{label} {name} seed {spec.seed}: " + "; ".join(problems))
    name, spec, output, _wall, _window = cells[0]
    if cell_problems(name, spec, output, output) or not cell_problems(
        name, spec, tamper(output), output
    ):
        outcome.fail(f"{label}: the check does not reject a tampered {name} document")
    outcome.attempted += len(cells)


def _check_hits(outcome: Outcome, cells: list, hits: dict) -> None:
    """Every document the sampler served must equal the one stored."""
    stored = {spec.to_json(): digest(output) for _n, spec, output, _w, _win in cells}
    for spec_json, served in hits["served"].items():
        if served != stored.get(spec_json):
            outcome.fail(f"cached re-read of {json.loads(spec_json)['name']} "
                         "differs from the stored document")
    if not hits["latencies_s"]:
        outcome.fail("the hit sampler timed no cached re-read")
    outcome.attempted += len(hits["latencies_s"])


def measure(seed: int, seconds: float, work: WorkDir, setup_repeats: int) -> Outcome:
    from repro.experiments import ResultCache

    outcome = Outcome()
    argv, env = [sys.executable, "-c", SETUP_CODE], child_env(work.path)
    setup = SetupSampler(lambda: time_interpreter(argv, env), seconds, setup_repeats)
    cache_dir = work.fresh("duel-cache")
    sampler = HitSampler(work, cache_dir)
    try:
        cells = _simulate(seed, seconds, None, sampler=sampler,
                          cache=ResultCache(cache_dir), setup=setup)
    finally:
        hits = sampler.stop()
    wall = sum(cell[3] for cell in cells)
    _check(outcome, cells, "untraced")
    _check_hits(outcome, cells, hits)
    outcome.metrics.update({
        "setup_s": setup.median(),
        "sim_s_per_wall_s": sum(c[1].effective_duration_s for c in cells) / wall,
        "cells_per_s": len(cells) / wall,
    })
    outcome.latency("miss_ms", [c[3] * 1e3 for c in cells])
    if hits["latencies_s"]:
        outcome.latency("hit_ms", [s * 1e3 for s in hits["latencies_s"]])
    outcome.notes.append(f"cells: {len(cells)} cold in {wall:.2f}s")
    return outcome


def traced(seed: int, seconds: float, work: WorkDir) -> Outcome:
    outcome = Outcome()
    reference = _simulate(seed, seconds, TRACED_PAIRS)
    _check(outcome, reference, "reference")
    tracer = Tracer(work.fresh("duel-trace"))
    undo = install(tracer)
    try:
        cells = _simulate(seed, seconds, TRACED_PAIRS, tracer=tracer)
    finally:
        undo()
        tracer.flush()
    _check(outcome, cells, "traced")
    payloads = load_payloads(tracer.directory)
    outcome.metrics.update(summarise(payloads, [c[4] for c in cells], workers=1))
    wall = sum(cell[3] for cell in cells)
    reference_wall = sum(cell[3] for cell in reference)
    outcome.metrics["trace.overhead"] = wall / reference_wall
    for drift in counter_drift(payloads):
        outcome.fail(f"determinism: counters drifted on cell {drift}")
    outcome.notes.append(
        f"traced {len(cells)} cells in {wall:.2f}s vs {reference_wall:.2f}s untraced"
    )
    return outcome

"""service-mix: one closed-loop client against ``python -m repro serve --jobs 2``.

The client submits a seeded sequence of one-cell ``scale-protection``
specs, waiting for each to finish before sending the next; every second
request repeats a spec it already submitted, chosen at random.  Repeats are cache hits: they
exercise only protocol framing, scheduler admission and cache reads.  New
specs are misses: ``plan_cell``, the async pool (warm-starting from the
prefix checkpoint their spec seed shares, four seeds per run) and cache
writes.  So the cache layer is measured for reads beside writes.  Each
daemon starts on a fresh cache directory inside the run's work directory,
listening on a free localhost port.

``setup_s`` is daemon spawn to its ``listening`` line: the median over the
daemon that serves the workload and spare daemons spawned (and stopped)
between requests through the run.
"""

from __future__ import annotations

import json
import random
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from common import ROOT, Outcome, SetupSampler, WorkDir, child_env, median, tamper
from tracing import Tracer, counter_drift, install, load_payloads, summarise

INTENSITIES = tuple(0.5 * step for step in range(1, 17))
SPEC_SEEDS = 4
AUDIENCE = 1_000
ONSET_S = 24.0
DURATION_S = 30.0
JOBS = 2
#: Delivered results re-run in-process and byte-compared, per run.
SAMPLED_CHECKS = 3
#: Requests the traced run sends (and sends again untraced for overhead).
TRACED_REQUESTS = 100
LISTEN_TIMEOUT_S = 60.0


class Requests:
    """The seeded request sequence: new specs interleaved with repeats."""

    def __init__(self, seed: int) -> None:
        from repro.adversary import ADVERSARIES

        self.rng = random.Random(f"service-mix:{seed}")
        seeds = [self.rng.randrange(1 << 30) for _ in range(SPEC_SEEDS)]
        self.fresh = [
            (strategy, intensity, spec_seed)
            for strategy in sorted(ADVERSARIES)
            for intensity in INTENSITIES
            for spec_seed in seeds
        ]
        self.rng.shuffle(self.fresh)
        self.seen: list = []
        self.count = 0

    def next(self):
        """``(spec, repeat)`` for the next request: odd requests repeat."""
        from repro.experiments import scale_protection_spec

        self.count += 1
        if self.count % 2 == 0 or not self.fresh:
            return self.rng.choice(self.seen), True
        strategy, intensity, spec_seed = self.fresh.pop()
        spec = scale_protection_spec(
            audience=AUDIENCE,
            attacker_fraction=0.01,
            strategy=strategy,
            intensity=intensity,
            attack_start_s=ONSET_S,
            duration_s=DURATION_S,
        ).with_seed(spec_seed)
        self.seen.append(spec)
        return spec, False


class Daemon:
    """A ``repro serve`` child process on a fresh cache directory."""

    def __init__(self, work: WorkDir, trace_dir: Optional[Path] = None) -> None:
        self.cache_dir = work.fresh("service-cache")
        serve = ["serve", "--jobs", str(JOBS), "--port", "0",
                 "--cache-dir", str(self.cache_dir)]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro"] + serve
        else:
            launcher = Path(__file__).resolve().parent / "daemon.py"
            argv = [sys.executable, str(launcher), str(trace_dir)] + serve
        self.log = open(self.cache_dir.with_suffix(".log"), "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.log,
            env=child_env(work.path), cwd=ROOT,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], LISTEN_TIMEOUT_S)
            line = self.process.stdout.readline() if ready else b""
            self.setup_s = time.perf_counter() - started
            announce = json.loads(line) if line else {}
            if announce.get("event") != "listening":
                raise RuntimeError(f"daemon did not come up (said {line!r})")
        except BaseException:
            self.stop()
            raise
        self.port = announce["port"]

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(host="127.0.0.1", port=self.port, timeout_s=120.0)

    def stop(self) -> None:
        """Drain and reap the daemon (killed if it does not exit in time)."""
        if self.process.poll() is None:
            try:
                self.process.terminate()
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


class Request:
    def __init__(self, spec, repeat: bool) -> None:
        self.spec = spec
        self.repeat = repeat
        self.cached: Optional[bool] = None
        self.document: Optional[dict] = None
        self.error: Optional[str] = None
        self.begin = self.accepted = self.end = 0

    @property
    def wall_s(self) -> float:
        return (self.end - self.begin) / 1e9

    def output(self) -> Optional[str]:
        from repro.experiments import RunResult

        if self.document is None:
            return None
        return RunResult.from_dict(self.document).to_json()


def _submit(client, request: Request) -> None:
    from repro.service import ServiceError

    request.begin = time.perf_counter_ns()
    try:
        for event in client.stream(request.spec):
            kind = event.get("event")
            if kind == "accepted":
                request.accepted = time.perf_counter_ns()
            elif kind == "result":
                request.document = event["result"]
                request.cached = bool(event.get("cached"))
            elif kind == "error":
                request.error = str(event.get("message"))
    except ServiceError as exc:
        request.error = str(exc)
    request.end = time.perf_counter_ns()


def _spare_setup(work: WorkDir) -> float:
    """Spawn-to-``listening`` seconds of a daemon stopped right after."""
    spare = Daemon(work)
    spare.stop()
    return spare.setup_s


def _serve(daemon: Daemon, seed: int, seconds: float, count: Optional[int],
           tracer: Optional[Tracer], setup: Optional[SetupSampler] = None):
    """Run the closed loop; returns the requests and the daemon's status.

    ``setup`` spawns and stops spare daemons between requests.
    """
    requests = Requests(seed)
    done: List[Request] = []
    with daemon.client() as client:
        started = time.perf_counter()
        while (len(done) < count) if count is not None else (
            time.perf_counter() - started < seconds
        ):
            if setup is not None:
                setup.between_units()
            request = Request(*requests.next())
            if tracer is None:
                _submit(client, request)
            else:
                with tracer.span("benchmark.unit"):
                    _submit(client, request)
                if request.accepted:
                    tracer.add_detached("service.admit", request.begin, request.accepted)
            done.append(request)
        status = client.status()
        client.shutdown()
    daemon.process.wait(timeout=60)
    return done, status


def request_problems(request: Request, first: Optional[str]) -> List[str]:
    problems = []
    if request.error is not None:
        return [f"error: {request.error}"]
    output = request.output()
    if output is None:
        return ["no result"]
    if request.cached != request.repeat:
        problems.append(f"served with cached={request.cached}, expected {request.repeat}")
    if first is not None and output != first:
        problems.append("differs from the first delivery of the same spec")
    try:
        document = json.loads(output)
        if (document["scenario"], document["seed"]) != (request.spec.name, request.spec.seed):
            problems.append("names another cell")
    except (ValueError, KeyError) as exc:
        problems.append(f"unreadable result document ({exc!r})")
    return problems


def _check(outcome: Outcome, done: List[Request], status: dict, seed: int,
           label: str) -> None:
    """Every check, outside the timed region; failures feed ``failed``."""
    from repro.experiments import run_spec_json

    first = {}
    for request in done:
        key = request.spec.to_json()
        problems = request_problems(request, first.get(key))
        if problems:
            outcome.fail(f"{label} {request.spec.name} seed {request.spec.seed}: "
                         + "; ".join(problems))
        first.setdefault(key, request.output())
    distinct = [r for r in done if not r.repeat and r.output() is not None]
    rng = random.Random(f"service-mix-sample:{seed}")
    for request in rng.sample(distinct, min(SAMPLED_CHECKS, len(distinct))):
        reference = run_spec_json(request.spec.to_json())
        if reference != request.output():
            outcome.fail(f"{label} {request.spec.name} seed {request.spec.seed}: "
                         "differs from run_spec_json of the same spec")
        tampered = Request(request.spec, request.repeat)
        tampered.cached, tampered.document = request.cached, json.loads(tamper(reference))
        if not request_problems(tampered, reference):
            outcome.fail(f"{label}: the check does not reject a tampered result")
    scheduler, pool = status["scheduler"], status["pool"]
    expected = {
        "cache_hits": sum(r.repeat for r in done),
        "cells_executed": sum(not r.repeat for r in done),
        "cells_failed": 0,
        "dedup_hits": 0,
    }
    observed = {key: scheduler[key] for key in expected}
    observed_pool = {"restarts": pool["restarts"], "retries_used": pool["retries_used"]}
    if observed != expected or observed_pool != {"restarts": 0, "retries_used": 0}:
        outcome.fail(f"{label} determinism: status counters {observed} {observed_pool} "
                     f"!= expected {expected}")
    outcome.attempted += len(done)


def measure(seed: int, seconds: float, work: WorkDir, setup_repeats: int) -> Outcome:
    outcome = Outcome()
    setup = SetupSampler(lambda: _spare_setup(work), seconds, setup_repeats)
    daemon = Daemon(work)
    setup.record(daemon.setup_s)
    try:
        done, status = _serve(daemon, seed, seconds, None, None, setup)
    finally:
        daemon.stop()
    _check(outcome, done, status, seed, "untraced")
    wall = sum(r.wall_s for r in done)
    outcome.metrics.update({
        "setup_s": setup.median(),
        "sim_s_per_wall_s": sum(r.spec.effective_duration_s for r in done) / wall,
        "cells_per_s": len(done) / wall,
    })
    outcome.latency("miss_ms", [r.wall_s * 1e3 for r in done if not r.repeat])
    outcome.latency("hit_ms", [r.wall_s * 1e3 for r in done if r.repeat])
    outcome.notes.append(f"requests: {len(done)} in {wall:.2f}s")
    return outcome


def traced(seed: int, seconds: float, work: WorkDir) -> Outcome:
    outcome = Outcome()
    daemon = Daemon(work)
    try:
        reference, status = _serve(daemon, seed, seconds, TRACED_REQUESTS, None)
    finally:
        daemon.stop()
    _check(outcome, reference, status, seed, "reference")

    trace_dir = work.fresh("service-trace")
    tracer = Tracer(trace_dir)
    undo = install(tracer)
    try:
        daemon = Daemon(work, trace_dir)
        try:
            done, status = _serve(daemon, seed, seconds, TRACED_REQUESTS, tracer)
        finally:
            daemon.stop()
    finally:
        undo()
        tracer.flush()
    _check(outcome, done, status, seed, "traced")
    payloads = load_payloads(trace_dir)
    outcome.metrics.update(summarise(payloads, [(r.begin, r.end) for r in done],
                                     workers=JOBS))
    scheduler, pool = status["scheduler"], status["pool"]
    outcome.metrics.update({
        "service.admit_ms": median([(r.accepted - r.begin) / 1e6 for r in reference
                                    if r.accepted]),
        "service.cache_hits": scheduler["cache_hits"],
        "service.cells_executed": scheduler["cells_executed"],
        "service.pool.restarts": pool["restarts"],
        "service.retries_used": pool["retries_used"],
        "experiments.warmstart.checkpoint_hits": scheduler["checkpoint_hits"],
        "experiments.warmstart.checkpoint_misses": scheduler["checkpoint_misses"],
        "experiments.warmstart.warm_runs": scheduler["warm_runs"],
        "experiments.warmstart.blob_bytes": sum(
            p.stat().st_size for p in daemon.cache_dir.glob("ck_*.pkl")
        ),
        "trace.overhead": sum(r.wall_s for r in done) / sum(r.wall_s for r in reference),
    })
    for drift in counter_drift(payloads):
        outcome.fail(f"determinism: counters drifted on cell {drift}")
    return outcome

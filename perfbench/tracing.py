"""Spans, per-module profiles and exact counters for the traced run.

The benchmark never edits ``src/``: :func:`install` wraps the program's
public calls (and the module attributes its pool workers resolve) with
recorders, and the untraced run never installs them.  Worker processes are
forked after installation, so they inherit the wrappers; each worker appends
its records to ``trace-<pid>.jsonl`` in the trace directory after every job,
and the traced daemon does the same when it exits.

A span is ``(name, start_ns, end_ns, parent, cell, pid, kind)`` on
``time.perf_counter_ns``, the system-wide monotonic clock on Linux, so spans
from the client, the daemon and pool workers share one timeline.  Inside
``Scenario.run`` (and the checkpoint prefix's ``run_to_barrier``) a
``cProfile`` profiler attributes self time to ``repro`` modules; time in
builtins and the standard library is charged to the calling ``repro``
module, following the caller edges ``pstats`` records.
"""

from __future__ import annotations

import cProfile
import functools
import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Module self-time metrics; a module takes the longest matching prefix and
#: every other ``repro`` module lands in ``repro.other.self_s``.
MODULE_METRICS = {
    "simulator.engine": "simulator.engine.self_s",
    "simulator.link": "simulator.link.self_s",
    "simulator.queues": "simulator.queues.self_s",
    "simulator.node": "simulator.node.self_s",
    "simulator.multicast": "simulator.multicast.self_s",
    "simulator.packet": "simulator.packet.self_s",
    "simulator.monitors": "simulator.monitors.self_s",
    "multicast_cc.sender_base": "multicast_cc.sender_base.self_s",
    "multicast_cc.receiver_base": "multicast_cc.receiver_base.self_s",
    "multicast_cc.population": "multicast_cc.population.self_s",
    "transport": "transport.self_s",
    "adversary": "adversary.self_s",
    "core.sigma": "core.sigma.self_s",
    "core.delta": "core.delta.self_s",
    "fec.erasure": "fec.erasure.self_s",
    "crypto": "crypto.self_s",
}
OTHER_MODULES = "repro.other.self_s"
UNATTRIBUTED = "<unattributed>"

#: Exact simulation counters, summed per cell and compared across repeats.
COUNTERS = (
    "simulator.events",
    "simulator.packets_forwarded",
    "simulator.queue_drops",
    "simulator.packet_pool.recycled",
    "simulator.packet_pool.allocated",
    "multicast_cc.packets_sent",
    "core.sigma.submissions",
)


def cell_id(spec_json: str) -> str:
    """The identifier every span of one cell carries."""
    return hashlib.sha256(spec_json.encode()).hexdigest()[:16]


def module_metric(module: str) -> str:
    parts = module.split(".")
    for cut in range(len(parts), 0, -1):
        metric = MODULE_METRICS.get(".".join(parts[:cut]))
        if metric is not None:
            return metric
    return OTHER_MODULES


class Tracer:
    """Per-process span, profile and counter recorder."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        #: The process that installed the wrappers: jobs it runs in-process
        #: keep their records in memory; forked workers flush after each job.
        self.owner = os.getpid()
        self.pid = self.owner
        self._reset()

    def _reset(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.modules: Dict[str, float] = {}
        self.profiled_s = 0.0
        self.counters: List[dict] = []
        self.erasure = [0, 0]
        self.cell: Optional[str] = None

    def adopt(self) -> None:
        """Drop records inherited through ``fork`` in a new worker process."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._reset()

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None,
             kind: str = "") -> Iterator[list]:
        """Record a nested span around the ``with`` body."""
        record = [name, time.perf_counter_ns(), 0,
                  self.stack[-1] if self.stack else -1,
                  cell if cell is not None else self.cell, self.pid, kind]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self.stack.pop()

    def add_detached(self, name: str, start: int, end: int,
                     cell: Optional[str] = None) -> None:
        """A span outside the nesting stack (asyncio tasks interleave)."""
        self.spans.append([name, start, end, -1, cell, self.pid, ""])

    def add_profile(self, profile: cProfile.Profile, duration_s: float) -> None:
        self.profiled_s += duration_s
        for module, seconds in module_times(profile).items():
            self.modules[module] = self.modules.get(module, 0.0) + seconds

    def payload(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "spans": self.spans,
            "modules": self.modules,
            "profiled_s": self.profiled_s,
            "counters": self.counters,
            "erasure": self.erasure,
        }

    def flush(self) -> None:
        """Append this process's records to its trace file and clear them."""
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / f"trace-{self.pid}.jsonl", "a") as handle:
            handle.write(json.dumps(self.payload()) + "\n")
        self._reset()


# ----------------------------------------------------------------------
# per-module attribution
# ----------------------------------------------------------------------
def _repro_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def module_times(profile: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per ``repro`` module (dotted, relative to the package).

    A function outside the package passes its self time to its callers in
    proportion to the time each caller edge accounts for, hop by hop, until
    it reaches ``repro`` code; what cannot reach it is ``<unattributed>``.
    """
    profile.create_stats()
    stats = profile.stats
    root = _repro_root()
    names: Dict[Any, Optional[str]] = {}

    def module_of(func) -> Optional[str]:
        if func not in names:
            filename = func[0]
            names[func] = (
                filename[len(root):-3].replace(os.sep, ".")
                if filename.startswith(root) and filename.endswith(".py")
                else None
            )
        return names[func]

    out: Dict[str, float] = {}

    def charge(func, amount: float, depth: int, first: bool) -> None:
        module = module_of(func)
        if module is not None:
            out[module] = out.get(module, 0.0) + amount
            return
        entry = stats.get(func)
        callers = entry[4] if entry else {}
        weights = {c: e[2 if first else 3] for c, e in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: e[1] for c, e in callers.items()}
            total = sum(weights.values())
        if depth >= 8 or total <= 0:
            out[UNATTRIBUTED] = out.get(UNATTRIBUTED, 0.0) + amount
            return
        for caller, weight in weights.items():
            charge(caller, amount * weight / total, depth + 1, False)

    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt > 0:
            charge(func, tt, 0, True)
    return out


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _erasure_totals() -> Tuple[int, int]:
    """Hits and misses of the erasure coder's coefficient ``lru_cache``s."""
    from repro.fec import erasure

    hits = misses = 0
    for name in ("_parity_rows", "_decode_rows"):
        cache = getattr(erasure, name, None)
        if hasattr(cache, "cache_info"):
            info = cache.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


def scenario_counters(scenario: Any) -> Dict[str, int]:
    network = scenario.network
    pool = network.multicast.packet_pool
    return {
        "simulator.events": network.sim.events_executed,
        "simulator.packets_forwarded": sum(
            node.packets_forwarded + getattr(node, "multicast_packets_forwarded", 0)
            for node in network.nodes.values()
        ),
        "simulator.queue_drops": sum(
            link.queue.stats.dropped_packets for link in network.links
        ),
        "simulator.packet_pool.recycled": pool.recycled,
        "simulator.packet_pool.allocated": pool.allocated,
        "multicast_cc.packets_sent": sum(
            session.sender.packets_sent for session in scenario.sessions
        ),
        "core.sigma.submissions": sum(
            agent.valid_submissions + agent.invalid_submissions
            for agent in scenario.sigma_agents
        ),
    }


def _job_cell(job: Tuple[str, str]) -> Tuple[Optional[str], str]:
    """(cell id, kind) of a ``(kind, payload)`` runner job."""
    from repro.experiments import ScenarioSpec

    kind, payload = job
    if kind == "spec":
        return cell_id(payload), kind
    document = json.loads(payload)
    if kind == "checkpoint":
        prefix = ScenarioSpec.from_dict(document["prefix"]).to_json()
        return "prefix-" + cell_id(prefix), kind
    spec = document.get("spec")
    if spec is None:
        return None, kind
    return cell_id(ScenarioSpec.from_dict(spec).to_json()), kind


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the program's public calls with recorders; returns the undo."""
    from repro.experiments import runner, scenario, warmstart
    from repro.service import client, jobs, pool, server

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, build: Callable[[Any], Any],
              kind: str = "plain") -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        undo.append((owner, attr, raw))
        if kind == "classmethod":
            setattr(owner, attr, classmethod(build(raw.__func__)))
        else:
            setattr(owner, attr, build(raw))

    def spanned(name: str) -> Callable[[Any], Any]:
        def build(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return build

    def detached(name: str) -> Callable[[Any], Any]:
        def build(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                started = time.perf_counter_ns()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.add_detached(name, started, time.perf_counter_ns())
            return wrapper
        return build

    def simulated(phase: str) -> Callable[[Any], Any]:
        def build(original):
            @functools.wraps(original)
            def wrapper(self, *args, **kwargs):
                before = scenario_counters(self)
                erasure_before = _erasure_totals()
                profile = cProfile.Profile()
                with tracer.span("simulation", kind=phase) as record:
                    profile.enable()
                    try:
                        return original(self, *args, **kwargs)
                    finally:
                        profile.disable()
                        after = scenario_counters(self)
                        erasure_after = _erasure_totals()
                        record[2] = time.perf_counter_ns()
                        tracer.add_profile(profile, (record[2] - record[1]) / 1e9)
                        tracer.erasure[0] += erasure_after[0] - erasure_before[0]
                        tracer.erasure[1] += erasure_after[1] - erasure_before[1]
                        tracer.counters.append({
                            "cell": tracer.cell,
                            "phase": phase,
                            "values": {k: after[k] - before[k] for k in after},
                        })
            return wrapper
        return build

    def job_runner(original):
        @functools.wraps(original)
        def wrapper(job):
            tracer.adopt()
            cell, kind = _job_cell(job)
            previous, tracer.cell = tracer.cell, cell
            try:
                with tracer.span("experiments.runner.job", kind=kind):
                    return original(job)
            finally:
                tracer.cell = previous
                if tracer.pid != tracer.owner:
                    tracer.flush()
        return wrapper

    def pooled_run_all(original):
        @functools.wraps(original)
        def wrapper(self, jobs_list):
            if self.jobs > 1 and len(jobs_list) > 1:
                with tracer.span("experiments.runner.pool"):
                    return original(self, jobs_list)
            return original(self, jobs_list)
        return wrapper

    def scheduled(original):
        @functools.wraps(original)
        async def wrapper(self, spec, *args, **kwargs):
            started = time.perf_counter_ns()
            cell = cell_id(spec.to_json())
            tracer.cell = cell
            try:
                return await original(self, spec, *args, **kwargs)
            finally:
                tracer.add_detached("service.scheduler", started,
                                    time.perf_counter_ns(), cell)
        return wrapper

    Scenario = scenario.Scenario
    patch(Scenario, "from_spec", spanned("experiments.scenario.build"), "classmethod")
    patch(Scenario, "run", simulated("run"))
    patch(Scenario, "run_to_barrier", simulated("prefix"))
    patch(runner, "collect_metrics", spanned("experiments.runner.collect"))
    patch(runner.RunResult, "to_json", spanned("experiments.runner.serialise"))
    patch(runner.RunResult, "from_json", spanned("experiments.runner.serialise"),
          "classmethod")
    patch(runner.ResultCache, "load", spanned("experiments.runner.cache_load"))
    patch(runner.ResultCache, "load_key", spanned("experiments.runner.cache_load"))
    patch(runner.ResultCache, "store", spanned("experiments.runner.cache_store"))
    patch(jobs, "plan_cell", spanned("experiments.runner.plan"))
    patch(warmstart, "plan_prefix", spanned("experiments.runner.plan"))
    patch(warmstart.CheckpointStore, "load", spanned("experiments.warmstart.restore"))
    patch(runner.JobExecutor, "run_all", pooled_run_all)
    # One wrapper object for both bindings: pool workers unpickle it by its
    # qualified name, ``repro.experiments.runner.run_job``.
    traced_job = job_runner(runner.run_job)
    patch(runner, "run_job", lambda _original: traced_job)
    patch(pool, "run_job", lambda _original: traced_job)
    patch(pool.AsyncJobPool, "run", detached("experiments.runner.pool"))
    patch(jobs.ExperimentScheduler, "run_cell", scheduled)
    for module in (server, client):
        patch(module, "encode_message", spanned("service.protocol"))
        patch(module, "decode_line", spanned("service.protocol"))

    def restore() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def load_payloads(directory: Path) -> List[Dict[str, Any]]:
    payloads = []
    for path in sorted(Path(directory).glob("trace-*.jsonl")):
        with open(path) as handle:
            payloads.extend(json.loads(line) for line in handle if line.strip())
    return payloads


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    total = 0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def summarise(payloads: List[Dict[str, Any]], roots: List[Tuple[int, int]],
              workers: int) -> Dict[str, float]:
    """Per-layer metrics and coverage from every process's records.

    ``roots`` are the benchmark's unit windows; span coverage is the share
    of their total length that some recorded layer span (from any process)
    covers, module coverage the share of profiled simulation time that the
    profiler attributed to a ``repro`` module.
    """
    self_s: Dict[str, float] = {}
    pool_windows: List[Tuple[int, int]] = []
    job_s = 0.0
    checkpoint_s = 0.0
    layer_intervals: List[Tuple[int, int]] = []
    modules: Dict[str, float] = {}
    profiled = 0.0
    erasure = [0, 0]
    totals = {name: 0 for name in COUNTERS}
    pooling = {payload["pid"] for payload in payloads
               if any(span[0] == "experiments.runner.pool" for span in payload["spans"])}
    for payload in payloads:
        spans = payload["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _cell, _pid, _kind in spans:
            if parent >= 0 and spans[parent][0] != "benchmark.unit":
                child_ns[parent] += end - start
        for index, (name, start, end, parent, _cell, _pid, kind) in enumerate(spans):
            if name == "benchmark.unit":
                continue
            layer_intervals.append((start, end))
            own = (end - start - child_ns[index]) / 1e9
            self_s[name] = self_s.get(name, 0.0) + own
            if name == "experiments.runner.pool":
                pool_windows.append((start, end))
            elif name == "experiments.runner.job":
                if payload["pid"] not in pooling:
                    job_s += (end - start) / 1e9
                if kind == "checkpoint":
                    checkpoint_s += (end - start) / 1e9
        for module, seconds in payload["modules"].items():
            modules[module] = modules.get(module, 0.0) + seconds
        profiled += payload["profiled_s"]
        erasure[0] += payload["erasure"][0]
        erasure[1] += payload["erasure"][1]
        for entry in payload["counters"]:
            for name, value in entry["values"].items():
                totals[name] += value

    covered = 0
    for start, stop in roots:
        clipped = [(max(a, start), min(b, stop)) for a, b in layer_intervals
                   if a < stop and b > start]
        covered += _union_ns(clipped)
    root_ns = sum(stop - start for start, stop in roots)
    pool_wall = _union_ns(pool_windows) / 1e9

    metrics: Dict[str, float] = {name: 0.0 for name in MODULE_METRICS.values()}
    metrics[OTHER_MODULES] = 0.0
    attributed = 0.0
    for module, seconds in modules.items():
        if module == UNATTRIBUTED:
            continue
        attributed += seconds
        key = module_metric(module)
        metrics[key] += seconds
    allocated = totals["simulator.packet_pool.allocated"]
    recycled = totals["simulator.packet_pool.recycled"]
    metrics.update({
        "simulator.events": totals["simulator.events"],
        "simulator.packets_forwarded": totals["simulator.packets_forwarded"],
        "simulator.queue_drops": totals["simulator.queue_drops"],
        "simulator.packet_pool.recycle_ratio": (
            recycled / (recycled + allocated) if recycled + allocated else 0.0
        ),
        "multicast_cc.packets_sent": totals["multicast_cc.packets_sent"],
        "core.sigma.submissions": totals["core.sigma.submissions"],
        "fec.erasure.coeff_hit_ratio": (
            erasure[0] / (erasure[0] + erasure[1]) if sum(erasure) else 0.0
        ),
        "experiments.scenario.build_s": self_s.get("experiments.scenario.build", 0.0),
        "experiments.runner.plan_s": self_s.get("experiments.runner.plan", 0.0),
        "experiments.runner.collect_s": self_s.get("experiments.runner.collect", 0.0),
        "experiments.runner.serialise_s": self_s.get("experiments.runner.serialise", 0.0),
        "experiments.runner.cache_store_s": self_s.get("experiments.runner.cache_store", 0.0),
        "experiments.runner.cache_load_s": self_s.get("experiments.runner.cache_load", 0.0),
        "experiments.runner.pool_wall_s": pool_wall,
        "experiments.runner.pool_efficiency": (
            job_s / (workers * pool_wall) if pool_wall > 0 else 0.0
        ),
        "experiments.warmstart.checkpoint_build_s": checkpoint_s,
        "experiments.warmstart.restore_s": self_s.get("experiments.warmstart.restore", 0.0),
        "service.protocol_s": self_s.get("service.protocol", 0.0),
        "trace.span_coverage": covered / root_ns if root_ns else 0.0,
        "trace.module_coverage": attributed / profiled if profiled else 0.0,
        "trace.simulation_s": profiled,
    })
    return metrics


def counter_drift(payloads: List[Dict[str, Any]]) -> List[str]:
    """Cells whose repeated simulations disagree on any exact counter."""
    seen: Dict[Tuple[str, str], List[Dict[str, int]]] = {}
    for payload in payloads:
        for entry in payload["counters"]:
            if entry["cell"] is None:
                continue
            seen.setdefault((entry["cell"], entry["phase"]), []).append(entry["values"])
    return [
        f"{cell} ({phase})"
        for (cell, phase), values in sorted(seen.items())
        if any(value != values[0] for value in values[1:])
    ]

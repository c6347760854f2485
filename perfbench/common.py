"""Shared plumbing for the benchmark: paths, environment, statistics.

Everything the benchmark writes lives under ``.perfbench/`` in the checkout
it runs from: a per-run work directory (caches, daemon stores, trace files,
``TMPDIR`` for every child process), removed when the run ends, and the
saved result records under ``.perfbench/results/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
RESULTS = STATE / "results"

#: A percentile is only trusted when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def child_env(workdir: Path) -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` on the
    path and temporary files kept inside the run's work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(workdir)
    return env


class WorkDir:
    """The run's private scratch directory inside the checkout."""

    def __init__(self, label: str) -> None:
        self.path = STATE / "work" / f"{label}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._count = 0

    def fresh(self, prefix: str) -> Path:
        """A new empty subdirectory (one per cache, daemon store, ...)."""
        self._count += 1
        path = self.path / f"{prefix}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over every ``src/repro`` source file: names the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> Dict[str, Any]:
    """What a result depends on besides the code.

    ``comparable`` holds the keys two results must share before their
    numbers may be compared; ``commit`` and ``source_digest`` name the code
    and are expected to differ between the two sides of an A/B.
    """
    import multiprocessing

    from repro.multicast_cc.population import active_backend

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "comparable": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy_version,
            "population_backend": active_backend(),
            "start_method": multiprocessing.get_start_method(),
            "machine": platform.machine(),
        },
        "commit": _commit(),
        "source_digest": _source_digest(),
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_ok(count: int, q: float) -> bool:
    """True when at least :data:`MIN_TAIL_SAMPLES` samples lie beyond ``q``."""
    return count * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child tree."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def time_interpreter(argv: List[str], env: Dict[str, str]) -> float:
    """Wall seconds of one fresh interpreter running ``argv``.

    ``wait()`` without a timeout blocks in ``waitpid``; with one, Python
    polls in sleeps of up to 50 ms, which would quantise the sample.  A
    timer kills a child that hangs instead.
    """
    started = time.perf_counter()
    child = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(120.0, child.kill)
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"set-up interpreter exited with {code}")
    return elapsed


class SetupSampler:
    """``setup_s`` samples spread through the run, not bunched at its start.

    A shared VM's speed can drift over seconds (see README.md), so
    back-to-back set-ups would all land in whatever regime the run began in.  A workload calls
    :meth:`between_units` between its timed units; a set-up runs there once
    every ``seconds / repeats``, and :meth:`median` tops the samples up to
    ``repeats`` at the end.
    """

    def __init__(self, setup: Callable[[], float], seconds: float, repeats: int) -> None:
        self.setup = setup
        self.every_s = seconds / repeats
        self.repeats = repeats
        self.samples: List[float] = []
        self.last: Optional[float] = None

    def record(self, seconds: float) -> None:
        """Count a set-up the workload timed itself."""
        self.samples.append(seconds)
        self.last = time.perf_counter()

    def between_units(self) -> None:
        if len(self.samples) < self.repeats and (
            self.last is None or time.perf_counter() - self.last >= self.every_s
        ):
            self.record(self.setup())

    def median(self) -> float:
        while len(self.samples) < self.repeats:
            self.samples.append(self.setup())
        return median(self.samples)


def save_record(record: Dict[str, Any]) -> Path:
    """Write a full result record under ``.perfbench/results``."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
        f"-{stamp}-{os.getpid()}.json"
    )
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


class Outcome:
    """What one workload run produced: counts, problems, metrics, notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []

    def fail(self, problem: str) -> None:
        """Record one failed operation and its reason."""
        self.failed += 1
        self.problems.append(problem)

    def latency(self, prefix: str, samples_ms: Sequence[float]) -> None:
        """``<prefix>.p50``/``.p90`` with the sample count noted."""
        for q in (50, 90):
            self.metrics[f"{prefix}.p{q}"] = percentile(samples_ms, q)
            if not tail_ok(len(samples_ms), q):
                self.notes.append(
                    f"{prefix}.p{q}: only {len(samples_ms)} samples, fewer than "
                    f"{MIN_TAIL_SAMPLES} beyond the percentile"
                )
        self.notes.append(f"{prefix}: {len(samples_ms)} samples")


def tamper(output: str) -> str:
    """``output`` with one digit of its metrics block changed."""
    start = output.find('"metrics"')
    for index in range(max(start, 0), len(output)):
        if output[index].isdigit():
            digit = str((int(output[index]) + 1) % 10)
            return output[:index] + digit + output[index + 1:]
    raise ValueError("result document holds no digit to tamper with")

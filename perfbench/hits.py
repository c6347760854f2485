"""Cached re-reads timed by a second process while a workload simulates.

    python3 perfbench/hits.py CACHE_DIR SPECS_FILE

:class:`HitSampler` starts this script beside a workload whose own process
is busy simulating for seconds at a time.  Every :data:`PERIOD_S` the child
re-reads one cached cell listed in ``SPECS_FILE`` (round robin, through a
fresh ``ExperimentRunner.run_one``, as a cached re-run does) and times it.
The hits then sample the whole run instead of the few gaps between cold
cells; on a machine whose speed drifts, that keeps their median steady.
When its standard input closes, the child prints one JSON document: the
latencies and a SHA-256 of every document it served.
"""

from __future__ import annotations

import hashlib
import json
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import ROOT, WorkDir, child_env

#: Pause between re-reads: about 1% of a CPU the workload leaves idle.
PERIOD_S = 0.02


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


class HitSampler:
    """The parent's handle on a running ``hits.py`` child."""

    def __init__(self, work: WorkDir, cache_dir: Path) -> None:
        self.specs_path = work.fresh("hits") / "specs.jsonl"
        self.specs_path.touch()
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cache_dir),
             str(self.specs_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(work.path), cwd=ROOT,
        )

    def publish(self, spec_json: str) -> None:
        """Offer a cell whose document is already in the cache."""
        with open(self.specs_path, "a") as handle:
            handle.write(spec_json + "\n")

    def stop(self) -> Dict[str, object]:
        """End the child and return its latencies and served digests."""
        try:
            out, _ = self.process.communicate(b"", timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise RuntimeError("the hit sampler did not stop") from None
        if self.process.returncode != 0:
            raise RuntimeError(f"the hit sampler failed ({self.process.returncode})")
        return json.loads(out)


def main() -> int:
    from repro.experiments import ExperimentRunner, ScenarioSpec

    cache_dir, specs_path = Path(sys.argv[1]), Path(sys.argv[2])
    specs: List[ScenarioSpec] = []
    offset = 0
    latencies: List[float] = []
    served: Dict[str, str] = {}
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.buffer.read1(1):
            break
        with open(specs_path, "rb") as handle:
            handle.seek(offset)
            complete = handle.read().rpartition(b"\n")[0]
        if complete:
            offset += len(complete) + 1
            specs.extend(ScenarioSpec.from_json(line.decode())
                         for line in complete.split(b"\n"))
        if not specs:
            continue
        spec = specs[len(latencies) % len(specs)]
        begin = time.perf_counter_ns()
        result = ExperimentRunner(cache_dir=cache_dir).run_one(spec)
        latencies.append((time.perf_counter_ns() - begin) / 1e9)
        served[spec.to_json()] = digest(result.to_json())
    print(json.dumps({"latencies_s": latencies, "served": served}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

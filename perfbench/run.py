"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figure-duel --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload's fixed traced work under the span and
profile wrappers of ``tracing.py`` and prints the per-layer metrics.  The
metric names and units come from ``BENCHMARK.json``.  Human-readable lines
(environment, sample counts, failed checks) come first; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 when every output check passed, 1 when one
failed and 2 when the program could not be run at all.  The full record,
environment included, is saved under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

from common import ROOT, SRC, WorkDir, environment, peak_rss_mb, save_record

#: ``setup_s`` is the median of this many set-ups spread through the run.
SETUP_REPEATS = 5
#: Layer spans and module self times must explain this share of traced wall.
COVERAGE_GATE = 0.95


def _workloads():
    import figure_duel
    import service_mix
    import sweep_grid

    return {
        "figure-duel": figure_duel,
        "sweep-grid": sweep_grid,
        "service-mix": service_mix,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figure-duel", "sweep-grid", "service-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(SRC))
        import repro
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot load the program or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = WorkDir(args.workload)
    os.environ["TMPDIR"] = str(work.path)
    tempfile.tempdir = None
    try:
        env = environment()
        module = _workloads()[args.workload]
        if args.trace:
            outcome = module.traced(args.seed, args.seconds, work)
            for gate in ("trace.span_coverage", "trace.module_coverage"):
                if outcome.metrics[gate] < COVERAGE_GATE:
                    outcome.fail(f"{gate} {outcome.metrics[gate]:.3f} < {COVERAGE_GATE}")
        else:
            outcome = module.measure(args.seed, args.seconds, work, SETUP_REPEATS)
            outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        work.close()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in outcome.metrics:
            value = outcome.metrics[name]
        elif args.trace:
            value = 0.0  # a layer this workload bypasses did no work
        else:
            print(f"error: workload produced no {name}", file=sys.stderr)
            return 2
        metrics[name] = {"value": value, "unit": entry["unit"]}
    correct = outcome.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "problems": outcome.problems,
        "notes": outcome.notes,
        "metrics": metrics,
    }
    path = save_record(record)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for note in outcome.notes:
        print(f"note: {note}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    print(f"failed_frac: {record['failed_frac']} ({outcome.failed}/{outcome.attempted})")
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']} {entry['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

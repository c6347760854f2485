"""Compare two sets of saved benchmark records (parent vs change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds records that ``run.py`` saved under
``.perfbench/results/``.  The comparison is refused (exit 2) unless every
record on both sides was measured in the same environment: CPU count,
Python, numpy, population backend, multiprocessing start method and
machine.  For each workload and end-to-end metric it prints each side's
median and quartile spread, how many seed-matched pairs the change won, and
a verdict against the bound in ``BENCHMARK.json``: ``regression`` when the
change's median is worse by more than the bound, ``unresolved`` when the
parent's own spread is wider than the bound, otherwise ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from common import ROOT


def load(directory: str) -> List[dict]:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in records if r.get("trace") == 0]


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    if not parent or not change:
        print("error: both sides need untraced records", file=sys.stderr)
        return 2
    environments = {json.dumps(r["environment"]["comparable"], sort_keys=True)
                    for r in parent + change}
    if len(environments) > 1:
        print("error: refusing to compare records from different environments:",
              file=sys.stderr)
        for environment in sorted(environments):
            print(f"  {environment}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressions = 0
    for workload in sorted({r["workload"] for r in parent + change}):
        sides = [[r for r in side if r["workload"] == workload] for side in (parent, change)]
        failed = [sum(r["failed"] for r in side) for side in sides]
        print(f"{workload}: runs {len(sides[0])} vs {len(sides[1])}, "
              f"failed ops {failed[0]} vs {failed[1]}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            values: List[Dict[int, float]] = [
                {r["seed"]: r["metrics"][name]["value"] for r in side if name in r["metrics"]}
                for side in sides
            ]
            if not values[0] or not values[1]:
                continue
            base = statistics.median(values[0].values())
            new = statistics.median(values[1].values())
            worse = (new - base) / base if lower else (base - new) / base
            seeds = sorted(set(values[0]) & set(values[1]))
            wins = sum((values[1][s] < values[0][s]) if lower else (values[1][s] > values[0][s])
                       for s in seeds)
            if worse > bound:
                verdict = "regression"
                regressions += 1
            elif spread(list(values[0].values())) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:18s} {base:12.6g} -> {new:12.6g} {metric['unit']:5s} "
                  f"worse {worse:+.3f} (bound {bound}) spread "
                  f"{spread(list(values[0].values())):.3f}/{spread(list(values[1].values())):.3f} "
                  f"wins {wins}/{len(seeds)} {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

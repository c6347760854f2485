"""Population helpers shared by the aggregated receiver realisations.

A ``model="cohort"`` or ``model="vector"`` population block splits its
members into cohort rows with :func:`split_counts`; the aggregated receivers
of :mod:`~repro.multicast_cc.cohort` carry those rows.
"""

from __future__ import annotations

import importlib.util
from typing import List

__all__ = ["active_backend", "split_counts"]


def active_backend() -> str:
    """``"numpy"`` when numpy is importable, else ``"fallback"``.

    The simulator never imports numpy; benchmark records keep this probe in
    the environment two compared runs must share.
    """
    return "numpy" if importlib.util.find_spec("numpy") is not None else "fallback"


def split_counts(count: int, cohorts: int) -> List[int]:
    """Split ``count`` members into ``cohorts`` as-even integer chunks.

    The first ``count % cohorts`` chunks get the extra member, so the split
    is deterministic and order-stable — the same declaration always yields
    the same rows (a determinism-contract requirement for booking order).
    """
    if cohorts < 1 or count < cohorts:
        raise ValueError(f"cannot split {count} members into {cohorts} cohorts")
    base, extra = divmod(count, cohorts)
    return [base + 1 if index < extra else base for index in range(cohorts)]

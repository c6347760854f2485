"""Common-prefix planning and checkpoint storage for warm-started grids.

Every paper sweep re-simulates an identical warm-up prefix in each grid
cell: the honest audience runs unperturbed from ``t=0`` until the cell's
attack schedule starts.  This module amortises that prefix across cells.

* :func:`plan_prefix` — the **canonicalizer**.  Given one cell's spec it
  finds the last slot barrier at (or before) the earliest attack onset and
  rewrites every field that is provably inert before that barrier — attack
  strategies/intensities/params, the scenario name, the duration, series
  recording, and churn processes that have not acted yet — into fixed
  placeholders.  Cells whose canonical prefix specs are byte-equal share
  the same pre-attack dynamics, so one checkpoint serves them all.  A field
  that is *active* before the barrier (a churn burst inside the prefix, an
  attack with an early onset) is left in place, which splits the key: such
  cells are never prefix-shared.
* :class:`CheckpointStore` — content-addressed pickle blobs next to the
  runner's result cache (``ck_<sha256>.pkl``), published atomically via a
  uniquely named tmp sibling + :func:`os.replace`; torn, corrupt or
  version-mismatched blobs read as misses, never as state.
* :func:`run_checkpoint_json` / :func:`run_warm_json` — module-level worker
  entry points (string-typed, pool-picklable) mirroring
  :func:`~repro.experiments.runner.run_spec_json`: the first builds and
  publishes a prefix checkpoint, the second restores one, rebinds the
  cell's real declarations (:meth:`Scenario.rebind_spec`) and runs to the
  end.  A warm run is byte-identical to a cold run — the golden warm-start
  suite asserts it for every golden scenario and ``verify=True`` re-checks
  it at runtime.

Why byte-identity holds: the barrier cut is *exclusive*
(:meth:`Scenario.run_to_barrier`), so events scheduled at exactly the
barrier fire after restore in their original order; strategy RNG streams
are named by (session, host, attack index, strategy) and a zero-draw
stream equals a freshly seeded one, so rebinding rebuilds them exactly;
and placeholder attacks/churn never act before the barrier by
construction.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..adversary.spec import AttackSpec
from ..multicast_cc.churn import ChurnProcess
from .scenario import CHECKPOINT_VERSION, Scenario
from .spec import CohortDecl, ScenarioSpec, SessionDecl

__all__ = [
    "PrefixPlan",
    "plan_prefix",
    "CheckpointStore",
    "checkpoint_payload",
    "run_checkpoint_json",
    "run_warm_json",
    "warm_payload",
]

#: Placeholder name for every canonical prefix spec — the scenario name
#: never reaches the simulation (hosts are named from session ids), so
#: cells that differ only in their label share a prefix.
PREFIX_NAME = "warm-prefix"

#: Placeholder strategy mounted while the prefix runs.  ``inflated-join``
#: is registered for every protocol variant and batch-exact on cohorts, and
#: with ``start_s`` at the barrier it never acts inside the prefix — it
#: only pins the receiver's adversarial class and attack context, which the
#: real strategies take over at rebind.
PLACEHOLDER_STRATEGY = "inflated-join"


def _canonical_attack(attack: AttackSpec, barrier_s: float) -> AttackSpec:
    """The placeholder standing in for ``attack`` before the barrier.

    ``receivers`` is preserved — it decides which receivers realise as
    adversarial objects at construction time; everything the sweep varies
    (strategy, onset, stop, intensity, params) collapses to fixed values.
    """
    return AttackSpec(
        PLACEHOLDER_STRATEGY, receivers=attack.receivers, start_s=barrier_s
    )


def _churn_inert_before(churn: ChurnProcess, start_s: float, barrier_s: float) -> bool:
    """True when ``churn`` provably changes nothing before the barrier."""
    if churn.arrival_rate > 0 or churn.departure_rate > 0:
        return False
    return all(start_s + elapsed_s >= barrier_s for elapsed_s, _delta in churn.burst)


def _canonical_cohort(cohort: CohortDecl, barrier_s: float) -> CohortDecl:
    changes: Dict[str, Any] = {}
    if cohort.attack is not None:
        changes["attack"] = _canonical_attack(cohort.attack, barrier_s)
    if cohort.churn is not None and _churn_inert_before(
        cohort.churn, cohort.start_s, barrier_s
    ):
        changes["churn"] = ChurnProcess()
    return replace(cohort, **changes) if changes else cohort


def _canonical_session(decl: SessionDecl, barrier_s: float) -> SessionDecl:
    return replace(
        decl,
        attacks=tuple(_canonical_attack(a, barrier_s) for a in decl.attacks),
        attack_start_s=barrier_s if decl.misbehaving else 0.0,
        population=tuple(_canonical_cohort(c, barrier_s) for c in decl.population),
    )


@dataclass(frozen=True)
class PrefixPlan:
    """A cell's shareable prefix: the canonical spec and its slot barrier."""

    barrier_s: float
    spec: ScenarioSpec

    def checkpoint_key(self) -> str:
        """Content address of this prefix's checkpoint blob.

        Mixes the runner cache's version tag (package + schema versions),
        the checkpoint layout version and the barrier into the hash, on top
        of the canonical prefix JSON — so a blob is only ever restored by
        the same code layout and barrier that wrote it.
        """
        from .runner import _cache_version_tag

        material = (
            f"{_cache_version_tag()}warmstart:{CHECKPOINT_VERSION}:"
            f"{self.barrier_s!r}:{self.spec.to_json()}"
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()


def plan_prefix(spec: ScenarioSpec) -> Optional[PrefixPlan]:
    """The shareable prefix of ``spec``, or ``None`` when there is none.

    The barrier is the last slot boundary at or before the earliest attack
    onset (slot duration per the spec's protocol variant).  ``None`` when
    the spec declares no attacks, when the onset leaves less than one full
    slot of shared prefix, or when the barrier would not land strictly
    inside the run.
    """
    onsets = [
        onset
        for decl in spec.sessions
        for onset in [decl.attack_onset_s()]
        if onset is not None
    ]
    if not onsets:
        return None
    duration = spec.effective_duration_s
    config = spec.config
    slot_s = config.flid_ds_slot_s if spec.protected else config.flid_dl_slot_s
    divergence = min(min(onsets), duration)
    slots = int(divergence / slot_s + 1e-9)
    barrier_s = slots * slot_s
    if slots < 1 or barrier_s >= duration:
        return None
    prefix = replace(
        spec,
        name=PREFIX_NAME,
        duration_s=barrier_s,
        record_series=False,
        sessions=tuple(_canonical_session(d, barrier_s) for d in spec.sessions),
    )
    return PrefixPlan(barrier_s=barrier_s, spec=prefix)


# ----------------------------------------------------------------------
# checkpoint storage
# ----------------------------------------------------------------------
class CheckpointStore:
    """Content-addressed prefix checkpoints in one directory.

    Blob files are named ``ck_<key>.pkl`` so they live alongside the
    runner's ``<key>.json`` result entries without colliding.  Publication
    is atomic (:func:`~repro.experiments.runner.atomic_write`) and every read
    validates the checkpoint version — a torn or stale blob is a miss.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def path(self, key: str) -> Path:
        """The blob path for ``key``."""
        return self.directory / f"ck_{key}.pkl"

    def exists(self, key: str) -> bool:
        """True when a blob is published under ``key`` (not validated)."""
        return self.path(key).exists()

    def load(self, key: str) -> Optional[Scenario]:
        """Restore the checkpointed scenario for ``key``, or ``None``."""
        path = self.path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            return Scenario.restore(blob)
        except (ValueError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError):
            return None

    def save(self, key: str, scenario: Scenario) -> None:
        """Atomically publish ``scenario``'s checkpoint under ``key``."""
        from .runner import atomic_write

        atomic_write(self.path(key), scenario.checkpoint())


def _build_prefix(
    prefix: ScenarioSpec, barrier_s: float, membership_log: bool
) -> Scenario:
    """Realise a canonical prefix spec and run it up to (excluding) the barrier."""
    scenario = Scenario.from_spec(prefix)
    if membership_log:
        # Region runs record boundary events from t=0; the log must be
        # attached before the prefix runs so it survives inside the blob.
        events: List[Any] = []
        scenario.network.multicast.membership_log = events
    scenario.run_to_barrier(barrier_s)
    return scenario


def _ensure_checkpoint(
    store: CheckpointStore,
    key: str,
    prefix: ScenarioSpec,
    barrier_s: float,
    membership_log: bool,
) -> tuple:
    """(scenario at the barrier, whether an existing blob was reused)."""
    scenario = store.load(key)
    if (
        scenario is not None
        and membership_log
        and scenario.network.multicast.membership_log is None
    ):
        # A blob written without the boundary log cannot serve a region
        # run — events before the barrier would be lost from the merge.
        scenario = None
    if scenario is not None:
        return scenario, True
    scenario = _build_prefix(prefix, barrier_s, membership_log)
    store.save(key, scenario)
    return scenario, False


# ----------------------------------------------------------------------
# worker payloads
# ----------------------------------------------------------------------
def checkpoint_payload(
    key: str,
    prefix_dict: Dict[str, Any],
    barrier_s: float,
    directory: str,
    membership_log: bool = False,
) -> str:
    """The canonical ``("checkpoint", …)`` job payload building one blob.

    One builder shared by the batch runner and the service daemon, so both
    schedule byte-identical jobs onto :func:`run_checkpoint_json`.
    """
    return json.dumps(
        {
            "prefix": prefix_dict,
            "barrier_s": barrier_s,
            "dir": directory,
            "key": key,
            "membership_log": membership_log,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def warm_payload(
    spec_dict: Dict[str, Any],
    prefix_dict: Dict[str, Any],
    barrier_s: float,
    directory: str,
    key: str,
    verify: bool = False,
) -> str:
    """The canonical ``("warm", …)`` job payload resuming one cell.

    One builder shared by the batch runner and the service daemon, so both
    schedule byte-identical jobs onto :func:`run_warm_json`.
    """
    return json.dumps(
        {
            "spec": spec_dict,
            "prefix": prefix_dict,
            "barrier_s": barrier_s,
            "dir": directory,
            "key": key,
            "verify": verify,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


# ----------------------------------------------------------------------
# worker entry points
# ----------------------------------------------------------------------
def run_checkpoint_json(payload_json: str) -> str:
    """Worker entry point: build (or find) one prefix checkpoint.

    Payload: ``{"prefix": spec dict, "barrier_s": float, "dir": str,
    "key": str, "membership_log": bool}``.  Returns a small JSON document
    reporting whether an already-published blob was reused.
    """
    payload = json.loads(payload_json)
    store = CheckpointStore(Path(payload["dir"]))
    key = payload["key"]
    _scenario, reused = _ensure_checkpoint(
        store,
        key,
        ScenarioSpec.from_dict(payload["prefix"]),
        payload["barrier_s"],
        payload.get("membership_log", False),
    )
    return json.dumps({"key": key, "reused": reused})


def run_warm_json(payload_json: str) -> str:
    """Worker entry point: warm-start one grid cell from its prefix.

    Payload: ``{"spec": real spec dict, "prefix": canonical spec dict,
    "barrier_s": float, "dir": str, "key": str, "verify": bool}``.  The
    checkpoint is restored (rebuilt in place on a miss — a concurrently
    pruned or torn blob degrades to a cold prefix, never an error), the
    real declarations are rebound, and the run completes normally.  With
    ``verify`` the cell is also run cold and the result documents must be
    byte-identical — the runtime spot-check behind ``--verify-warm-start``.
    """
    from .runner import RunResult, collect_metrics, execute_spec

    payload = json.loads(payload_json)
    spec = ScenarioSpec.from_dict(payload["spec"])
    prefix = ScenarioSpec.from_dict(payload["prefix"])
    store = CheckpointStore(Path(payload["dir"]))
    scenario, _reused = _ensure_checkpoint(
        store, payload["key"], prefix, payload["barrier_s"], membership_log=False
    )
    scenario.rebind_spec(spec)
    duration = spec.effective_duration_s
    scenario.run(duration)
    result = RunResult(
        scenario=spec.name,
        seed=spec.seed,
        protected=spec.protected,
        duration_s=duration,
        metrics=collect_metrics(scenario, spec),
    )
    output = result.to_json()
    if payload.get("verify"):
        cold = execute_spec(spec).to_json()
        if cold != output:
            raise RuntimeError(
                f"warm-start divergence on {spec.name!r} (seed {spec.seed}): "
                "the warm result does not byte-match the cold run"
            )
    return output

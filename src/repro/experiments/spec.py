"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serialisable description of one §5-style
experiment: which topology to build (by name, from the simulator's topology
registry), which multicast sessions to run (protocol variant, receiver
placement, misbehaviour schedules), which TCP/CBR cross traffic to add, and
the shared :class:`~repro.experiments.config.ExperimentConfig` knobs.

Specs are plain frozen dataclasses with a canonical JSON form, so they can be

* interpreted by :meth:`repro.experiments.scenario.Scenario.from_spec`,
* shipped to worker processes by the parallel
  :class:`~repro.experiments.runner.ExperimentRunner`,
* hashed for result caching, and
* registered under a name in :mod:`repro.experiments.registry`.

The canonical JSON of a spec plus the seed inside its config fully determine
an experiment's output bit-for-bit (the engine and the multicast forwarding
plane are deterministic), which the property tests assert.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..adversary.spec import AttackSpec
from ..multicast_cc.churn import ChurnProcess
from .config import PAPER_DEFAULTS, ExperimentConfig

__all__ = ["CohortDecl", "SessionDecl", "TcpDecl", "CbrDecl", "ScenarioSpec"]


@dataclass(frozen=True)
class CohortDecl:
    """``count`` homogeneous honest receivers added to a session's population.

    ``model`` selects how the scenario interpreter realises them:

    * ``"cohort"`` (default) — one aggregated
      :mod:`~repro.multicast_cc.cohort` receiver whose per-slot cost is
      amortised over the population (sessions scale to 100k+ receivers);
    * ``"individual"`` — ``count`` ordinary per-object receivers, the
      reference realisation the equivalence tests and the scale benchmark
      compare against;
    * ``"vector"`` — the same aggregated receiver, one per edge router:
      the block's cohorts become member rows of the receiver at their edge
      instead of one object per cohort (sessions scale past 1M receivers).

    ``cohorts`` splits the block's ``count`` members into that many
    homogeneous cohorts (as even as possible; ``None`` means one).  With
    ``model="cohort"`` each becomes its own one-row receiver object — the
    reference path the scale benchmark measures against — while
    ``model="vector"`` packs them as rows of per-edge receivers.

    ``router`` optionally pins the cohort to a named edge router (default:
    the topology's round-robin receiver placement — for ``"vector"`` the
    cohorts are spread round-robin *across* the receiver edge routers);
    ``start_s`` is the members' shared join time.

    ``attack`` makes the block an **adversarial cohort**: every member
    mounts the declared strategy (the whole registry batches exactly —
    :data:`~repro.adversary.spec.COHORT_BATCHED_STRATEGIES`; the attack's
    ``receivers`` indices are ignored, the block itself is the target).
    ``churn`` drives the member count by a deterministic
    :class:`~repro.multicast_cc.churn.ChurnProcess` (flash crowds, gradual
    arrival/departure); churn requires the aggregated ``"cohort"`` model.
    Any *other* heterogeneity — staggered joins, randomised attacks —
    belongs in individual receivers or in *separate* cohorts, never inside
    one cohort (see ``docs/scale.md`` for when aggregation is exact).
    """

    count: int
    router: Optional[str] = None
    start_s: float = 0.0
    model: str = "cohort"
    attack: Optional[AttackSpec] = None
    churn: Optional[ChurnProcess] = None
    cohorts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("a cohort needs at least one receiver")
        if self.model not in ("cohort", "individual", "vector"):
            raise ValueError(f"unknown receiver model {self.model!r}")
        if self.cohorts is not None:
            if self.cohorts < 1:
                raise ValueError("cohorts must be >= 1 when given")
            if self.cohorts > self.count:
                raise ValueError(
                    f"cannot split {self.count} members into {self.cohorts} "
                    "cohorts (each cohort needs at least one member)"
                )
            if self.model == "individual":
                raise ValueError(
                    "cohorts only applies to aggregated models; individual "
                    "receivers are already one object per member"
                )
        # Every declarable strategy batches exactly over a cohort: AttackSpec
        # itself rejects registered strategies without decision rules
        # (BATCHED_DECISION_RULES), so no per-model gate is needed here.
        if self.churn is not None and (
            self.model != "cohort" or (self.cohorts or 1) != 1
        ):
            raise ValueError(
                "population churn needs a single aggregated cohort "
                "(individual receivers cannot arrive or depart dynamically, "
                "and a churn process drives exactly one cohort's membership)"
            )
        if self.churn is not None and self.attack is not None:
            # A churned attacker population would book attack counters with
            # a stale member count (the attack context weight is fixed at
            # admission); churn composes with attacks from *outside* the
            # cohort instead — see docs/scale.md.
            raise ValueError(
                "a cohort cannot both churn and attack; declare the churned "
                "honest audience and the attacker population as separate blocks"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CohortDecl":
        """Rebuild a cohort declaration from its plain-data form."""
        attack = payload.get("attack")
        churn = payload.get("churn")
        return cls(
            count=payload["count"],
            router=payload.get("router"),
            start_s=payload.get("start_s", 0.0),
            model=payload.get("model", "cohort"),
            attack=AttackSpec.from_dict(attack) if attack is not None else None,
            churn=ChurnProcess.from_dict(churn) if churn is not None else None,
            cohorts=payload.get("cohorts"),
        )


@dataclass(frozen=True)
class SessionDecl:
    """One multicast session of a scenario.

    ``attacks`` declares the misbehaviour: each
    :class:`~repro.adversary.spec.AttackSpec` names a registered strategy,
    its parameters and schedule, and the (0-based) receiver indices mounting
    it — several attacks may stack on one receiver.  The historical shorthand
    remains: ``misbehaving`` lists receiver indices that mount the paper's
    default inflated-subscription attack from ``attack_start_s`` (translated
    by the scenario interpreter into the protocol-appropriate strategy
    stack).  ``receiver_routers`` optionally pins each receiver to a named
    router of the topology; ``None`` entries (or omitting the field) fall
    back to the topology's round-robin receiver placement.

    ``population`` appends :class:`CohortDecl` blocks *after* the
    ``receivers`` individual ones.  ``attacks`` entries can only target
    individual receiver indices (``0 .. receivers-1``); a population block
    becomes adversarial by carrying its own :class:`CohortDecl.attack`
    (batch-exact strategies only), which is the paper's threat model taken
    to scale — bounded attacker cohorts against large honest audiences.  A
    session declaring a population may set ``receivers=0``.
    """

    session_id: str
    receivers: int = 1
    misbehaving: Tuple[int, ...] = ()
    attack_start_s: float = 0.0
    attacks: Tuple[AttackSpec, ...] = ()
    receiver_start_times: Optional[Tuple[float, ...]] = None
    receiver_access_delays: Optional[Tuple[Optional[float], ...]] = None
    receiver_routers: Optional[Tuple[Optional[str], ...]] = None
    track_overhead: bool = False
    suppress_unsubscribed_groups: bool = True
    population: Tuple[CohortDecl, ...] = ()

    def __post_init__(self) -> None:
        if self.receivers < 0:
            raise ValueError("receivers cannot be negative")
        if self.receivers < 1 and not self.population:
            raise ValueError("a session needs at least one receiver")
        for index in self.misbehaving:
            if not 0 <= index < self.receivers:
                raise ValueError(f"misbehaving index {index} out of range")
        for attack in self.attacks:
            for index in attack.receivers:
                if not 0 <= index < self.receivers:
                    raise ValueError(
                        f"attack {attack.strategy!r} targets receiver {index}, "
                        f"out of range for {self.receivers} receivers"
                    )
        for name, values in (
            ("receiver_start_times", self.receiver_start_times),
            ("receiver_access_delays", self.receiver_access_delays),
            ("receiver_routers", self.receiver_routers),
        ):
            if values is not None and len(values) != self.receivers:
                raise ValueError(f"{name} must have one entry per receiver")

    # ------------------------------------------------------------------
    def attacker_indices(self) -> Tuple[int, ...]:
        """Sorted *individual* receiver indices mounting any attack."""
        indices = set(self.misbehaving)
        for attack in self.attacks:
            indices.update(attack.receivers)
        return tuple(sorted(indices))

    def adversarial_blocks(self) -> Tuple[int, ...]:
        """Indices (into ``population``) of blocks that carry an attack."""
        return tuple(
            index for index, block in enumerate(self.population)
            if block.attack is not None
        )

    def attack_onset_s(self) -> Optional[float]:
        """Earliest scheduled attack start, or ``None`` without attackers."""
        onsets = [attack.start_s for attack in self.attacks]
        if self.misbehaving:
            onsets.append(self.attack_start_s)
        onsets.extend(
            block.attack.start_s for block in self.population
            if block.attack is not None
        )
        return min(onsets) if onsets else None

    def total_population(self) -> int:
        """End systems the session stands for: individuals plus cohorts."""
        return self.receivers + sum(cohort.count for cohort in self.population)


@dataclass(frozen=True)
class TcpDecl:
    """One TCP Reno connection crossing the topology."""

    name: str
    start_s: float = 0.0
    sender_router: Optional[str] = None
    receiver_router: Optional[str] = None


@dataclass(frozen=True)
class CbrDecl:
    """One on-off CBR source crossing the topology."""

    name: str = "cbr"
    rate_bps: float = 100_000.0
    on_s: float = 5.0
    off_s: float = 5.0
    active_window: Optional[Tuple[float, float]] = None
    sender_router: Optional[str] = None
    receiver_router: Optional[str] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one experiment run.

    ``topology`` names a factory in :data:`repro.simulator.topology.TOPOLOGIES`
    and ``topology_params`` are its keyword arguments.  For the default
    ``dumbbell`` kind with no explicit parameters, the bottleneck is sized from
    the config's fair share times ``expected_sessions`` (or ``bottleneck_bps``
    when given), exactly as the imperative builder always did.

    ``shards`` opts the spec into region-sharded execution: the runner
    partitions the topology's annotated regions into ``shards`` standalone
    sub-scenarios, runs them (serially or on the process pool) and merges the
    results deterministically (:mod:`repro.experiments.shard`).  It must
    match the topology's region count and is omitted from the canonical JSON
    when unset, so every pre-sharding spec hash and golden digest stays
    byte-identical.
    """

    name: str
    protected: bool
    sessions: Tuple[SessionDecl, ...] = ()
    tcp: Tuple[TcpDecl, ...] = ()
    cbr: Tuple[CbrDecl, ...] = ()
    topology: str = "dumbbell"
    topology_params: Mapping[str, Any] = field(default_factory=dict)
    expected_sessions: int = 1
    bottleneck_bps: Optional[float] = None
    duration_s: Optional[float] = None
    record_series: bool = False
    shards: Optional[int] = None
    config: ExperimentConfig = PAPER_DEFAULTS

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 2:
            raise ValueError(
                "shards must be >= 2 when set (omit it for unsharded execution)"
            )

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    @property
    def effective_duration_s(self) -> float:
        """The run duration: the spec override or the config default."""
        return self.config.duration_s if self.duration_s is None else self.duration_s

    @property
    def seed(self) -> int:
        """The RNG seed carried inside the spec's config."""
        return self.config.seed

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------
    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy of this spec whose config carries ``seed``."""
        return replace(self, config=self.config.with_seed(seed))

    def with_duration(self, duration_s: float) -> "ScenarioSpec":
        """A copy of this spec with an overridden run duration."""
        return replace(self, duration_s=duration_s)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form: nested dataclasses become dicts, tuples lists.

        A session's ``population`` key is omitted when empty — and a cohort
        block's ``attack``/``churn``/``cohorts`` keys, and the spec-level
        ``shards`` key, are omitted when unset — so that the canonical JSON
        (and therefore every golden digest and cache key) of a spec
        predating each field is byte-identical to what it always was.
        """
        payload = asdict(self)
        payload["topology_params"] = dict(self.topology_params)
        if payload.get("shards") is None:
            payload.pop("shards", None)
        for session in payload["sessions"]:
            if not session.get("population"):
                session.pop("population", None)
                continue
            for block in session["population"]:
                if block.get("attack") is None:
                    block.pop("attack", None)
                if block.get("churn") is None:
                    block.pop("churn", None)
                if block.get("cohorts") is None:
                    block.pop("cohorts", None)
        return payload

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — stable for hashing."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (inverse mapping)."""
        def _tuple(value, convert=lambda x: x):
            return None if value is None else tuple(convert(v) for v in value)

        sessions = tuple(
            SessionDecl(
                session_id=s["session_id"],
                receivers=s.get("receivers", 1),
                misbehaving=tuple(s.get("misbehaving", ())),
                attack_start_s=s.get("attack_start_s", 0.0),
                attacks=tuple(
                    AttackSpec.from_dict(a) for a in s.get("attacks", ())
                ),
                receiver_start_times=_tuple(s.get("receiver_start_times")),
                receiver_access_delays=_tuple(s.get("receiver_access_delays")),
                receiver_routers=_tuple(s.get("receiver_routers")),
                track_overhead=s.get("track_overhead", False),
                suppress_unsubscribed_groups=s.get("suppress_unsubscribed_groups", True),
                population=tuple(
                    CohortDecl.from_dict(c) for c in s.get("population", ())
                ),
            )
            for s in payload.get("sessions", ())
        )
        tcp = tuple(
            TcpDecl(
                name=t["name"],
                start_s=t.get("start_s", 0.0),
                sender_router=t.get("sender_router"),
                receiver_router=t.get("receiver_router"),
            )
            for t in payload.get("tcp", ())
        )
        cbr = tuple(
            CbrDecl(
                name=c.get("name", "cbr"),
                rate_bps=c.get("rate_bps", 100_000.0),
                on_s=c.get("on_s", 5.0),
                off_s=c.get("off_s", 5.0),
                active_window=_tuple(c.get("active_window")),
                sender_router=c.get("sender_router"),
                receiver_router=c.get("receiver_router"),
            )
            for c in payload.get("cbr", ())
        )
        config = ExperimentConfig(**payload.get("config", {}))
        return cls(
            name=payload["name"],
            protected=payload["protected"],
            sessions=sessions,
            tcp=tcp,
            cbr=cbr,
            topology=payload.get("topology", "dumbbell"),
            topology_params=dict(payload.get("topology_params", {})),
            expected_sessions=payload.get("expected_sessions", 1),
            bottleneck_bps=payload.get("bottleneck_bps"),
            duration_s=payload.get("duration_s"),
            record_series=payload.get("record_series", False),
            shards=payload.get("shards"),
            config=config,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from its canonical JSON form."""
        return cls.from_dict(json.loads(text))

"""Serialisable attack declarations.

An :class:`AttackSpec` names a strategy from the adversary registry, gives it
parameters and an intensity knob, schedules it (onset and optional end), and
lists which receivers of the enclosing session mount it.  Several specs may
target the same receiver — their strategies then *compose* on that host, in
declaration order.

The spec is plain data with a canonical dict form, so it serialises inside a
:class:`~repro.experiments.spec.ScenarioSpec` (whose canonical JSON is the
experiment cache key) and survives the round trip to process-pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["AttackSpec", "BATCHED_DECISION_RULES", "COHORT_BATCHED_STRATEGIES"]

#: Strategy name -> the pure decision rules in
#: :mod:`repro.multicast_cc.decision` that its per-slot action reduces to.
#: Listing a strategy here is the *batching contract*: its live class must be
#: a thin shim over exactly these scalar rules, every rule must be gated by
#: the exhaustive small-model harness (``tests/properties/exhaustive.py``
#: enumerates every input tuple below a bound and checks the rule against an
#: independent reference model), and cohort-vs-individual exactness at N=3
#: must hold.  A strategy registered *without* an entry is rejected at
#: :class:`AttackSpec` declaration time — extend this mapping (and the
#: harness) before shipping a new strategy.
BATCHED_DECISION_RULES: Dict[str, Tuple[str, ...]] = {
    "inflated-join": ("attack_target_level",),
    "ignore-congestion": ("mask_congestion",),
    "churn": ("churn_phase", "decide_churn"),
    "key-replay": ("attack_rate", "replay_volley"),
    "key-guessing": ("attack_rate", "guess_volley"),
    "join-storm": ("attack_rate", "decide_join_storm"),
    "collusion": ("collusion_volley",),
}

#: Strategies that batch *exactly* over an adversarial cohort (one aggregated
#: attacker object == N individuals, asserted by the equivalence tests and
#: the exhaustive harness).  Since PR 8 this is the whole registry: formerly
#: randomised strategies draw their per-slot randomness *once per cohort*
#: from the named seeded stream, and collusion pools accept member-weighted
#: contributions — see ``docs/threat-model.md`` for the per-strategy account.
COHORT_BATCHED_STRATEGIES = frozenset(BATCHED_DECISION_RULES)


@dataclass(frozen=True)
class AttackSpec:
    """One scheduled attack: strategy + params + schedule + target receivers.

    ``intensity`` is a dimensionless scale factor every strategy interprets
    against its own knobs (guesses per slot, churn frequency, storm width…),
    so experiment grids can sweep attacker aggressiveness uniformly across
    strategy types.  ``stop_s`` of ``None`` means the attack runs to the end
    of the experiment.
    """

    strategy: str
    receivers: Tuple[int, ...] = (0,)
    start_s: float = 0.0
    stop_s: Optional[float] = None
    intensity: float = 1.0
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.strategy:
            raise ValueError("an attack needs a strategy name")
        if self.strategy not in BATCHED_DECISION_RULES:
            # Unknown names stay a build-time KeyError (the registry may not
            # be populated yet); a *registered* strategy missing its batching
            # contract is a declaration-time error.
            from .registry import ADVERSARIES

            if self.strategy in ADVERSARIES:
                raise ValueError(
                    f"strategy {self.strategy!r} is registered but has no "
                    f"decision rules: add its scalar rules to "
                    f"repro.multicast_cc.decision, list them in "
                    f"BATCHED_DECISION_RULES (repro.adversary.spec), and gate "
                    f"them in the exhaustive harness "
                    f"(tests/properties/exhaustive.py)"
                )
        if not self.receivers:
            raise ValueError("an attack needs at least one target receiver")
        if any(index < 0 for index in self.receivers):
            raise ValueError("receiver indices must be non-negative")
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")
        if self.stop_s is not None and self.stop_s < self.start_s:
            raise ValueError("stop_s must not precede start_s")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "receivers": list(self.receivers),
            "start_s": self.start_s,
            "stop_s": self.stop_s,
            "intensity": self.intensity,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AttackSpec":
        return cls(
            strategy=payload["strategy"],
            receivers=tuple(payload.get("receivers", (0,))),
            start_s=payload.get("start_s", 0.0),
            stop_s=payload.get("stop_s"),
            intensity=payload.get("intensity", 1.0),
            params=dict(payload.get("params", {})),
        )

"""Pure FLID subscription-decision functions.

The per-slot subscription logic of both protocol variants, and the per-slot
action of every attack strategy, is a *pure* function of what the receiver
observed during the slot — no simulator state, no I/O.  Every receiver model
applies the same scalar rule once per receiver object per slot:

* the per-object receivers (:class:`~repro.multicast_cc.flid_dl.FlidDlReceiver`,
  :class:`~repro.multicast_cc.flid_ds.FlidDsReceiver`) — the paper reference;
* the aggregated :mod:`~repro.multicast_cc.cohort` receivers, whose member
  rows all sit at one subscription level, so one evaluation speaks for every
  member — per-slot cost O(receiver objects), not O(members).

The exhaustive small-model harness (``tests/properties/exhaustive.py``)
checks every rule against an independent reference implementation, and the
cohort equivalence tests check that aggregation never changes a trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

__all__ = [
    "DlDecision",
    "ChurnAction",
    "decide_dl",
    "attack_target_level",
    "attack_rate",
    "forbidden_groups",
    "mask_congestion",
    "churn_phase",
    "decide_churn",
    "replay_volley",
    "guess_volley",
    "decide_join_storm",
    "collusion_volley",
]


@dataclass(frozen=True)
class DlDecision:
    """Outcome of the FLID-DL subscription rules for one evaluated slot.

    ``leave_group`` / ``join_group`` name the (1-based) group whose IGMP
    membership must change; ``deaf_slots`` is how many slots past the
    evaluated one congestion signals should be ignored (the prune-latency
    deafness a decrease triggers).
    """

    next_level: int
    leave_group: Optional[int] = None
    join_group: Optional[int] = None
    deaf_slots: int = 0


def decide_dl(
    level: int,
    congested: bool,
    upgrade_authorized: Sequence[int],
    group_count: int,
) -> DlDecision:
    """Apply the three FLID-DL rules to one receiver's slot observation.

    * congested and above the minimal group → drop the top group (and stay
      deaf through the next slot while the prune takes effect);
    * loss-free with an authorised upgrade → join the next group;
    * otherwise → hold.
    """
    if congested:
        if level > 1:
            return DlDecision(
                next_level=level - 1, leave_group=level, deaf_slots=1
            )
        return DlDecision(next_level=level)
    upgrade_target = level + 1
    if upgrade_target <= group_count and upgrade_target in upgrade_authorized:
        return DlDecision(next_level=upgrade_target, join_group=upgrade_target)
    return DlDecision(next_level=level)


# ----------------------------------------------------------------------
# attack decisions (the pure per-slot actions of the adversary strategies)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnAction:
    """Membership changes one churn-attack phase transition demands.

    ``join_groups`` / ``leave_groups`` list the (1-based) groups whose IGMP
    membership must change, in submission order; ``session_rejoin`` asks for
    a key-less SIGMA session-join (the grace-window vector of §3.2.2).
    """

    join_groups: Tuple[int, ...] = ()
    leave_groups: Tuple[int, ...] = ()
    session_rejoin: bool = False


def attack_target_level(intensity: float, group_count: int) -> int:
    """The subscription level an inflated-join attacker aims for.

    ``intensity`` scales against the session's group count (1.0 = everything)
    and the result is clamped into the valid ``1 .. group_count`` range.
    """
    target = round(intensity * group_count)
    return max(1, min(group_count, target))


def mask_congestion(congested: bool, mode: str = "mask") -> bool:
    """The congestion verdict an ignore-congestion attacker lets through.

    ``mode="mask"`` rewrites every verdict to "no congestion" (the attacker's
    honest pipeline then acts on a lie); any other mode passes the verdict
    unchanged (the *hold* variant suppresses the decision instead).
    """
    if mode == "mask":
        return False
    return congested


def churn_phase(elapsed_s: float, period_s: float, duty: float) -> bool:
    """True while a churn attacker's flapping cycle is in its *high* phase.

    ``elapsed_s`` is time since attack onset; the cycle spends ``duty``
    (clamped to [0, 1]) of every ``period_s`` (floored to one millisecond)
    in the high phase.
    """
    period_s = max(1e-3, period_s)
    duty = min(1.0, max(0.0, duty))
    return (elapsed_s % period_s) < duty * period_s


def decide_churn(
    phase_high: bool,
    was_high: bool,
    entitled_level: int,
    group_count: int,
    joined: Sequence[int] = (),
) -> ChurnAction:
    """Membership changes for one churn-attack phase evaluation (§3.2.2).

    A rising edge joins every group and re-runs the key-less session-join; a
    falling edge abandons the previously joined groups above the attacker's
    legitimate entitlement (sorted, as the strategy submits them); inside a
    phase nothing changes.
    """
    if phase_high and not was_high:
        return ChurnAction(
            join_groups=tuple(range(1, group_count + 1)), session_rejoin=True
        )
    if not phase_high and was_high:
        return ChurnAction(
            leave_groups=tuple(
                group for group in sorted(joined) if group > entitled_level
            )
        )
    return ChurnAction()


def attack_rate(per_slot: float, intensity: float) -> int:
    """Per-slot action count of a rate-scaled attack knob.

    Every volume knob (replays per group, guesses per slot, storm bursts)
    scales by the attack's ``intensity`` and is floored at one action — an
    active attacker always acts.  Shared by the replay, guessing and
    join-storm rules so intensity sweeps mean the same thing everywhere.
    """
    return max(1, round(per_slot * intensity))


def forbidden_groups(entitled_level: int, group_count: int) -> Tuple[int, ...]:
    """The (1-based) groups above a receiver's legitimate entitlement.

    The target set of every key-oriented attack: a receiver entitled to
    ``entitled_level`` may not hold groups ``entitled_level + 1 ..
    group_count``.  Fully entitled receivers have no forbidden groups.
    """
    return tuple(range(entitled_level + 1, group_count + 1))


def replay_volley(
    candidates: Sequence[int],
    entitled_level: int,
    group_count: int,
    per_group: int,
) -> Tuple[Tuple[int, int], ...]:
    """The (group, key) submissions of one key-replay slot (§4.1).

    For every forbidden group the attacker replays the ``per_group``
    freshest stashed keys (``candidates`` is the stash flattened newest
    first), in group-major order.  Pure counterpart of
    :class:`~repro.adversary.strategies.KeyReplayStrategy`'s volley;
    no randomness — the stash is a deterministic function of the honest
    pipeline's reconstructions.
    """
    replayed = tuple(candidates[:per_group])
    return tuple(
        (group, key)
        for group in forbidden_groups(entitled_level, group_count)
        for key in replayed
    )


def guess_volley(
    entitled_level: int,
    group_count: int,
    guesses: int,
    draws: Sequence[int],
) -> Tuple[Tuple[int, int], ...]:
    """The (group, key) submissions of one key-guessing slot (§4.2).

    ``draws`` is the slot's random-key budget, drawn *once per receiver
    object* (so once per cohort) from the strategy's seeded stream and
    consumed positionally: draw ``i`` is submitted for forbidden group
    ``i // guesses`` — the group-major order the strategy draws in.  Raises
    when the budget can't cover ``guesses`` per forbidden group; surplus
    draws are ignored.
    """
    targets = forbidden_groups(entitled_level, group_count)
    needed = len(targets) * guesses
    if len(draws) < needed:
        raise ValueError(
            f"guess volley needs {needed} draws "
            f"({len(targets)} forbidden groups x {guesses} guesses), got {len(draws)}"
        )
    return tuple(
        (targets[index // guesses], int(draws[index])) for index in range(needed)
    )


def decide_join_storm(bursts: int, group_count: int) -> Tuple[int, ...]:
    """The IGMP join sequence of one join-storm slot.

    ``bursts`` repetitions of a full group sweep, in ascending group order —
    exactly ``bursts`` calls of the context's ``igmp_join_all``.  Stateless
    and randomness-free; a SIGMA edge ignores every report.
    """
    return tuple(range(1, group_count + 1)) * bursts


def collusion_volley(
    pooled: Mapping[int, int],
    entitled_level: int,
    group_count: int,
) -> Tuple[Tuple[int, int], ...]:
    """The (group, key) submissions of one collusion slot (§4.3).

    For every forbidden group that some colluder published a key for, submit
    the pooled key, in ascending group order.  Pure counterpart of
    :class:`~repro.adversary.strategies.CollusionStrategy`'s exploit pass;
    the pool state is the only input — no randomness.
    """
    return tuple(
        (group, pooled[group])
        for group in forbidden_groups(entitled_level, group_count)
        if group in pooled
    )

"""Exhaustive small-model harness for every pure decision rule.

Commuter-style verification: instead of *sampling* inputs (the Hypothesis
approach this harness replaced), each model enumerates the **entire** cross
product of its rule's inputs below explicit small bounds — every (level,
congestion, upgrade-set, phase, key-state, rng-draw) tuple — and asserts the
scalar rule equals an independent reference re-implementation (the "small
model") at every point.

The scalar rules are the only form there is: individual receivers run them
once each, aggregated cohort receivers once for every member row (all rows
share one level), so a rule that matches its model here is exact for every
receiver realisation — the cohort/vector equivalence tests check that the
aggregation itself adds nothing.

The registry gate: :data:`repro.adversary.spec.BATCHED_DECISION_RULES` maps
every registered strategy to its decision rules, and
``tests/properties/test_exhaustive.py`` asserts each of those rules is
covered by a model in :data:`RULE_MODELS`.  Adding a strategy without
extending this harness fails the gate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Tuple

from repro.adversary.spec import BATCHED_DECISION_RULES
from repro.multicast_cc.decision import (
    ChurnAction,
    DlDecision,
    attack_rate,
    attack_target_level,
    churn_phase,
    collusion_volley,
    decide_churn,
    decide_dl,
    decide_join_storm,
    forbidden_groups,
    guess_volley,
    mask_congestion,
    replay_volley,
)

# ----------------------------------------------------------------------
# small-model bounds: the full cross product below these is enumerated
# ----------------------------------------------------------------------
#: Session size of the small model (groups 1..3).
GROUP_COUNT = 3
#: Subscription/entitlement levels (0 = not yet admitted).
LEVELS = tuple(range(GROUP_COUNT + 1))
#: The two-valued rng-draw alphabet of the key-guessing model.
DRAW_ALPHABET = (0, 1)
#: Distinct sentinel key values for stash / pool states.
KEYS = (5, 9)
#: Exact-in-binary rate grid for intensity-scaled knobs (eighths, 0.125..4).
RATE_GRID = tuple(k / 8.0 for k in range(1, 33))


# ----------------------------------------------------------------------
# independent reference re-implementations (the "small models")
# ----------------------------------------------------------------------
def model_forbidden(entitled: int, group_count: int) -> Tuple[int, ...]:
    return tuple(g for g in range(1, group_count + 1) if g > entitled)


def model_dl(level, congested, upgrades, group_count) -> DlDecision:
    if congested:
        if level > 1:
            return DlDecision(next_level=level - 1, leave_group=level, deaf_slots=1)
        return DlDecision(next_level=level)
    target = level + 1
    if target <= group_count and target in upgrades:
        return DlDecision(next_level=target, join_group=target)
    return DlDecision(next_level=level)


def model_churn(phase, was, entitled, group_count, joined) -> ChurnAction:
    if phase and not was:
        return ChurnAction(
            join_groups=tuple(range(1, group_count + 1)), session_rejoin=True
        )
    if was and not phase:
        return ChurnAction(
            leave_groups=tuple(g for g in sorted(joined) if g > entitled)
        )
    return ChurnAction()


def model_replay(candidates, entitled, group_count, per_group):
    out = []
    for group in model_forbidden(entitled, group_count):
        for key in list(candidates)[:per_group]:
            out.append((group, key))
    return tuple(out)


def model_guess(entitled, group_count, guesses, draws):
    out, cursor = [], 0
    for group in model_forbidden(entitled, group_count):
        for _ in range(guesses):
            out.append((group, draws[cursor]))
            cursor += 1
    return tuple(out)


def model_storm(bursts, group_count):
    out = []
    for _ in range(bursts):
        out.extend(range(1, group_count + 1))
    return tuple(out)


def model_collusion(pooled, entitled, group_count):
    return tuple(
        (group, pooled[group])
        for group in model_forbidden(entitled, group_count)
        if group in pooled
    )


# ----------------------------------------------------------------------
# per-rule exhaustive checks (each returns the number of cases enumerated)
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# per-rule exhaustive checks (each returns the number of cases enumerated)
# ----------------------------------------------------------------------
def _upgrade_subsets():
    pool = tuple(range(1, GROUP_COUNT + 2))
    for size in range(len(pool) + 1):
        yield from map(frozenset, itertools.combinations(pool, size))


def check_dl() -> int:
    """FLID-DL: every (level, congestion, upgrade-set, group count) tuple."""
    cases = 0
    for group_count in range(1, GROUP_COUNT + 1):
        for congested, upgrades in itertools.product((False, True), _upgrade_subsets()):
            for level in range(0, group_count + 1):
                assert decide_dl(level, congested, upgrades, group_count) == model_dl(
                    level, congested, upgrades, group_count
                )
                cases += 1
    return cases


def check_forbidden() -> int:
    """forbidden_groups vs model, including over-entitled receivers."""
    cases = 0
    for group_count in range(0, GROUP_COUNT + 1):
        for entitled in range(0, group_count + 2):
            assert forbidden_groups(entitled, group_count) == model_forbidden(
                entitled, group_count
            )
            cases += 1
    return cases


def check_attack_rate() -> int:
    """attack_rate over the full exact-in-binary rate x intensity grid."""
    cases = 0
    for per_slot, intensity in itertools.product(RATE_GRID, RATE_GRID):
        rate = attack_rate(per_slot, intensity)
        assert rate == max(1, round(per_slot * intensity))
        assert rate >= 1
        cases += 1
    return cases


def check_inflated_join() -> int:
    """Inflated join: the target is always a valid subscription level."""
    cases = 0
    for intensity in RATE_GRID:
        for group_count in range(1, GROUP_COUNT + 2):
            target = attack_target_level(intensity, group_count)
            assert target == max(1, min(group_count, round(intensity * group_count)))
            assert 1 <= target <= group_count
            cases += 1
    return cases


def check_mask_congestion() -> int:
    """The full (verdict, mode) table of the ignore-congestion rule."""
    cases = 0
    for congested in (False, True):
        assert mask_congestion(congested, "mask") is False
        assert mask_congestion(congested, "hold") == congested
        assert mask_congestion(congested, "anything-else") == congested
        cases += 3
    return cases


def check_churn() -> int:
    """Churn: phase grid vs model, every (phase, was, entitlement, joined)."""
    cases = 0
    elapsed_grid = tuple(k / 4.0 for k in range(0, 9))
    periods = (0.5, 1.0, 2.0)
    duties = (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0)
    for elapsed, period, duty in itertools.product(elapsed_grid, periods, duties):
        clamped = min(1.0, max(0.0, duty))
        assert churn_phase(elapsed, period, duty) == (
            (elapsed % period) < clamped * period
        )
        cases += 1
    joined_sets = [
        tuple(sorted(s))
        for size in range(GROUP_COUNT + 1)
        for s in itertools.combinations(range(1, GROUP_COUNT + 1), size)
    ]
    for phase, was, entitled in itertools.product(
        (False, True), (False, True), LEVELS
    ):
        for joined in joined_sets:
            action = decide_churn(phase, was, entitled, GROUP_COUNT, joined)
            assert action == model_churn(phase, was, entitled, GROUP_COUNT, joined)
            cases += 1
    return cases


def _stashes():
    for depth in range(0, len(KEYS) + 1):
        yield from itertools.product(KEYS, repeat=depth)


def check_replay() -> int:
    """Key replay: every (stash, entitlement, rate) tuple."""
    cases = 0
    for candidates, per_group in itertools.product(_stashes(), (1, 2, 3)):
        for level in LEVELS:
            assert replay_volley(
                candidates, level, GROUP_COUNT, per_group
            ) == model_replay(candidates, level, GROUP_COUNT, per_group)
            cases += 1
    return cases


def check_guess() -> int:
    """Key guessing: every (entitlement, rate, draw-sequence) tuple.

    One shared draw budget per slot, consumed positionally from the front —
    for **every** draw sequence over the alphabet.  Surplus draws are
    ignored; undersized budgets must raise.
    """
    cases = 0
    for guesses in (1, 2):
        for entitled in LEVELS:
            needed = len(model_forbidden(entitled, GROUP_COUNT)) * guesses
            for draws in itertools.product(DRAW_ALPHABET, repeat=needed):
                volley = guess_volley(entitled, GROUP_COUNT, guesses, draws)
                assert volley == model_guess(entitled, GROUP_COUNT, guesses, draws)
                assert (
                    guess_volley(entitled, GROUP_COUNT, guesses, draws + (1,))
                    == volley
                )
                cases += 2
            if needed:
                try:
                    guess_volley(
                        entitled, GROUP_COUNT, guesses, (0,) * (needed - 1)
                    )
                except ValueError:
                    cases += 1
                else:
                    raise AssertionError(
                        "undersized draw budget must raise ValueError"
                    )
    return cases


def check_storm() -> int:
    """Join storm: every (burst count, group count) pair."""
    cases = 0
    for bursts in (1, 2, 3):
        for group_count in range(1, GROUP_COUNT + 1):
            assert decide_join_storm(bursts, group_count) == model_storm(
                bursts, group_count
            )
            cases += 1
    return cases


def _pools():
    """Every pool state: each group absent or holding either sentinel key."""
    for choices in itertools.product(
        (None,) + KEYS, repeat=GROUP_COUNT
    ):
        yield {
            group: key
            for group, key in zip(range(1, GROUP_COUNT + 1), choices)
            if key is not None
        }


def check_collusion() -> int:
    """Collusion: every (pool state, entitlement) tuple."""
    cases = 0
    for pooled in _pools():
        for level in LEVELS:
            assert collusion_volley(pooled, level, GROUP_COUNT) == model_collusion(
                pooled, level, GROUP_COUNT
            )
            cases += 1
    return cases


# ----------------------------------------------------------------------
# the model registry and its completeness accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuleModel:
    """One exhaustive model: the rules it gates and the check that runs it."""

    name: str
    rules: Tuple[str, ...]
    check: Callable[[], int]
    min_cases: int


#: Every exhaustive model, honest core rules and the full attack registry.
RULE_MODELS: Tuple[RuleModel, ...] = (
    RuleModel("core:flid-dl", ("decide_dl",), check_dl, 288),
    RuleModel("core:forbidden", ("forbidden_groups",), check_forbidden, 14),
    RuleModel("core:attack-rate", ("attack_rate",), check_attack_rate, 1_024),
    RuleModel("inflated-join", ("attack_target_level",), check_inflated_join, 128),
    RuleModel("ignore-congestion", ("mask_congestion",), check_mask_congestion, 6),
    RuleModel("churn", ("churn_phase", "decide_churn"), check_churn, 290),
    RuleModel("key-replay", ("replay_volley",), check_replay, 84),
    RuleModel("key-guessing", ("guess_volley",), check_guess, 206),
    RuleModel("join-storm", ("decide_join_storm",), check_storm, 9),
    RuleModel("collusion", ("collusion_volley",), check_collusion, 108),
)


def covered_rules() -> FrozenSet[str]:
    """Every decision-rule name some exhaustive model gates."""
    return frozenset(rule for model in RULE_MODELS for rule in model.rules)


def missing_rules() -> Dict[str, Tuple[str, ...]]:
    """Strategy -> declared rules no exhaustive model covers (must be empty)."""
    covered = covered_rules()
    out: Dict[str, Tuple[str, ...]] = {}
    for strategy, rules in sorted(BATCHED_DECISION_RULES.items()):
        gap = tuple(rule for rule in rules if rule not in covered)
        if gap:
            out[strategy] = gap
    return out

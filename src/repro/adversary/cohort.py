"""Adversarial cohorts: batched attackers behind one edge interface.

The paper's robustness claim is *population-relative*: however large the
honest audience grows, a bounded set of misbehaving receivers gains at most
its grace-window allowance.  Exercising that claim at 100k-receiver scale
needs the attackers themselves to aggregate, so these classes extend the
cohort receivers of :mod:`repro.multicast_cc.cohort` with the strategy
dispatch of :mod:`repro.adversary.receivers`:

* the honest pipeline underneath stays the cohort one (one scalar decision
  per slot for every member row);
* the mounted strategies act once per slot through a capability-scoped
  :class:`~repro.adversary.context.AttackContext` whose ``member_count``
  equals the cohort population, so every attack counter, IGMP report weight
  and SIGMA ``member_count`` stamp books the attack **per member**;
* only *batch-exact* strategies are allowed
  (:data:`~repro.adversary.spec.COHORT_BATCHED_STRATEGIES` — the whole
  registry): every strategy's per-slot action reduces to a pure scalar rule
  in :mod:`repro.multicast_cc.decision`
  (:data:`~repro.adversary.spec.BATCHED_DECISION_RULES` names the pairing),
  with per-cohort randomness drawn once per slot from the strategy's named
  seeded stream and collusion pools taking member-weighted contributions —
  see ``docs/threat-model.md`` for the per-strategy account.

``model="cohort"`` realises one adversarial receiver per attacker cohort,
``model="vector"`` one per edge router carrying that edge's attacker rows.
``tests/experiments/test_adversarial_cohort_equivalence.py`` and
``tests/experiments/test_vector_equivalence.py`` assert the contract
exactly: N aggregated attackers produce the same level trajectories,
per-member goodput and SIGMA/IGMP/attack counters as N individual attackers
mounting the same spec.
"""

from __future__ import annotations

from typing import Sequence

from ..multicast_cc.cohort import CohortFlidDlReceiver, CohortFlidDsReceiver
from ..multicast_cc.session import SessionSpec
from ..simulator.node import Host
from ..simulator.topology import Network
from .receivers import _AdversaryMixin
from .spec import COHORT_BATCHED_STRATEGIES
from .strategy import AttackStrategy

__all__ = [
    "AdversarialCohortFlidDlReceiver",
    "AdversarialCohortFlidDsReceiver",
]


class _CohortAdversaryMixin(_AdversaryMixin):
    """Strategy dispatch over a cohort's honest pipeline."""

    def attach_churn(self, process) -> None:
        """Adversarial cohorts cannot churn (enforced here, not just in specs).

        The attack context's member weight is fixed at admission, so a
        churned attacker population would book stale counters; declare the
        churned honest audience and the attacker cohort as separate blocks.
        """
        raise ValueError(
            "adversarial cohorts cannot churn: the attack context's member "
            "weight is fixed at admission — declare the churned honest "
            "audience and the attacker population as separate blocks"
        )

    def _init_adversary(self, strategies: Sequence[AttackStrategy]) -> None:
        for strategy in strategies:
            if strategy.name not in COHORT_BATCHED_STRATEGIES:
                raise ValueError(
                    f"strategy {strategy.name!r} has no decision rules in "
                    f"repro.multicast_cc.decision (BATCHED_DECISION_RULES) "
                    f"and cannot mount on a cohort; batch-exact strategies: "
                    f"{sorted(COHORT_BATCHED_STRATEGIES)}"
                )
        super()._init_adversary(strategies)


class AdversarialCohortFlidDlReceiver(_CohortAdversaryMixin, CohortFlidDlReceiver):
    """FLID-DL cohort of ``counts`` attacker rows mounting one strategy stack."""

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: SessionSpec,
        strategies: Sequence[AttackStrategy],
        counts: Sequence[int],
        bin_width_s: float = 1.0,
        name: str = "",
    ) -> None:
        super().__init__(
            network, host, spec, counts=counts, bin_width_s=bin_width_s, name=name
        )
        self._init_adversary(strategies)


class AdversarialCohortFlidDsReceiver(_CohortAdversaryMixin, CohortFlidDsReceiver):
    """FLID-DS cohort of ``counts`` attacker rows mounting one strategy stack.

    The cohort DELTA pipeline keeps running (one reconstruction and one
    ``member_count``-stamped subscription message per slot); strategies see
    the reconstructed keys through the same :meth:`on_keys` hook as on an
    individual adversarial receiver.
    """

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: SessionSpec,
        strategies: Sequence[AttackStrategy],
        counts: Sequence[int],
        key_bits: int = 16,
        bin_width_s: float = 1.0,
        name: str = "",
    ) -> None:
        super().__init__(
            network,
            host,
            spec,
            counts=counts,
            key_bits=key_bits,
            bin_width_s=bin_width_s,
            name=name,
        )
        self._init_adversary(strategies)

    def _on_keys_reconstructed(self, governed_slot: int, keys) -> None:
        self._dispatch_reconstructed_keys(governed_slot, keys)

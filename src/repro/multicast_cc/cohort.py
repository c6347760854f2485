"""Aggregated receivers: many homogeneous receivers as one receiver object.

The paper's robustness and overhead results are *scaling* claims — a few
attackers against sessions with very large honest audiences.  Instantiating
every honest receiver as a full object graph (host + IGMP state + FLID
receiver + SIGMA key table traffic) caps sessions at a few dozen receivers;
these classes instead represent every homogeneous member behind one edge
interface as one receiver object:

* one :class:`~repro.simulator.node.Host` (with ``population = N``) carries
  all members, so multicast fan-out and the bottleneck dynamics cost
  O(edge interfaces) — exactly what they cost with one receiver;
* the members are held as cohort *rows* — a list of member counts — that
  all sit at the receiver's single subscription level, so each slot runs the
  scalar rules of :mod:`~repro.multicast_cc.decision` (one ``decide_dl``, or
  one DELTA reconstruction) once for every member;
* SIGMA traffic is amortised: one session-join / subscription message per
  slot carries ``member_count = N``, the edge router verifies each key once
  and books the delivery for the population.

``model="cohort"`` realises one such receiver per cohort row;
``model="vector"`` realises one per edge router, carrying every row placed
there.

**Exactness.**  Aggregation is *exact* — byte-identical subscription
trajectories and key-delivery counts versus ``N`` individual receivers —
when the members are homogeneous: same behaviour (honest, or one attack
stack), same edge router, same start time, and access links that never drop
(true in the paper's §5.1 topologies, where the 10 Mbps access links exceed
the maximal 3.84 Mbps session rate and sit downstream of the shared
bottleneck).  Homogeneous members observe the same slots, so the
deterministic rules keep them at one level forever; every per-member
divergence source (staggered joins, per-receiver placement) must stay an
individual object.  ``tests/experiments/test_cohort_equivalence.py`` and
``tests/experiments/test_vector_equivalence.py`` assert the exactness for
small N; ``docs/scale.md`` discusses the limits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.sigma import SigmaHostInterface
from ..simulator.address import GroupAddress
from ..simulator.node import Host
from ..simulator.topology import Network
from .churn import ChurnProcess
from .flid_dl import FlidDlReceiver
from .flid_ds import FlidDsReceiver
from .session import SessionSpec

__all__ = ["CohortFlidDlReceiver", "CohortFlidDsReceiver"]


class _CohortSupport:
    """Member rows and population churn shared by both cohort receivers.

    A :class:`~repro.multicast_cc.churn.ChurnProcess` attached to a one-row
    cohort is sampled at every slot-evaluation wakeup (deterministically,
    before the due slots are evaluated): the membership delta is booked
    through member-weighted IGMP/SIGMA messages and the cohort's population —
    including the host weight every counter derives from — is updated before
    any message of the new slot is sent.  Arrivals adopt the cohort's
    current subscription level (flash-crowd members inherit the steady-state
    trajectory); see ``docs/scale.md`` for the exactness conditions.
    """

    _churn: Optional[ChurnProcess] = None
    _churn_initial: int = 0

    def _init_cohort(self, host: Host, counts: Sequence[int]) -> None:
        counts = [int(count) for count in counts]
        if not counts or min(counts) < 1:
            raise ValueError("a cohort needs at least one row of at least one receiver")
        self._counts = counts
        self.population = sum(counts)
        # The host stands for every member: membership counting, IGMP/SIGMA
        # counters and overhead accounting weight it as N end systems.
        host.population = self.population

    def state_rows(self) -> List[Tuple[int, int]]:
        """The ``(member count, level)`` row of every cohort carried.

        The rows share one IGMP/SIGMA interface, which can only hold one
        membership set, so every row sits at the receiver's level.
        """
        return [(count, self.level) for count in self._counts]

    def attach_churn(self, process: ChurnProcess) -> None:
        """Drive this cohort's population by ``process`` (call before start).

        Churn grows or shrinks one cohort; a receiver carrying several rows
        has no single row to resize.
        """
        if len(self._counts) != 1:
            raise ValueError(
                f"a receiver carrying {len(self._counts)} cohort rows cannot "
                "churn; declare the churned audience as its own single-cohort "
                "block"
            )
        self._churn = process
        self._churn_initial = self.population

    # ------------------------------------------------------------------
    def _on_timer(self) -> None:
        if self._churn is not None and self._started_at is not None:
            self._apply_churn()
        super()._on_timer()

    def _apply_churn(self) -> None:
        target = self._churn.population_at(
            self._churn_initial, self.sim.now - self._started_at
        )
        delta = target - self.population
        if delta == 0:
            return
        if delta > 0:
            self._book_arrivals(delta)
        else:
            self._book_departures(-delta)
        self._set_population(target)

    def _set_population(self, population: int) -> None:
        """Adopt the new population everywhere counters weigh it."""
        self.population = population
        self.host.population = population
        self._counts = [population]

    # hooks implemented per protocol variant -----------------------------
    def _book_arrivals(self, members: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def _book_departures(self, members: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class CohortFlidDlReceiver(_CohortSupport, FlidDlReceiver):
    """FLID-DL receiver aggregating the members of ``counts`` cohort rows.

    Behaviour is the single receiver's (the cohort host receives one copy of
    every packet an individual receiver would, and the scalar FLID-DL rule
    runs once per slot), but all membership signalling represents the
    population.
    """

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: SessionSpec,
        counts: Sequence[int],
        bin_width_s: float = 1.0,
        name: str = "",
    ) -> None:
        super().__init__(
            network,
            host,
            spec,
            bin_width_s=bin_width_s,
            name=name or f"{spec.session_id}-cohort-{host.name}",
        )
        self._init_cohort(host, counts)

    # ------------------------------------------------------------------
    # churn accounting (unprotected variant: weighted IGMP churn reports)
    # ------------------------------------------------------------------
    def _book_arrivals(self, members: int) -> None:
        """Arrivals adopt the current level: one weighted join per group."""
        if self.igmp is None:
            return
        for group in range(1, self.level + 1):
            self.igmp.join(self.spec.address_of(group), members=members)

    def _book_departures(self, members: int) -> None:
        """Departures abandon the current level: one weighted leave per group."""
        if self.igmp is None:
            return
        for group in range(1, self.level + 1):
            self.igmp.leave(self.spec.address_of(group), members=members)


class CohortFlidDsReceiver(_CohortSupport, FlidDsReceiver):
    """FLID-DS receiver aggregating the members of ``counts`` cohort rows.

    DELTA key reconstruction runs once per slot for every member, and the
    resulting (group, key) pairs go to the edge router in one subscription
    message stamped ``member_count = population`` — the router verifies each
    key once and counts a delivery per member, so SIGMA's key-table work is
    O(edge interfaces) rather than O(receivers).
    """

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: SessionSpec,
        counts: Sequence[int],
        key_bits: int = 16,
        bin_width_s: float = 1.0,
        name: str = "",
    ) -> None:
        super().__init__(
            network,
            host,
            spec,
            key_bits=key_bits,
            bin_width_s=bin_width_s,
            name=name or f"{spec.session_id}-cohort-{host.name}",
        )
        self._init_cohort(host, counts)
        #: Population-weighted count of keys *submitted* on behalf of members
        #: (each submitted pair speaks for every member of the cohort; the
        #: edge router's ``valid_submissions`` counts the accepted subset).
        self.member_keys_submitted = 0

    # ------------------------------------------------------------------
    def _make_sigma_interface(self) -> SigmaHostInterface:
        return SigmaHostInterface(
            self.host,
            self.spec.session_id,
            key_bits=self.key_bits,
            member_count=self.population,
        )

    def _subscribe(self, governed_slot: int, pairs: List[Tuple[GroupAddress, int]]) -> None:
        super()._subscribe(governed_slot, pairs)
        self.member_keys_submitted += self.population * len(pairs)

    # ------------------------------------------------------------------
    # churn accounting (protected variant: member-weighted SIGMA messages)
    # ------------------------------------------------------------------
    def _set_population(self, population: int) -> None:
        super()._set_population(population)
        if self.sigma is not None:
            # Every subsequent SIGMA message speaks for the new population.
            self.sigma.member_count = population

    def _book_arrivals(self, members: int) -> None:
        """Each arrival wave is one key-less session-join for its members."""
        if self.sigma is None:
            return
        self.sigma.session_join(self.spec.minimal_group(), members=members)

    def _book_departures(self, members: int) -> None:
        """Departures are silent under SIGMA — exactly like an individual
        receiver that stops submitting keys: they vanish from the member
        counts of subsequent messages instead of sending a farewell."""

"""The receiver-model abstraction: how a session's population is realised.

A :class:`ReceiverModel` is the unit the experiment layer composes a
session's receiver population from:

* :class:`IndividualReceiver` — the historical default: one live receiver
  object (host + IGMP/SIGMA interface + FLID state machine) per end system.
  Every pre-existing scenario uses only this model, which is why all golden
  trace digests are unchanged by the refactor.
* :class:`ReceiverCohort` — one :mod:`~repro.multicast_cc.cohort` receiver
  standing for ``N`` homogeneous honest members, with per-slot cost
  amortised over the population.
* :class:`AdversarialCohort` — a :class:`ReceiverCohort` whose members mount
  a batch-exact attack stack (:mod:`repro.adversary.cohort`); the protection
  metrics weight its excess goodput by the attacker population.

A ``model="vector"`` block realises one cohort receiver per edge router,
each wrapped in the same :class:`ReceiverCohort` / :class:`AdversarialCohort`
models and carrying that edge's whole population.

All expose the same small surface — ``population``, the underlying
``receiver`` object, per-member and population-weighted goodput — so the
metrics/analysis layers never branch on the model kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Tuple, runtime_checkable

from .receiver_base import LayeredReceiverBase

__all__ = ["ReceiverModel", "IndividualReceiver", "ReceiverCohort", "AdversarialCohort"]


@runtime_checkable
class ReceiverModel(Protocol):
    """What the experiment and analysis layers need from a population unit."""

    @property
    def population(self) -> int:
        """Number of end systems this model stands for."""
        ...

    @property
    def receiver(self) -> LayeredReceiverBase:
        """The live receiver object backing the model."""
        ...

    def average_rate_kbps(self, start_s: float, end_s: Optional[float] = None) -> float:
        """Per-member goodput over the interval, in Kbps."""
        ...

    def weighted_rate_kbps(self, start_s: float, end_s: Optional[float] = None) -> float:
        """Population-weighted goodput (per-member rate × population)."""
        ...

    def level_history(self) -> List[Tuple[float, int]]:
        """The (time, level) subscription trajectory shared by the members."""
        ...


@dataclass(frozen=True)
class _ModelBase:
    """Shared delegation: both models wrap exactly one receiver object."""

    receiver: LayeredReceiverBase

    def average_rate_kbps(self, start_s: float, end_s: Optional[float] = None) -> float:
        """Per-member goodput over the interval, in Kbps."""
        return self.receiver.average_rate_kbps(start_s, end_s)

    def weighted_rate_kbps(self, start_s: float, end_s: Optional[float] = None) -> float:
        """Population-weighted goodput over the interval, in Kbps."""
        return self.average_rate_kbps(start_s, end_s) * self.population

    def level_history(self) -> List[Tuple[float, int]]:
        """The (time, level) subscription trajectory of the member(s)."""
        return list(self.receiver.level_history)

    @property
    def population(self) -> int:
        """Number of end systems represented (overridden per model)."""
        raise NotImplementedError  # pragma: no cover - interface


class IndividualReceiver(_ModelBase):
    """One live receiver object per end system (the default model)."""

    @property
    def population(self) -> int:
        """An individual receiver always stands for exactly one end system."""
        return 1


class ReceiverCohort(_ModelBase):
    """One cohort receiver standing for ``N`` homogeneous honest members."""

    @property
    def population(self) -> int:
        """The cohort's member count, as carried by its receiver object."""
        return self.receiver.population


class AdversarialCohort(ReceiverCohort):
    """A cohort whose ``N`` members all mount the same batch-exact attack.

    Same aggregation surface as :class:`ReceiverCohort` — the distinct type
    is a marker so model-level tooling can tell attacker populations from
    honest ones without inspecting the wrapped receiver object (the
    protection pipeline itself resolves attackers from the session
    declaration; see ``repro.experiments.runner``).
    """

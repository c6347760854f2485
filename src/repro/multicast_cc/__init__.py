"""Multicast congestion control protocols.

* :mod:`repro.multicast_cc.flid_dl` — FLID-DL, the unprotected baseline.
* :mod:`repro.multicast_cc.flid_ds` — FLID-DS, FLID-DL integrated with DELTA
  and SIGMA (the paper's protected protocol).
* :mod:`repro.multicast_cc.replicated` — a replicated (single-group-per-level)
  protocol protected by the Figure 5 DELTA instantiation.
* :mod:`repro.multicast_cc.session` — session descriptions (rates, groups,
  slots) shared by all protocols.
* :mod:`repro.multicast_cc.decision` — the pure per-slot subscription and
  attack rules shared by all receiver models.
* :mod:`repro.multicast_cc.cohort` / :mod:`repro.multicast_cc.receiver_model`
  — aggregated receivers (many homogeneous members, one receiver object)
  and the model abstraction the experiment layer composes populations from.

Misbehaving receivers live in :mod:`repro.adversary`.
"""

from .churn import ChurnProcess
from .cohort import CohortFlidDlReceiver, CohortFlidDsReceiver
from .decision import (
    ChurnAction,
    DlDecision,
    attack_target_level,
    churn_phase,
    decide_churn,
    decide_dl,
    mask_congestion,
)
from .flid_dl import FlidDlReceiver, FlidDlSender
from .flid_ds import FlidDsReceiver, FlidDsSender
from .receiver_base import LayeredReceiverBase, SlotRecord
from .receiver_model import (
    AdversarialCohort,
    IndividualReceiver,
    ReceiverCohort,
    ReceiverModel,
)
from .replicated import ReplicatedReceiver, ReplicatedSender
from .sender_base import LayeredSenderBase
from .session import SessionSpec, fair_level_for_rate

__all__ = [
    "ChurnProcess",
    "CohortFlidDlReceiver",
    "CohortFlidDsReceiver",
    "ChurnAction",
    "DlDecision",
    "attack_target_level",
    "churn_phase",
    "decide_churn",
    "decide_dl",
    "mask_congestion",
    "FlidDlReceiver",
    "FlidDlSender",
    "FlidDsReceiver",
    "FlidDsSender",
    "AdversarialCohort",
    "IndividualReceiver",
    "ReceiverCohort",
    "ReceiverModel",
    "LayeredReceiverBase",
    "SlotRecord",
    "LayeredSenderBase",
    "ReplicatedReceiver",
    "ReplicatedSender",
    "SessionSpec",
    "fair_level_for_rate",
]

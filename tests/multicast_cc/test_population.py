"""Population helpers and the aggregated receivers' row validation.

:mod:`repro.multicast_cc.population` keeps only the cohort-row split and the
numpy-importability probe benchmark records carry; the rows themselves live
on the :mod:`~repro.multicast_cc.cohort` receivers.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from repro.multicast_cc import CohortFlidDlReceiver, SessionSpec
from repro.multicast_cc.population import active_backend, split_counts
from repro.simulator import DumbbellConfig, DumbbellNetwork

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def test_active_backend_defaults_to_numpy_when_available():
    numpy_present = importlib.util.find_spec("numpy") is not None
    assert active_backend() == ("numpy" if numpy_present else "fallback")


def test_simulation_never_imports_numpy():
    """A full aggregated run leaves numpy unimported (it is no dependency)."""
    code = (
        "import sys\n"
        "from repro.experiments import execute_spec, scenario_spec\n"
        "from repro.multicast_cc.population import active_backend\n"
        "active_backend()\n"
        "execute_spec(scenario_spec('scale-dumbbell-1m', receivers=400, cohorts=8,"
        " attackers=8, attacker_cohorts=2, edges=2, duration_s=4.0,"
        " attack_start_s=2.0))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={"PYTHONPATH": str(SRC_DIR)},
    )


# ----------------------------------------------------------------------
# split_counts
# ----------------------------------------------------------------------
def test_split_counts_even_and_remainder():
    assert split_counts(10, 2) == [5, 5]
    assert split_counts(10, 3) == [4, 3, 3]  # remainder front-loaded
    assert split_counts(7, 7) == [1] * 7
    assert split_counts(1_000_000, 4096)[:2] == [245, 245]
    assert sum(split_counts(1_000_000, 4096)) == 1_000_000


def test_split_counts_rejects_impossible_splits():
    with pytest.raises(ValueError):
        split_counts(3, 4)  # fewer members than cohorts
    with pytest.raises(ValueError):
        split_counts(3, 0)


# ----------------------------------------------------------------------
# cohort rows on the aggregated receiver
# ----------------------------------------------------------------------
def _cohort(counts):
    net = DumbbellNetwork(DumbbellConfig())
    spec = SessionSpec("s").with_addresses(net.allocate_groups(10))
    return CohortFlidDlReceiver(net, net.add_receiver(), spec, counts=counts)


def test_cohort_rows_weigh_the_host_and_share_one_level():
    receiver = _cohort([3, 2, 2])
    assert receiver.population == 7
    assert receiver.host.population == 7
    assert receiver.state_rows() == [(3, 0), (2, 0), (2, 0)]


def test_cohort_rejects_empty_and_nonpositive_rows():
    for counts in ([], [0], [2, -1]):
        with pytest.raises(ValueError):
            _cohort(counts)

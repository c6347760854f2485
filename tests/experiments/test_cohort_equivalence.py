"""Exactness of cohort aggregation: cohort-of-N == N individual receivers.

The cohort model's contract (``docs/scale.md``) is that for a homogeneous
honest population behind one edge router, aggregation is *exact*: the same
spec realised with ``model="cohort"`` and ``model="individual"`` must produce

* identical subscription-level trajectories (the full ``(time, level)``
  transition list, not just the per-slot vector) for every member,
* identical SIGMA keys-delivered counts (``valid_submissions`` — the router
  books one delivery per member either way) and identical session-join /
  invalid-submission / revocation counters,
* identical population-weighted IGMP counters on the unprotected variant,
* identical per-member goodput.

These are exact (``==``) comparisons on the same seed, not statistical ones.
"""

import pytest

from repro.analysis.golden import subscription_vector
from repro.experiments import PAPER_DEFAULTS, CohortDecl, Scenario, ScenarioSpec, SessionDecl

#: Small population (feasible as individuals) on a tight bottleneck, so the
#: run exercises congestion decreases, deaf periods and upgrades.
POPULATION = 3
DURATION_S = 20.0


def _spec(protected: bool, model: str) -> ScenarioSpec:
    return ScenarioSpec(
        name="cohort-equivalence",
        protected=protected,
        expected_sessions=1,
        sessions=(
            SessionDecl(
                "s",
                receivers=0,
                population=(CohortDecl(POPULATION, model=model),),
            ),
        ),
        duration_s=DURATION_S,
        config=PAPER_DEFAULTS,
    )


def _run(protected: bool, model: str) -> Scenario:
    scenario = Scenario.from_spec(_spec(protected, model))
    scenario.run(DURATION_S)
    return scenario


#: Protocol-variant parametrisation (``protected`` flag -> test id).
DL = pytest.param(False, id="flid_dl")
DS = pytest.param(True, id="flid_ds")


@pytest.fixture(scope="module", params=[DL, DS])
def pair(request):
    """One (cohort scenario, individual scenario) pair per protocol variant."""
    protected = request.param
    return protected, _run(protected, "cohort"), _run(protected, "individual")


def test_population_accounting(pair):
    """Both realisations stand for the same number of end systems."""
    _, cohort, individual = pair
    assert cohort.sessions[0].total_population == POPULATION
    assert individual.sessions[0].total_population == POPULATION
    assert len(cohort.sessions[0].receivers) == 1
    assert len(individual.sessions[0].receivers) == POPULATION
    assert cohort.sessions[0].receivers[0].population == POPULATION


def test_identical_subscription_trajectories(pair):
    """The cohort's trajectory equals every individual member's, exactly."""
    _, cohort, individual = pair
    cohort_history = cohort.sessions[0].receivers[0].level_history
    slot = cohort.sessions[0].spec.slot_duration_s
    assert len(cohort_history) > 2, "run too quiet to be a meaningful check"
    for receiver in individual.sessions[0].receivers:
        assert receiver.level_history == cohort_history
        assert subscription_vector(
            receiver.level_history, slot, DURATION_S
        ) == subscription_vector(cohort_history, slot, DURATION_S)


def test_trajectory_exercises_congestion(pair):
    """The equivalence must cover decreases, not only the upgrade ladder."""
    _, cohort, _ = pair
    receiver = cohort.sessions[0].receivers[0]
    assert receiver.decreases > 0
    assert receiver.increases > 0


def test_identical_per_member_goodput(pair):
    """Per-member goodput matches; the weighted rate scales by N."""
    _, cohort, individual = pair
    model = cohort.sessions[0].models[0]
    member_kbps = model.average_rate_kbps(0.0, DURATION_S)
    assert member_kbps > 0
    for other in individual.sessions[0].models:
        assert other.average_rate_kbps(0.0, DURATION_S) == member_kbps
    assert model.weighted_rate_kbps(0.0, DURATION_S) == pytest.approx(
        POPULATION * member_kbps
    )


@pytest.mark.parametrize("pair", [DS], indirect=True)
def test_identical_sigma_counters(pair):
    """Keys delivered (and every other SIGMA counter) match exactly."""
    _, cohort, individual = pair
    a, b = cohort.sigma, individual.sigma
    assert a.valid_submissions == b.valid_submissions
    assert a.invalid_submissions == b.invalid_submissions
    assert a.session_joins == b.session_joins
    assert a.revocations == b.revocations
    assert a.valid_submissions > 0
    # The cohort reached those counts with one message per slot, not N.
    cohort_rx = cohort.sessions[0].receivers[0]
    individual_msgs = sum(
        r.sigma.subscription_messages_sent for r in individual.sessions[0].receivers
    )
    assert cohort_rx.sigma.subscription_messages_sent * POPULATION == individual_msgs
    # Every submitted key speaks for the whole population; the router
    # accepts the valid subset and rejects the rest (lossy-slot keys).
    assert cohort_rx.member_keys_submitted == a.valid_submissions + a.invalid_submissions


@pytest.mark.parametrize("pair", [DL], indirect=True)
def test_identical_igmp_counters(pair):
    """Unprotected variant: population-weighted join/leave counts match."""
    _, cohort, individual = pair
    a, b = cohort.igmp_managers[0], individual.igmp_managers[0]
    assert a.joins_handled == b.joins_handled
    assert a.leaves_handled == b.leaves_handled
    assert a.joins_handled > 0


def test_cohort_state_block_stays_single_row(pair):
    """A one-cohort receiver reports one row, at the receiver's level."""
    _, cohort, _ = pair
    receiver = cohort.sessions[0].receivers[0]
    rows = receiver.state_rows()
    assert len(rows) == 1
    assert rows[0][0] == POPULATION
    assert rows[0][1] == receiver.level


def test_member_population_counting(pair):
    """The multicast service counts end systems, not interfaces."""
    _, cohort, individual = pair
    spec = cohort.sessions[0].spec
    minimal = spec.minimal_group()
    assert cohort.network.multicast.member_population(minimal) == POPULATION
    assert individual.network.multicast.member_population(minimal) == POPULATION
    # Fan-out cost is what differs: one interface versus N.
    assert len(cohort.network.multicast.members(minimal)) == 1
    assert len(individual.network.multicast.members(minimal)) == POPULATION

"""Exactness of per-edge aggregation: vector block == cohorts == individuals.

``model="vector"`` (``docs/scale.md``) extends the cohort contract one level
up: one aggregated receiver per edge router, carrying several cohort rows,
must reproduce — with ``==``, on the same seed — what ``model="cohort"`` and
``model="individual"`` produce member for member:

* identical subscription-level trajectories (the full ``(time, level)``
  transition list),
* identical per-member goodput,
* identical SIGMA counters on the protected variant and identical
  population-weighted IGMP counters on the unprotected one,
* for adversarial blocks, identical attack counters under every
  batch-exact strategy.

Every case runs twice: with numpy loaded and with numpy unimportable
(``tests/_numpy_env.py``), so the aggregated path is shown not to depend on
it.
"""

import itertools

import pytest
from _numpy_env import BACKENDS, numpy_visibility

from repro.adversary import AttackSpec
from repro.experiments import (
    PAPER_DEFAULTS,
    CohortDecl,
    Scenario,
    ScenarioSpec,
    SessionDecl,
)
POPULATION = 3
DURATION_S = 20.0
ATTACK_DURATION_S = 16.0
ATTACK_START_S = 6.0

#: Every registered strategy batches exactly — including over vector blocks.
STRATEGIES = (
    "inflated-join",
    "ignore-congestion",
    "churn",
    "key-replay",
    "key-guessing",
    "join-storm",
    "collusion",
)


def _honest_spec(protected: bool, model: str, cohorts=None) -> ScenarioSpec:
    return ScenarioSpec(
        name="vector-equivalence",
        protected=protected,
        expected_sessions=1,
        sessions=(
            SessionDecl(
                "s",
                receivers=0,
                population=(CohortDecl(POPULATION, model=model, cohorts=cohorts),),
            ),
        ),
        duration_s=DURATION_S,
        config=PAPER_DEFAULTS,
    )


def _attack_spec(protected: bool, model: str, strategy: str) -> ScenarioSpec:
    return ScenarioSpec(
        name="vector-adversarial-equivalence",
        protected=protected,
        expected_sessions=2,
        sessions=(
            SessionDecl(
                "atk",
                receivers=0,
                population=(
                    CohortDecl(
                        POPULATION,
                        model=model,
                        cohorts=POPULATION if model == "vector" else None,
                        attack=AttackSpec(strategy, start_s=ATTACK_START_S),
                    ),
                ),
            ),
            SessionDecl("hon", receivers=1),
        ),
        duration_s=ATTACK_DURATION_S,
        config=PAPER_DEFAULTS,
    )


def _run(spec: ScenarioSpec, duration_s: float) -> Scenario:
    scenario = Scenario.from_spec(spec)
    scenario.run(duration_s)
    return scenario


def _protocol_params(protected_flags):
    """Protocol × numpy-visibility parametrisation, ids ``<protocol>-<backend>``."""
    return [
        pytest.param(
            (protected, backend),
            id=f"{'flid_ds' if protected else 'flid_dl'}-{backend}",
        )
        for protected, backend in itertools.product(protected_flags, BACKENDS)
    ]


@pytest.fixture(scope="module", params=_protocol_params([False, True]))
def trio(request):
    """(vector, cohort, individual) scenarios per protocol × backend.

    The vector realisation splits the population into one row per member
    (``cohorts=POPULATION``), so the receiver carries per-member rows — the
    shape in which a row drifting off the shared level would show.
    """
    protected, backend = request.param
    with numpy_visibility(backend):
        return (
            protected,
            _run(_honest_spec(protected, "vector", POPULATION), DURATION_S),
            _run(_honest_spec(protected, "cohort"), DURATION_S),
            _run(_honest_spec(protected, "individual"), DURATION_S),
        )


def test_population_accounting(trio):
    """One vector receiver per edge stands for the whole population."""
    _, vector, cohort, individual = trio
    assert vector.sessions[0].total_population == POPULATION
    assert len(vector.sessions[0].receivers) == 1  # one edge on the dumbbell
    assert len(cohort.sessions[0].receivers) == 1
    assert len(individual.sessions[0].receivers) == POPULATION
    assert vector.sessions[0].receivers[0].state_rows() == [
        (1, vector.sessions[0].receivers[0].level)
    ] * POPULATION


def test_identical_subscription_trajectories(trio):
    """The vector block's trajectory equals cohort's and every individual's."""
    _, vector, cohort, individual = trio
    history = vector.sessions[0].receivers[0].level_history
    assert len(history) > 2, "run too quiet to be a meaningful check"
    assert cohort.sessions[0].receivers[0].level_history == history
    for receiver in individual.sessions[0].receivers:
        assert receiver.level_history == history


def test_block_keeps_per_member_rows(trio):
    """The vector receiver tracks every member row, uniformly levelled."""
    _, vector, _, _ = trio
    receiver = vector.sessions[0].receivers[0]
    rows = receiver.state_rows()
    assert len(rows) == POPULATION
    assert all(count == 1 for count, _ in rows)
    assert {level for _, level in rows} == {receiver.level}


def test_identical_per_member_goodput(trio):
    """Per-member goodput matches across all three realisations."""
    _, vector, cohort, individual = trio
    member_kbps = vector.sessions[0].models[0].average_rate_kbps(0.0, DURATION_S)
    assert member_kbps > 0
    assert (
        cohort.sessions[0].models[0].average_rate_kbps(0.0, DURATION_S) == member_kbps
    )
    for model in individual.sessions[0].models:
        assert model.average_rate_kbps(0.0, DURATION_S) == member_kbps


@pytest.mark.parametrize("trio", _protocol_params([True]), indirect=True)
def test_identical_sigma_counters(trio):
    """Protected variant: every SIGMA counter matches exactly."""
    _, vector, cohort, individual = trio
    for other in (cohort, individual):
        assert vector.sigma.valid_submissions == other.sigma.valid_submissions
        assert vector.sigma.invalid_submissions == other.sigma.invalid_submissions
        assert vector.sigma.session_joins == other.sigma.session_joins
        assert vector.sigma.revocations == other.sigma.revocations
    assert vector.sigma.valid_submissions > 0


@pytest.mark.parametrize("trio", _protocol_params([False]), indirect=True)
def test_identical_igmp_counters(trio):
    """Unprotected variant: population-weighted join/leave counts match."""
    _, vector, cohort, individual = trio
    for other in (cohort, individual):
        assert (
            vector.igmp_managers[0].joins_handled
            == other.igmp_managers[0].joins_handled
        )
        assert (
            vector.igmp_managers[0].leaves_handled
            == other.igmp_managers[0].leaves_handled
        )
    assert vector.igmp_managers[0].joins_handled > 0


def test_block_slices_map_declarations_to_objects(trio):
    """block_slices records each declaration's realised object range."""
    _, vector, cohort, individual = trio
    assert vector.sessions[0].block_slices == [(0, 1)]
    assert cohort.sessions[0].block_slices == [(0, 1)]
    assert individual.sessions[0].block_slices == [(0, POPULATION)]


# ----------------------------------------------------------------------
# adversarial vector blocks: every batch-exact strategy
# ----------------------------------------------------------------------
@pytest.fixture(
    scope="module",
    params=list(itertools.product([False, True], STRATEGIES, BACKENDS)),
    ids=lambda p: f"{'flid_ds' if p[0] else 'flid_dl'}-{p[1]}-{p[2]}",
)
def attack_pair(request):
    """(vector, cohort) scenario pairs per protocol × strategy × backend."""
    protected, strategy, backend = request.param
    with numpy_visibility(backend):
        return (
            protected,
            strategy,
            _run(_attack_spec(protected, "vector", strategy), ATTACK_DURATION_S),
            _run(_attack_spec(protected, "cohort", strategy), ATTACK_DURATION_S),
        )


def test_identical_attack_trajectories(attack_pair):
    """The adversarial vector block's trajectory equals the cohort's."""
    _, _, vector, cohort = attack_pair
    history = vector.sessions[0].receivers[0].level_history
    assert len(history) >= 1
    assert cohort.sessions[0].receivers[0].level_history == history


def test_identical_attack_counters(attack_pair):
    """Attack counters match member for member (both book per member)."""
    _, strategy, vector, cohort = attack_pair
    vector_stats = vector.sessions[0].receivers[0].adversary_stats()
    assert vector_stats == cohort.sessions[0].receivers[0].adversary_stats()
    if strategy in ("inflated-join", "churn", "join-storm"):
        assert vector_stats["igmp_attempts"] > 0  # the attack actually ran
    protected = attack_pair[0]
    if protected and strategy == "key-guessing":
        assert vector_stats["guess_attempts"] > 0
    if protected and strategy == "key-replay":
        assert vector_stats["replay_attempts"] > 0


def test_identical_protection_counters(attack_pair):
    """SIGMA/IGMP edge counters agree between the two realisations."""
    protected, _, vector, cohort = attack_pair
    if protected:
        assert vector.sigma.valid_submissions == cohort.sigma.valid_submissions
        assert vector.sigma.invalid_submissions == cohort.sigma.invalid_submissions
        assert vector.sigma.igmp_joins_ignored == cohort.sigma.igmp_joins_ignored
    else:
        assert (
            vector.igmp_managers[0].joins_handled
            == cohort.igmp_managers[0].joins_handled
        )


# ----------------------------------------------------------------------
# spec-layer rules specific to vector blocks
# ----------------------------------------------------------------------
def test_cohorts_field_validation():
    """The cohorts split must be realisable and cohort/vector-only."""
    with pytest.raises(ValueError):
        CohortDecl(10, cohorts=0)
    with pytest.raises(ValueError):
        CohortDecl(10, cohorts=11)  # more rows than members
    with pytest.raises(ValueError):
        CohortDecl(10, model="individual", cohorts=2)
    assert CohortDecl(10, model="vector", cohorts=10).cohorts == 10


def test_vector_blocks_cannot_churn():
    """Population churn needs a single aggregated cohort, never a vector."""
    from repro.experiments import ChurnProcess

    with pytest.raises(ValueError, match="single aggregated cohort"):
        CohortDecl(10, model="vector", churn=ChurnProcess(arrival_rate=1.0))
    with pytest.raises(ValueError, match="single aggregated cohort"):
        CohortDecl(10, cohorts=2, churn=ChurnProcess(arrival_rate=1.0))
    scenario = Scenario.from_spec(_honest_spec(True, "vector", POPULATION))
    with pytest.raises(ValueError, match="cannot churn"):
        scenario.sessions[0].receivers[0].attach_churn(
            ChurnProcess(arrival_rate=1.0)
        )


def test_cohorts_split_of_cohort_model_matches_single_cohort():
    """model="cohort" with cohorts=N realises N per-cohort objects, exactly
    equivalent to the single aggregated cohort."""
    split = _run(_honest_spec(True, "cohort", POPULATION), DURATION_S)
    single = _run(_honest_spec(True, "cohort"), DURATION_S)
    assert len(split.sessions[0].receivers) == POPULATION
    assert split.sessions[0].total_population == POPULATION
    history = single.sessions[0].receivers[0].level_history
    for receiver in split.sessions[0].receivers:
        assert receiver.level_history == history
    assert split.sigma.valid_submissions == single.sigma.valid_submissions

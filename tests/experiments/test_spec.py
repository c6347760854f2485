"""Tests of the declarative scenario spec layer and the named registry."""

import pytest

from repro.experiments import (
    PAPER_DEFAULTS,
    CbrDecl,
    ChurnProcess,
    CohortDecl,
    Scenario,
    ScenarioSpec,
    SessionDecl,
    TcpDecl,
    inflated_subscription_spec,
    list_scenarios,
    scenario_entry,
    scenario_spec,
    throughput_vs_sessions_spec,
)


def _rich_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="roundtrip",
        protected=True,
        topology="parking-lot",
        topology_params={"hops": 2, "bottleneck_bandwidth_bps": 500_000.0},
        sessions=(
            SessionDecl(
                "mc",
                receivers=2,
                misbehaving=(1,),
                attack_start_s=10.0,
                receiver_start_times=(0.0, 5.0),
                receiver_access_delays=(None, 0.02),
                receiver_routers=("r1", None),
            ),
        ),
        tcp=(TcpDecl("t1", start_s=1.0, receiver_router="r2"),),
        cbr=(CbrDecl("burst", rate_bps=50_000.0, active_window=(5.0, 9.0)),),
        duration_s=20.0,
        config=PAPER_DEFAULTS.with_seed(3),
    )


class TestSerialisation:
    def test_json_roundtrip_is_identity(self):
        spec = _rich_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_canonical_json_is_stable(self):
        spec = _rich_spec()
        assert spec.to_json() == ScenarioSpec.from_json(spec.to_json()).to_json()

    def test_with_seed_only_changes_config_seed(self):
        spec = _rich_spec()
        reseeded = spec.with_seed(9)
        assert reseeded.config.seed == 9
        assert reseeded.with_seed(3) == spec

    def test_effective_duration_falls_back_to_config(self):
        spec = ScenarioSpec(name="d", protected=False, sessions=(SessionDecl("a"),))
        assert spec.effective_duration_s == PAPER_DEFAULTS.duration_s
        assert spec.with_duration(7.0).effective_duration_s == 7.0


class TestValidation:
    def test_misbehaving_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SessionDecl("bad", receivers=1, misbehaving=(2,))

    def test_per_receiver_lists_must_match_count(self):
        with pytest.raises(ValueError, match="one entry per receiver"):
            SessionDecl("bad", receivers=2, receiver_start_times=(0.0,))


class TestRegistry:
    def test_paper_figures_registered(self):
        names = {entry.name for entry in list_scenarios()}
        assert {
            "figure1-attack",
            "figure7-defence",
            "figure8-throughput",
            "figure8-responsiveness",
            "figure8-convergence",
            "figure9-measured-overhead",
            "parking-lot-attack",
            "star-fanout",
            "tree-convergence",
        } <= names

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario_entry("figure42")

    def test_builders_accept_parameters(self):
        spec = scenario_spec("figure8-throughput", count=6, cross_traffic=True)
        assert len(spec.sessions) == 6
        assert len(spec.tcp) == 6
        assert spec.expected_sessions == 12

    def test_registered_specs_serialise(self):
        for entry in list_scenarios():
            spec = entry.build()
            assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestInterpreter:
    def test_from_spec_builds_figure1_layout(self):
        spec = inflated_subscription_spec(protected=False, duration_s=10.0)
        scenario = Scenario.from_spec(spec)
        assert [s.spec.session_id for s in scenario.sessions] == ["F1", "F2"]
        assert [c.sender.name for c in scenario.tcp_connections] == ["T1", "T2"]
        assert scenario.network.spec.kind == "dumbbell"
        # 4 competing sessions at the 250 Kbps fair share -> 1 Mbps bottleneck.
        assert scenario.network.bottleneck.bandwidth_bps == pytest.approx(1_000_000.0)

    def test_from_spec_matches_imperative_builder(self):
        config = PAPER_DEFAULTS.with_duration(8.0)
        spec = throughput_vs_sessions_spec(
            protected=False, count=2, config=config, duration_s=8.0
        )
        declarative = Scenario.from_spec(spec)
        declarative.run(8.0)

        imperative = Scenario(config, protected=False, expected_sessions=2)
        for i in range(2):
            imperative.add_multicast_session(f"mc{i + 1}")
        imperative.run(8.0)

        assert declarative.multicast_average_kbps(2.0, 8.0) == pytest.approx(
            imperative.multicast_average_kbps(2.0, 8.0)
        )

    def test_dumbbell_topology_params_reach_the_network(self):
        spec = ScenarioSpec(
            name="dumbbell-params",
            protected=False,
            topology="dumbbell",
            topology_params={"seed": 42, "bottleneck_delay_s": 0.005},
            sessions=(SessionDecl("mc"),),
            duration_s=5.0,
        )
        scenario = Scenario.from_spec(spec)
        assert scenario.network.random.seed == 42
        assert scenario.network.bottleneck.delay_s == pytest.approx(0.005)
        # The parameterised dumbbell still exposes the DumbbellNetwork surface.
        assert scenario.network.right is scenario.network.edge_router

    def test_unknown_dumbbell_parameter_rejected(self):
        spec = ScenarioSpec(
            name="dumbbell-bad",
            protected=False,
            topology="dumbbell",
            topology_params={"hops": 3},
            sessions=(SessionDecl("mc"),),
        )
        with pytest.raises(TypeError, match="unknown dumbbell parameter"):
            Scenario.from_spec(spec)

    def test_protected_multi_edge_topology_gets_one_agent_per_edge(self):
        spec = scenario_spec("star-fanout", duration_s=5.0, arms=3)
        scenario = Scenario.from_spec(spec)
        assert len(scenario.sigma_agents) == 3
        agent_routers = {agent.router.name for agent in scenario.sigma_agents}
        assert agent_routers == {"arm1", "arm2", "arm3"}
        assert scenario.sigma is scenario.sigma_agents[0]

    def test_unprotected_multi_edge_topology_gets_igmp_per_edge(self):
        spec = scenario_spec("parking-lot-attack", protected=False, duration_s=5.0)
        scenario = Scenario.from_spec(spec)
        assert len(scenario.igmp_managers) == 3
        for router in scenario.network.receiver_edge_routers:
            assert router.group_manager is not None


class TestShardsField:
    def test_shards_omitted_from_canonical_json_when_unset(self):
        """Legacy spec hashes and golden digests must stay byte-identical."""
        spec = _rich_spec()
        assert spec.shards is None
        assert '"shards"' not in spec.to_json()
        assert "shards" not in spec.to_dict()

    def test_shards_roundtrip_when_set(self):
        spec = ScenarioSpec(
            name="sharded",
            protected=True,
            topology="sharded-dumbbell",
            topology_params={"regions": 2, "edges_per_region": 2},
            shards=2,
            sessions=(
                SessionDecl(
                    "mc",
                    receivers=0,
                    population=(CohortDecl(8, model="vector", cohorts=2),),
                ),
            ),
        )
        assert spec.to_dict()["shards"] == 2
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_shards_below_two_rejected(self):
        with pytest.raises(ValueError, match="shards must be >= 2"):
            ScenarioSpec(
                name="bad",
                protected=False,
                shards=1,
                sessions=(SessionDecl("mc"),),
            )


class TestVectorChurnRejection:
    """model="vector" blocks cannot churn: churn resizes one cohort row.

    Regression tests for the spec-construction guard, which rejects a
    churned vector block before it reaches the scenario interpreter.
    """

    def test_vector_churn_rejected_at_construction(self):
        with pytest.raises(ValueError, match="single aggregated cohort"):
            CohortDecl(
                10,
                model="vector",
                churn=ChurnProcess(burst=((1.0, 5),)),
            )

    def test_multi_cohort_churn_rejected_at_construction(self):
        with pytest.raises(ValueError, match="single aggregated cohort"):
            CohortDecl(
                10,
                cohorts=2,
                churn=ChurnProcess(burst=((1.0, 5),)),
            )

    def test_vector_churn_rejected_via_from_dict(self):
        payload = {
            "count": 10,
            "model": "vector",
            "churn": ChurnProcess(burst=((1.0, 5),)).to_dict(),
        }
        with pytest.raises(ValueError, match="single aggregated cohort"):
            CohortDecl.from_dict(payload)

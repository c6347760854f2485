"""Region-sharded execution: planner, region workers and deterministic merge.

The ``model="vector"`` population blocks take one session to a million
receivers on a single CPU; this module is the other half of the scale story
— *hierarchical aggregation* in the sense of the "Scalable Internetworking"
report: partition an annotated topology into regions cut at designated
trunk-to-region links, run each region as an ordinary standalone scenario
(in-process or in a :class:`~concurrent.futures.ProcessPoolExecutor`
worker), and merge the results deterministically.

The three layers:

* :func:`plan_shards` — the **region planner**.  Validates that a spec with
  ``shards=N`` runs on a topology whose :class:`~repro.simulator.topology.
  TopologySpec` annotates exactly ``N`` regions, then splits every session's
  vector population blocks into per-region sub-blocks.  The split is exact:
  receiver edge routers are region-contiguous, so the round-robin row
  placement assigns each region a contiguous share of the
  :func:`~repro.multicast_cc.population.split_counts` row sequence, and
  re-splitting that share inside the region reproduces the very same rows on
  the very same edges.  Each region becomes a standalone
  :class:`~repro.experiments.spec.ScenarioSpec` over the single-region
  sub-topology (``topology_params["region"]``) with identical router names
  and link parameters.
* :func:`run_region_json` — the **worker entry point** (module-level and
  string-typed, so it pickles into pool workers exactly like
  :func:`~repro.experiments.runner.run_spec_json`).  Runs one region,
  records the boundary events (effective membership transitions — the
  result of IGMP/SIGMA signalling crossing the region's cut link) via the
  multicast service's ``membership_log`` hook, and returns per-block metric
  ingredients as JSON.
* :func:`merge_region_results` — the **deterministic merge**.  Reassembles
  per-receiver metric lists in exactly the order the unsharded scenario
  would produce (block-major, then region-major — the receiver index order),
  recomputes the float reductions (averages, population weighting, the
  global honest baseline) in that order, sums the SIGMA counters, and folds
  the boundary events into per-slot barriers (slot-major, then region-major)
  summarised by a SHA-256 digest.  The merge is a pure function of the
  region documents, so running the regions serially or on the pool yields a
  byte-identical merged result — the serial == sharded contract
  (``docs/determinism.md``).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.protection import (
    combined_containment_s,
    excess_goodput_kbps,
    goodput_containment_s,
    time_to_containment_s,
    weighted_excess_goodput_kbps,
    weighted_honest_baseline_kbps,
)
from ..multicast_cc.population import split_counts
from ..simulator.topology import TopologySpec, build_topology
from .scenario import Scenario
from .spec import CohortDecl, ScenarioSpec, SessionDecl
from .runner import RunResult

__all__ = [
    "RegionSession",
    "RegionPlan",
    "ShardPlan",
    "plan_shards",
    "region_payloads",
    "run_region_json",
    "merge_region_results",
]


@dataclass(frozen=True)
class RegionSession:
    """One session's share of a region: which original blocks it carries."""

    session_index: int
    block_indices: Tuple[int, ...]


@dataclass(frozen=True)
class RegionPlan:
    """One region of a :class:`ShardPlan`: a standalone runnable sub-spec."""

    region: int
    spec: ScenarioSpec
    sessions: Tuple[RegionSession, ...]


@dataclass(frozen=True)
class ShardPlan:
    """The full execution plan for one sharded spec."""

    spec: ScenarioSpec
    topology: TopologySpec
    regions: Tuple[RegionPlan, ...]
    slot_s: float
    #: Attack onsets precomputed from the *original* spec (a region sub-spec
    #: may omit sessions, which would shift the global onset): per-session
    #: onset plus the global minimum, or ``None`` without attackers.
    onsets: Optional[Dict[str, Any]]


def _shard_onsets(spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
    """The protection windows of the original spec (see ``collect_protection_metrics``)."""
    duration = spec.effective_duration_s
    session_onsets = {
        decl.session_id: onset
        for decl in spec.sessions
        for onset in [decl.attack_onset_s()]
        if onset is not None and onset < duration
    }
    if not session_onsets:
        return None
    return {"global": min(session_onsets.values()), "sessions": session_onsets}


def plan_shards(spec: ScenarioSpec) -> ShardPlan:
    """Partition a ``shards=N`` spec into ``N`` standalone region sub-specs.

    Raises :class:`ValueError` when the spec is not shardable: the topology
    must annotate exactly ``N`` regions with region-contiguous receiver edge
    routers, sessions must realise their whole population as blocks
    (``receivers=0``; the individual-receiver path uses a topology-global
    placement cursor), every round-robin block must use the per-edge
    ``model="vector"`` realisation, and globally-coupled features (TCP/CBR cross
    traffic, overhead tracking, series recording) are rejected.
    """
    if spec.shards is None:
        raise ValueError("spec has no shards field set; nothing to plan")
    if spec.topology == "dumbbell":
        raise ValueError(
            "the default dumbbell has no topology regions; sharding needs an "
            "annotated topology such as 'sharded-dumbbell'"
        )
    params = dict(spec.topology_params)
    if "region" in params:
        raise ValueError("topology_params['region'] is reserved for region workers")
    topology = build_topology(spec.topology, **params)
    if not topology.regions:
        raise ValueError(
            f"topology {spec.topology!r} annotates no regions; sharding cuts "
            "at region boundaries"
        )
    if len(topology.regions) != spec.shards:
        raise ValueError(
            f"spec declares shards={spec.shards} but topology "
            f"{spec.topology!r} annotates {len(topology.regions)} regions"
        )
    if spec.tcp or spec.cbr:
        raise ValueError("TCP/CBR cross traffic couples regions; cannot shard")
    if spec.record_series:
        raise ValueError("record_series is not supported on sharded runs")

    edges = topology.receiver_routers
    edge_regions: List[int] = []
    for edge in edges:
        region = topology.region_of(edge)
        if region is None:
            raise ValueError(f"receiver router {edge!r} is not in any region")
        edge_regions.append(region)
    # Region contiguity is what makes the vector-row split exact: each
    # region's edges must form one contiguous run of the receiver list.
    seen: List[int] = []
    for region in edge_regions:
        if seen and seen[-1] != region and region in seen:
            raise ValueError(
                "receiver routers must be region-contiguous for exact "
                "round-robin re-splitting"
            )
        if not seen or seen[-1] != region:
            seen.append(region)

    count = len(topology.regions)
    # region index -> session index -> (block_indices, blocks)
    regional: List[List[Tuple[int, List[int], List[CohortDecl]]]] = [
        [] for _ in range(count)
    ]
    for s_index, decl in enumerate(spec.sessions):
        if decl.receivers != 0:
            raise ValueError(
                f"session {decl.session_id!r} declares individual receivers; "
                "sharded sessions must realise their population as blocks "
                "(receivers=0) so placement does not depend on a "
                "topology-global cursor"
            )
        if decl.track_overhead:
            raise ValueError(
                f"session {decl.session_id!r} tracks overhead, which is a "
                "whole-session accumulator; cannot shard"
            )
        per_region: Dict[int, List[Tuple[int, CohortDecl]]] = {}
        for b_index, block in enumerate(decl.population):
            if block.router is not None:
                region = topology.region_of(block.router)
                if region is None:
                    raise ValueError(
                        f"block router {block.router!r} is not in any region"
                    )
                per_region.setdefault(region, []).append((b_index, block))
                continue
            if block.model != "vector":
                raise ValueError(
                    f"unpinned model={block.model!r} blocks round-robin over a "
                    "topology-global cursor; pin them to a router or use "
                    'model="vector" to shard'
                )
            rows = split_counts(block.count, block.cohorts or 1)
            rows_by_region: Dict[int, List[int]] = {}
            for row, members in enumerate(rows):
                rows_by_region.setdefault(edge_regions[row % len(edges)], []).append(
                    members
                )
            for region in sorted(rows_by_region):
                share = rows_by_region[region]
                per_region.setdefault(region, []).append(
                    (
                        b_index,
                        replace(
                            block,
                            count=sum(share),
                            cohorts=len(share) if len(share) > 1 else None,
                        ),
                    )
                )
        for region, entries in per_region.items():
            entries.sort(key=lambda pair: pair[0])
            regional[region].append(
                (s_index, [b for b, _ in entries], [blk for _, blk in entries])
            )

    region_plans: List[RegionPlan] = []
    for region in range(count):
        sessions: List[SessionDecl] = []
        mapping: List[RegionSession] = []
        for s_index, block_indices, blocks in regional[region]:
            decl = spec.sessions[s_index]
            sessions.append(
                SessionDecl(
                    session_id=decl.session_id,
                    receivers=0,
                    suppress_unsubscribed_groups=decl.suppress_unsubscribed_groups,
                    population=tuple(blocks),
                )
            )
            mapping.append(RegionSession(s_index, tuple(block_indices)))
        region_plans.append(
            RegionPlan(
                region=region + 1,
                spec=replace(
                    spec,
                    topology_params={**params, "region": region + 1},
                    sessions=tuple(sessions),
                    shards=None,
                ),
                sessions=tuple(mapping),
            )
        )
    config = spec.config
    slot_s = config.flid_ds_slot_s if spec.protected else config.flid_dl_slot_s
    return ShardPlan(
        spec=spec,
        topology=topology,
        regions=tuple(region_plans),
        slot_s=slot_s,
        onsets=_shard_onsets(spec),
    )


def region_payloads(plan: ShardPlan) -> List[str]:
    """One worker payload (JSON string) per region, in region order."""
    return [
        json.dumps(
            {
                "kind": "region",
                "region": region.region,
                "spec": region.spec.to_dict(),
                "slot_s": plan.slot_s,
                "onsets": plan.onsets,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for region in plan.regions
    ]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _collect_region_sessions(
    scenario: Scenario,
    spec: ScenarioSpec,
    onsets: Optional[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Per-session, per-block metric ingredients of a finished region run.

    Receiver-level lists are kept *per block* (not per session) because the
    merge interleaves blocks across regions block-major; the protection
    ingredients carry everything except the excess fields, which need the
    global honest baseline only the merge can compute.
    """
    config = spec.config
    duration = spec.effective_duration_s
    warmup = config.warmup_s
    sessions: List[Dict[str, Any]] = []
    for decl, session in zip(spec.sessions, scenario.sessions):
        onset = None
        if onsets is not None:
            onset = onsets["sessions"].get(decl.session_id)
        blocks: List[Dict[str, Any]] = []
        bound_level: Optional[int] = None
        for block_decl, (start, stop) in zip(decl.population, session.block_slices):
            rows = session.receivers[start:stop]
            models = session.models[start:stop]
            block: Dict[str, Any] = {
                "receiver_kbps": [
                    receiver.average_rate_kbps(warmup, duration) for receiver in rows
                ],
                "final_levels": [receiver.level for receiver in rows],
                "population": [model.population for model in models],
            }
            if block_decl.attack is None:
                if onsets is not None:
                    block["window_kbps"] = [
                        receiver.average_rate_kbps(onsets["global"], duration)
                        for receiver in rows
                    ]
            elif onset is not None:
                if bound_level is None:
                    bound_level = session.spec.fair_level(config.fair_share_bps)
                bound_kbps = 1.25 * session.spec.cumulative_rate_bps(bound_level) / 1e3
                attackers: List[Dict[str, Any]] = []
                for receiver in rows:
                    attacker_kbps = receiver.average_rate_kbps(onset, duration)
                    level_containment = time_to_containment_s(
                        receiver.level_history, onset, bound_level, duration
                    )
                    rate_series = [
                        (sample.time_s, sample.rate_kbps)
                        for sample in receiver.monitor.series(end_time_s=duration)
                    ]
                    entry: Dict[str, Any] = {
                        "goodput_kbps": attacker_kbps,
                        "containment_s": combined_containment_s(
                            level_containment,
                            goodput_containment_s(
                                rate_series, onset, bound_kbps, duration
                            ),
                        ),
                        "population": receiver.population,
                    }
                    stats = getattr(receiver, "adversary_stats", None)
                    if stats is not None:
                        entry["counters"] = stats()
                    attackers.append(entry)
                block["attackers"] = attackers
            blocks.append(block)
        entry = {"session_id": decl.session_id, "blocks": blocks}
        if bound_level is not None:
            entry["bound_level"] = bound_level
        sessions.append(entry)
    return sessions


def run_region_json(payload_json: str) -> str:
    """Worker entry point: region payload JSON in, region document JSON out.

    Module-level and string-typed so it pickles into pool workers.  The
    returned document carries the per-block metric ingredients, the summed
    SIGMA counters, the recorded boundary events and the region's wall time
    (the only nondeterministic field — the merge drops it).
    """
    payload = json.loads(payload_json)
    spec = ScenarioSpec.from_dict(payload["spec"])
    warm = payload.get("warm")
    if warm is not None:
        # Warm-started region: restore the region's prefix checkpoint (the
        # boundary log was attached before the prefix ran, so pre-barrier
        # events are inside the blob) and rebind the real declarations.
        from pathlib import Path

        from .warmstart import CheckpointStore, _ensure_checkpoint

        scenario, _reused = _ensure_checkpoint(
            CheckpointStore(Path(warm["dir"])),
            warm["key"],
            ScenarioSpec.from_dict(warm["prefix"]),
            warm["barrier_s"],
            membership_log=True,
        )
        events = scenario.network.multicast.membership_log
        scenario.rebind_spec(spec)
    else:
        scenario = Scenario.from_spec(spec)
        events = []
        scenario.network.multicast.membership_log = events
    started = time.perf_counter()
    scenario.run(spec.effective_duration_s)
    wall_s = time.perf_counter() - started
    document: Dict[str, Any] = {
        "region": payload["region"],
        "sessions": _collect_region_sessions(scenario, spec, payload.get("onsets")),
        "boundary": [list(event) for event in events],
        "wall_s": wall_s,
    }
    if scenario.sigma_agents:
        document["sigma"] = {
            "valid_submissions": sum(a.valid_submissions for a in scenario.sigma_agents),
            "invalid_submissions": sum(
                a.invalid_submissions for a in scenario.sigma_agents
            ),
            "revocations": sum(a.revocations for a in scenario.sigma_agents),
            "igmp_joins_ignored": sum(
                a.igmp_joins_ignored for a in scenario.sigma_agents
            ),
            "guess_alarms": sum(a.guess_alarms for a in scenario.sigma_agents),
            "edge_agents": len(scenario.sigma_agents),
        }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# merge side
# ----------------------------------------------------------------------
def merge_boundary_events(
    plan: ShardPlan, documents: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold per-region boundary events into deterministic slot barriers.

    Events are bucketed into slots of the protocol's slot duration and
    emitted slot-major, region-major, preserving each region's own event
    order — cross-region ordering *within* a slot is not physically
    meaningful, only the slot barrier is, so the barrier order is the
    deterministic one.  The merged stream is summarised (counts + SHA-256
    digest) rather than embedded, keeping the metric document small.
    """
    slot_s = plan.slot_s
    buckets: Dict[int, List[List[Any]]] = {}
    joins = 0
    leaves = 0
    per_region: Dict[str, int] = {}
    for region_plan, document in zip(plan.regions, documents):
        events = document.get("boundary", [])
        per_region[str(region_plan.region)] = len(events)
        for event in events:
            time_s, group, host, delta = event
            slot = int(time_s / slot_s)
            buckets.setdefault(slot, []).append(
                [slot, region_plan.region, time_s, group, host, delta]
            )
            if delta > 0:
                joins += 1
            else:
                leaves += 1
    merged: List[List[Any]] = []
    for slot in sorted(buckets):
        merged.extend(buckets[slot])
    digest = hashlib.sha256(
        json.dumps(merged, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return {
        "slot_s": slot_s,
        "regions": len(plan.regions),
        "events": joins + leaves,
        "joins": joins,
        "leaves": leaves,
        "per_region": per_region,
        "digest": digest,
    }


def merge_region_results(
    plan: ShardPlan, documents: Sequence[Dict[str, Any]]
) -> RunResult:
    """Deterministically merge region documents into one :class:`RunResult`.

    Per-receiver lists are reassembled in the unsharded scenario's receiver
    index order (block-major, region-major within a block) and every float
    reduction — session averages, population weighting, the global honest
    baseline and the per-attacker excess — is recomputed in that exact
    order, so where the regional physics is decoupled the merged document
    matches the unsharded run's floats term for term.
    """
    spec = plan.spec
    config = spec.config
    duration = spec.effective_duration_s
    if len(documents) != len(plan.regions):
        raise ValueError(
            f"expected {len(plan.regions)} region documents, got {len(documents)}"
        )
    for region_plan, document in zip(plan.regions, documents):
        if document.get("region") != region_plan.region:
            raise ValueError(
                f"region document out of order: expected region "
                f"{region_plan.region}, got {document.get('region')}"
            )

    # session index -> original block index -> region-ordered block documents
    collected: Dict[int, Dict[int, List[Dict[str, Any]]]] = {}
    bound_levels: Dict[int, int] = {}
    for region_plan, document in zip(plan.regions, documents):
        for region_session, session_doc in zip(
            region_plan.sessions, document["sessions"]
        ):
            per_block = collected.setdefault(region_session.session_index, {})
            for local_index, block_index in enumerate(region_session.block_indices):
                per_block.setdefault(block_index, []).append(
                    session_doc["blocks"][local_index]
                )
            if "bound_level" in session_doc:
                bound_levels[region_session.session_index] = session_doc["bound_level"]

    metrics: Dict[str, Any] = {"multicast": {}}
    block_lengths: Dict[int, List[int]] = {}
    for s_index, decl in enumerate(spec.sessions):
        per_block = collected.get(s_index, {})
        receiver_kbps: List[float] = []
        final_levels: List[int] = []
        populations: List[int] = []
        lengths: List[int] = []
        for b_index in range(len(decl.population)):
            length = 0
            for block in per_block.get(b_index, []):
                receiver_kbps.extend(block["receiver_kbps"])
                final_levels.extend(block["final_levels"])
                populations.extend(block["population"])
                length += len(block["receiver_kbps"])
            lengths.append(length)
        block_lengths[s_index] = lengths
        total = sum(populations)
        metrics["multicast"][decl.session_id] = {
            "receiver_kbps": receiver_kbps,
            "average_kbps": sum(receiver_kbps) / len(receiver_kbps),
            "final_levels": final_levels,
            "receiver_population": populations,
            "population": total,
            "weighted_average_kbps": (
                sum(rate * count for rate, count in zip(receiver_kbps, populations))
                / total
            ),
        }

    sigma_docs = [doc["sigma"] for doc in documents if "sigma" in doc]
    if sigma_docs:
        metrics["sigma"] = {
            key: sum(doc[key] for doc in sigma_docs) for key in sigma_docs[0]
        }

    onsets = plan.onsets
    if onsets is not None:
        # The honest baseline sums (rate, weight) pairs in the unsharded
        # iteration order: sessions outer, receiver index order inner.
        honest: List[Tuple[float, int]] = []
        for s_index, decl in enumerate(spec.sessions):
            per_block = collected.get(s_index, {})
            for b_index, block_decl in enumerate(decl.population):
                if block_decl.attack is not None:
                    continue
                for block in per_block.get(b_index, []):
                    honest.extend(
                        zip(block["window_kbps"], block["population"])
                    )
        baseline = weighted_honest_baseline_kbps(honest, config.fair_share_bps / 1e3)
        protection_sessions: Dict[str, Any] = {}
        for s_index, decl in enumerate(spec.sessions):
            onset = onsets["sessions"].get(decl.session_id)
            if onset is None or not decl.adversarial_blocks():
                continue
            adversarial = set(decl.adversarial_blocks())
            per_block = collected.get(s_index, {})
            entries: Dict[str, Any] = {}
            offset = 0
            for b_index in range(len(decl.population)):
                if b_index not in adversarial:
                    offset += block_lengths[s_index][b_index]
                    continue
                for block in per_block.get(b_index, []):
                    for ingredient in block["attackers"]:
                        entry: Dict[str, Any] = {
                            "goodput_kbps": ingredient["goodput_kbps"],
                            "excess_kbps": excess_goodput_kbps(
                                ingredient["goodput_kbps"], baseline
                            ),
                            "containment_s": ingredient["containment_s"],
                            "bound_level": bound_levels[s_index],
                            "population": ingredient["population"],
                            "weighted_excess_kbps": weighted_excess_goodput_kbps(
                                ingredient["goodput_kbps"],
                                baseline,
                                ingredient["population"],
                            ),
                        }
                        if "counters" in ingredient:
                            entry["counters"] = ingredient["counters"]
                        entries[str(offset)] = entry
                        offset += 1
            protection_sessions[decl.session_id] = {
                "onset_s": onset,
                "attackers": entries,
            }
        metrics["protection"] = {
            "honest_baseline_kbps": baseline,
            "sessions": protection_sessions,
        }

    metrics["boundary"] = merge_boundary_events(plan, documents)
    return RunResult(
        scenario=spec.name,
        seed=spec.seed,
        protected=spec.protected,
        duration_s=duration,
        metrics=metrics,
    )

"""Cross-connection dedup: one simulation per distinct spec, daemon-wide.

Two clients racing the same spec must cost exactly one execution — the
second connection coalesces onto the first's in-flight task (or, if it
arrives after completion, reads the shared cache) and both receive
byte-identical results.  The in-process test pins the interleaving with a
slowed worker so the dedup path itself (not the cache) is exercised; the
subprocess test races two real clients through a real daemon and asserts
the daemon-wide invariant that only one cell was ever executed.
"""

import asyncio
import concurrent.futures
import multiprocessing
import time

import pytest

from repro.experiments import (
    PAPER_DEFAULTS,
    ExperimentRunner,
    ResultCache,
    ScenarioSpec,
    SessionDecl,
    scale_protection_spec,
)
from repro.experiments.runner import run_job
from repro.service.jobs import ExperimentScheduler
from repro.service.pool import AsyncJobPool

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker slowdown relies on fork inheriting monkeypatched workers",
)


def fast_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="concurrency-fast",
        protected=False,
        sessions=(SessionDecl("mc"),),
        duration_s=6.0,
        config=PAPER_DEFAULTS.with_duration(6.0).with_seed(seed),
    )


def slow_worker(job):
    """Hold the job long enough for a second submission to arrive."""
    time.sleep(1.0)
    return run_job(job)


class TestInProcessDedup:
    @fork_only
    def test_second_connection_coalesces_onto_inflight_cell(
        self, service_loop, monkeypatch
    ):
        spec = fast_spec()
        monkeypatch.setattr("repro.service.pool.run_job", slow_worker)

        async def scenario():
            loop = await service_loop(jobs=2)
            first = await loop.connect()
            second = await loop.connect()
            await first.send({"op": "submit", "id": "a", "spec": spec.to_dict()})
            assert (await first.recv())["event"] == "accepted"
            # The cell is now in flight (worker sleeps ~1s); race it.
            await second.send({"op": "submit", "id": "b", "spec": spec.to_dict()})
            events_a = await first.events_until("done", request_id="a")
            events_b = await second.events_until("done", request_id="b")
            first.close()
            second.close()
            stats = loop.service.scheduler.stats()
            pool_stats = loop.service.pool.stats()
            await loop.stop()
            return events_a, events_b, stats, pool_stats

        events_a, events_b, stats, pool_stats = asyncio.run(scenario())
        result_a = next(e for e in events_a if e["event"] == "result")
        result_b = next(e for e in events_b if e["event"] == "result")
        assert result_a["result"] == result_b["result"]
        assert result_a["key"] == result_b["key"]
        # Exactly one execution; the racing submission took the dedup path.
        assert stats["cells_executed"] == 1
        assert stats["dedup_hits"] == 1
        assert pool_stats["completed"] == 1
        assert {result_a["deduped"], result_b["deduped"]} == {False, True}

    @fork_only
    def test_dedup_does_not_conflate_distinct_seeds(self, service_loop, monkeypatch):
        monkeypatch.setattr("repro.service.pool.run_job", slow_worker)

        async def scenario():
            loop = await service_loop(jobs=2)
            first = await loop.connect()
            second = await loop.connect()
            await first.send(
                {"op": "submit", "id": "a", "spec": fast_spec(0).to_dict()}
            )
            await second.send(
                {"op": "submit", "id": "b", "spec": fast_spec(1).to_dict()}
            )
            events_a = await first.events_until("done", request_id="a")
            events_b = await second.events_until("done", request_id="b")
            first.close()
            second.close()
            stats = loop.service.scheduler.stats()
            await loop.stop()
            return events_a, events_b, stats

        events_a, events_b, stats = asyncio.run(scenario())
        result_a = next(e for e in events_a if e["event"] == "result")
        result_b = next(e for e in events_b if e["event"] == "result")
        assert result_a["key"] != result_b["key"]
        assert result_a["result"]["seed"] == 0
        assert result_b["result"]["seed"] == 1
        assert stats["cells_executed"] == 2
        assert stats["dedup_hits"] == 0


class TestDaemonWideDedup:
    def test_two_real_clients_one_cache_entry_one_simulation(self, daemon):
        handle = daemon(jobs=2)
        spec = fast_spec()

        def submit():
            with handle.client() as client:
                (result,) = client.run(spec, seeds=[0])
                return result.to_json()

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            outputs = list(pool.map(lambda _: submit(), range(2)))
        assert outputs[0] == outputs[1]
        with handle.client() as client:
            status = client.status()
        # However the race resolved (dedup or cache), exactly one simulation
        # ran and exactly one entry exists in the shared store.
        assert status["scheduler"]["cells_executed"] == 1
        assert (
            status["scheduler"]["dedup_hits"]
            + status["scheduler"]["cache_hits"]
        ) == 1
        assert len(list(handle.cache_dir.glob("*.json"))) == 1


class TestSetupCoalescing:
    def test_concurrent_cells_sharing_a_prefix_build_one_checkpoint(self, tmp_path):
        """Two in-flight cells planning the same checkpoint job build it once,
        like one batch does: 1 miss, 1 checkpoint job + 2 warm jobs."""
        cells = [
            scale_protection_spec(
                audience=400, strategy=strategy, attack_start_s=12.0, duration_s=18.0
            )
            for strategy in ("inflated-join", "key-replay")
        ]

        async def scenario():
            scheduler = ExperimentScheduler(
                pool=AsyncJobPool(jobs=2),
                cache=ResultCache(tmp_path),
                checkpoint_dir=tmp_path,
            )
            try:
                outcomes = await asyncio.gather(
                    *(scheduler.run_cell(spec) for spec in cells)
                )
            finally:
                scheduler.pool.close()
            return outcomes, scheduler.stats(), scheduler.pool.stats()

        outcomes, stats, pool_stats = asyncio.run(scenario())
        assert stats["checkpoint_misses"] == 1
        assert stats["checkpoint_hits"] == 0
        assert stats["warm_runs"] == 2
        assert pool_stats["completed"] == 3
        batch = ExperimentRunner(jobs=1, cache_dir=tmp_path / "batch").run(cells)
        assert [o.result.to_json() for o in outcomes] == [r.to_json() for r in batch]

"""Shard supervision: death detection, restart, failover, session replay."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster import (
    ClusterOptions,
    ClusterRouter,
    ShardCrashedError,
    ShardDeadError,
)
from repro.cluster.shard import ProcessShard
from repro.core.delta import RescaleDelta
from repro.core.problem import RankingProblem
from repro.data.rankings import ranking_from_scores
from repro.data.synthetic import generate_uniform
from repro.engine.engine import SolveRequest
from repro.loadgen import answer_digest
from repro.service import QueryServerOptions

FAST_PARAMS = {
    "cell_size": 0.2,
    "max_iterations": 4,
    "solver_options": {
        "node_limit": 60,
        "verify": False,
        "warm_start_strategy": "none",
    },
}


def build_problem(k: int = 4, seed: int = 1) -> RankingProblem:
    relation = generate_uniform(30, 3, seed=seed)
    scores = relation.matrix() @ np.asarray([0.5, 0.3, 0.2])
    return RankingProblem(relation, ranking_from_scores(scores, k=k))


def make_options(**overrides) -> ClusterOptions:
    defaults = dict(
        num_shards=2,
        server=QueryServerOptions(batch_window=0.0),
        health_interval=0.05,
        restart_backoff=0.01,
        restart_backoff_max=0.05,
    )
    defaults.update(overrides)
    return ClusterOptions(**defaults)


async def wait_until(predicate, timeout: float = 20.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.02)


def owner_of(cluster, problem) -> int:
    return cluster.shard_for(
        SolveRequest(problem, "symgd", dict(FAST_PARAMS)).fingerprint
    )


# -- satellite: the ProcessShard post-EOF race --------------------------------


def test_process_shard_call_after_worker_death_fails_fast():
    """Regression: a _call issued after the reader observed EOF used to
    register a future that no failure sweep would ever touch -- the caller
    hung forever.  The _worker_dead flag makes it fail fast instead."""
    problem = build_problem()

    async def scenario():
        shard = ProcessShard(0, QueryServerOptions(batch_window=0.0))
        await shard.start()
        try:
            await shard.submit(problem, "symgd", FAST_PARAMS)
            shard.inject_kill()
            # Wait for the reader thread to observe EOF and flip the flag.
            await asyncio.wait_for(
                asyncio.get_running_loop().run_in_executor(
                    None, shard._reader.join, 15
                ),
                timeout=20,
            )
            assert shard._worker_dead
            # The regression scenario: this call starts strictly after the
            # pending-future sweep.  It must raise promptly, not hang.
            with pytest.raises(ShardDeadError):
                await asyncio.wait_for(
                    shard.submit(problem, "symgd", FAST_PARAMS), timeout=10
                )
        finally:
            await shard.abort()

    asyncio.run(scenario())


def test_process_shard_kill_fails_inflight_requests_retryably():
    problem = build_problem()

    async def scenario():
        shard = ProcessShard(0, QueryServerOptions(batch_window=0.0))
        await shard.start()
        try:
            inflight = asyncio.ensure_future(
                shard.submit(problem, "symgd", FAST_PARAMS)
            )
            await asyncio.sleep(0.05)  # let the request cross the pipe
            shard.inject_kill()
            with pytest.raises(ShardDeadError) as excinfo:
                await asyncio.wait_for(inflight, timeout=20)
            assert excinfo.value.retryable is True
        finally:
            await shard.abort()

    asyncio.run(scenario())


# -- supervised restart + stateless failover ----------------------------------


def test_dead_shard_restarts_and_stateless_traffic_fails_over():
    problems = [build_problem(seed=s) for s in range(1, 7)]

    async def scenario():
        async with ClusterRouter(make_options()) as cluster:
            baseline = {}
            for problem in problems:
                response = await cluster.submit(problem, "symgd", FAST_PARAMS)
                baseline[owner_of(cluster, problem)] = None
                baseline[problem.fingerprint()] = answer_digest(response.result)
            victim = owner_of(cluster, problems[0])
            cluster.shards[victim].inject_kill()
            # Traffic owned by the dead shard is served by the survivor --
            # same answer, flagged as a failover -- with no caller-visible
            # error (detection happens on the data path, not only probes).
            response = await cluster.submit(problems[0], "symgd", FAST_PARAMS)
            assert response.shard != victim
            assert response.failover
            assert (
                answer_digest(response.result)
                == baseline[problems[0].fingerprint()]
            )
            await wait_until(lambda: cluster._routable(victim))
            # Post-restart: the shard serves again, bitwise-identically.
            again = await cluster.submit(problems[0], "symgd", FAST_PARAMS)
            assert again.shard == victim
            assert not again.failover
            assert (
                answer_digest(again.result)
                == baseline[problems[0].fingerprint()]
            )
            stats = await cluster.stats()
            return victim, stats

    victim, stats = asyncio.run(scenario())
    assert stats.restarts[victim] == 1
    assert stats.failovers[victim] >= 1
    assert not stats.dead[victim]
    assert len(stats.restart_log) == 1
    entry = stats.restart_log[0]
    assert entry["shard"] == victim
    assert entry["duration"] > 0


def test_process_transport_shard_is_restarted_after_a_real_kill():
    problem = build_problem()

    async def scenario():
        options = make_options(transport="process", health_interval=0.1)
        async with ClusterRouter(options) as cluster:
            first = await cluster.submit(problem, "symgd", FAST_PARAMS)
            victim = owner_of(cluster, problem)
            cluster.shards[victim].inject_kill()
            await wait_until(
                lambda: cluster._routable(victim)
                and cluster.shards[victim] is not None
                and not cluster._dead[victim],
                timeout=60,
            )
            again = await cluster.submit(problem, "symgd", FAST_PARAMS)
            health = await cluster.health()
            stats = await cluster.stats()
            return first, again, victim, health, stats

    first, again, victim, health, stats = asyncio.run(scenario())
    assert answer_digest(again.result) == answer_digest(first.result)
    assert stats.restarts[victim] == 1
    assert health["per_shard"][victim]["ok"]


# -- session journal replay ----------------------------------------------------


def test_pinned_session_survives_shard_crash_via_journal_replay():
    base = build_problem()
    deltas = [RescaleDelta(factor=2.0).to_dict()]
    more = [RescaleDelta(factor=0.5).to_dict()]

    async def reference():
        # The fault-free answer chain the recovered session must reproduce.
        async with ClusterRouter(make_options(num_shards=1)) as cluster:
            session_id = await cluster.open_session(base, "symgd", FAST_PARAMS)
            first = await cluster.submit_session(session_id, deltas=deltas)
            second = await cluster.submit_session(session_id, deltas=more)
            return answer_digest(first.result), answer_digest(second.result)

    async def scenario():
        async with ClusterRouter(make_options()) as cluster:
            session_id = await cluster.open_session(base, "symgd", FAST_PARAMS)
            shard = cluster.session_shard(session_id)
            first = await cluster.submit_session(session_id, deltas=deltas)
            cluster.shards[shard].inject_kill()
            # While the owner restarts there is nowhere to fail a pinned
            # session over to: the error says so, and says to retry.
            with pytest.raises(ShardCrashedError) as excinfo:
                await cluster.submit_session(session_id, deltas=more)
            assert excinfo.value.retryable is True
            assert not excinfo.value.terminal
            await wait_until(lambda: cluster._routable(shard))
            # The journaled base + delta chain was replayed into the fresh
            # worker; the retried edit lands on the recovered head.
            second = await cluster.submit_session(session_id, deltas=more)
            assert cluster.session_shard(session_id) == shard
            info = await cluster.session_info(session_id)
            stats = await cluster.stats()
            return (
                answer_digest(first.result),
                answer_digest(second.result),
                info,
                stats,
            )

    ref_first, ref_second = asyncio.run(reference())
    got_first, got_second, info, stats = asyncio.run(scenario())
    assert got_first == ref_first
    assert got_second == ref_second
    assert info["edits"] == 2
    assert stats.restart_log[0]["sessions_replayed"] == 1


def test_legacy_wire_key_is_ignored_by_resume_and_journal_replay():
    """A resumed session with an old ``aggressive`` flag answers as a default
    one, before and after its shard crashes and the journal is replayed."""
    base = build_problem()
    deltas = [RescaleDelta(factor=2.0).to_dict()]
    more = [RescaleDelta(factor=0.5).to_dict()]

    async def reference():
        async with ClusterRouter(make_options(num_shards=1)) as cluster:
            session_id = await cluster.open_session(base, "symgd", FAST_PARAMS)
            first = await cluster.submit_session(session_id, deltas=deltas)
            second = await cluster.submit_session(session_id, deltas=more)
            wire = await cluster.export_session(session_id)
            return wire, answer_digest(first.result), answer_digest(second.result)

    async def scenario(wire):
        legacy_wire = {**wire, "deltas": [], "aggressive": True}
        async with ClusterRouter(make_options()) as cluster:
            session_id = await cluster.resume_session(legacy_wire)
            shard = cluster.session_shard(session_id)
            first = await cluster.submit_session(session_id, deltas=deltas)
            cluster.shards[shard].inject_kill()
            await wait_until(lambda: cluster._restart_log)
            await wait_until(lambda: cluster._routable(shard))
            second = await cluster.submit_session(session_id, deltas=more)
            stats = await cluster.stats()
            return answer_digest(first.result), answer_digest(second.result), stats

    wire, ref_first, ref_second = asyncio.run(reference())
    got_first, got_second, stats = asyncio.run(scenario(wire))
    assert got_first == ref_first
    assert got_second == ref_second
    assert stats.restart_log[0]["sessions_replayed"] == 1


# -- restart budget ------------------------------------------------------------


def test_restart_budget_exhaustion_is_a_clean_terminal_error():
    problem = build_problem()

    async def scenario():
        options = make_options(num_shards=1, max_restarts=0)
        async with ClusterRouter(options) as cluster:
            await cluster.submit(problem, "symgd", FAST_PARAMS)
            cluster.shards[0].inject_kill()
            with pytest.raises(ShardCrashedError):
                await cluster.submit(problem, "symgd", FAST_PARAMS)
            await wait_until(lambda: cluster._terminal[0])
            with pytest.raises(ShardCrashedError) as excinfo:
                await cluster.submit(problem, "symgd", FAST_PARAMS)
            # Terminal: the budget is spent, retrying cannot help, and the
            # error says so instead of promising recovery.
            assert excinfo.value.terminal
            assert excinfo.value.retryable is False
            stats = await cluster.stats()
            health = await cluster.health()
            return stats, health

    stats, health = asyncio.run(scenario())
    assert stats.restarts[0] == 0
    assert stats.dead[0]
    probe = health["per_shard"][0]
    assert probe["ok"] is False and probe["terminal"]


def test_supervise_off_means_no_restart():
    problem = build_problem()

    async def scenario():
        options = make_options(supervise=False)
        async with ClusterRouter(options) as cluster:
            victim = owner_of(cluster, problem)
            cluster.shards[victim].inject_kill()
            # Data-path detection still works and stateless traffic still
            # fails over; the shard just stays down (terminal) forever.
            response = await cluster.submit(problem, "symgd", FAST_PARAMS)
            assert response.failover
            await wait_until(lambda: cluster._terminal[victim])
            stats = await cluster.stats()
            return victim, stats

    victim, stats = asyncio.run(scenario())
    assert stats.restarts[victim] == 0
    assert stats.dead[victim]


# -- restart observability -----------------------------------------------------


def test_restarts_and_failovers_surface_in_prometheus():
    from repro.obs.export import parse_prometheus

    problem = build_problem()

    async def scenario():
        async with ClusterRouter(make_options()) as cluster:
            victim = owner_of(cluster, problem)
            cluster.shards[victim].inject_kill()
            await cluster.submit(problem, "symgd", FAST_PARAMS)  # failover
            await wait_until(lambda: cluster._routable(victim))
            samples = parse_prometheus(await cluster.export_metrics_prometheus())
            return victim, samples

    victim, samples = asyncio.run(scenario())
    restarts = ("repro_cluster_restarts_total", (("shard", str(victim)),))
    failovers = ("repro_cluster_failovers_total", (("shard", str(victim)),))
    dead = ("repro_cluster_shards_dead", ())
    assert samples[restarts] == 1.0
    assert samples[failovers] >= 1.0
    assert samples[dead] == 0.0

"""Ablation — the service front door vs driving the scheduler directly.

Three measured modes over the same seeded PageRank request:

* ``direct``       — catalog-prepare + ``JobScheduler`` by hand (no
                     service layer): the baseline the front door must
                     not distort.
* ``service_cold`` — a fresh front door per round: submission,
                     admission, execution, collection, caching.
* ``cache_hit``    — one warmed front door, repeat submissions: the
                     epoch-validated result cache.

Correctness is asserted every run, at every scale: the service
payload is **byte-identical** (canonical JSON) to the direct payload,
a cache hit returns the identical payload at ≥10x the cold speed, a
table mutation invalidates the entry, and an over-quota tenant's
second job *queues* (observably, via the admission ledger) rather
than runs while the first is still in flight.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.ebsp.scheduler import JobScheduler
from repro.kvstore.local import LocalKVStore
from repro.service import FrontDoor, JobRequest, JobStatus, TenantQuota, default_catalog

from benchmarks.conftest import bench_rounds

_RESULTS: dict = {}


def _workload(scale: float) -> dict:
    n = max(150, int(500 * scale))
    return {"n_vertices": n, "n_edges": 4 * n, "iterations": 8, "seed": 7}


def _request(params: dict, tenant: str = "bench") -> JobRequest:
    return JobRequest(app="pagerank", tenant=tenant, params=params)


def _blob(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _run_direct(params: dict) -> dict:
    with LocalKVStore() as store:
        catalog = default_catalog()
        started = time.perf_counter()
        prepared = catalog.prepare(store, _request(params))
        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(prepared.job, **prepared.engine_kwargs)
            assert handle.wait(300)
        payload = prepared.collect(store, handle.result)
        elapsed = time.perf_counter() - started
        assert handle.result is not None
        return {
            "elapsed_seconds": elapsed,
            "steps": handle.result.steps,
            "state_blob": _blob(payload),
        }


def _run_service_cold(params: dict) -> dict:
    with LocalKVStore() as store:
        with FrontDoor(store) as front_door:
            started = time.perf_counter()
            record = front_door.submit(_request(params))
            assert record.wait(300)
            elapsed = time.perf_counter() - started
            assert record.status is JobStatus.DONE, record.error
            assert not record.cached
            return {
                "elapsed_seconds": elapsed,
                "steps": record.steps_seen,
                "state_blob": _blob(record.payload),
            }


@pytest.mark.parametrize("mode", ["direct", "service_cold", "cache_hit"])
def test_service_ablation(benchmark, scale, mode):
    params = _workload(scale)
    rounds: list = []

    if mode in ("direct", "service_cold"):
        runner = _run_direct if mode == "direct" else _run_service_cold

        def once():
            measurement = runner(params)
            rounds.append(measurement)
            return measurement["elapsed_seconds"]

        benchmark.pedantic(once, rounds=bench_rounds(), iterations=1)
        _RESULTS[mode] = {"rounds": rounds}
        return

    # -- cache_hit: one warmed front door, repeat submissions ---------------
    store = LocalKVStore()
    front_door = FrontDoor(store)
    warm = front_door.submit(_request(params))
    assert warm.wait(300) and warm.status is JobStatus.DONE

    def once():
        started = time.perf_counter()
        record = front_door.submit(_request(params))
        assert record.wait(60)
        elapsed = time.perf_counter() - started
        assert record.status is JobStatus.DONE
        assert record.cached, "expected a cache hit on repeat submission"
        rounds.append(
            {"elapsed_seconds": elapsed, "state_blob": _blob(record.payload)}
        )
        return elapsed

    benchmark.pedantic(once, rounds=bench_rounds(), iterations=1)
    _RESULTS["cache_hit"] = {"rounds": rounds}

    # hits return the cold payload, byte for byte
    cold_best = min(
        _RESULTS["service_cold"]["rounds"], key=lambda r: r["elapsed_seconds"]
    )
    direct_best = min(_RESULTS["direct"]["rounds"], key=lambda r: r["elapsed_seconds"])
    hit_best = min(rounds, key=lambda r: r["elapsed_seconds"])
    assert hit_best["state_blob"] == _blob(warm.payload)
    # the front door adds management, not computation: byte-identical
    # to the direct scheduler run
    assert cold_best["state_blob"] == direct_best["state_blob"]
    assert hit_best["state_blob"] == direct_best["state_blob"]

    # the cache is not magic: mutate the input table, expect a miss
    table = store.get_table(warm.payload["table"])
    table.put(0, table.get(0))
    invalidated = front_door.submit(_request(params))
    assert not invalidated.cached, "mutation must invalidate the cache entry"
    assert invalidated.wait(300) and invalidated.status is JobStatus.DONE

    # quota enforcement: a capped tenant's second job queues, not runs
    _quota_demo(params)

    # ≥10x: a hit skips preparation, scheduling, and execution entirely
    speedup = cold_best["elapsed_seconds"] / hit_best["elapsed_seconds"]
    assert speedup >= 10.0, (
        f"cache hit only {speedup:.1f}x faster than cold execution "
        f"({cold_best['elapsed_seconds']:.4f}s cold vs "
        f"{hit_best['elapsed_seconds']:.4f}s hit)"
    )

    front_door.close()
    store.close()


def _quota_demo(params: dict) -> None:
    """Two jobs, one tenant, ``max_running=1``: the second must be
    observably QUEUED while the first runs, and both must finish."""
    with LocalKVStore() as store:
        quotas = {"capped": TenantQuota(max_running=1, max_queued=4)}
        with FrontDoor(store, quotas=quotas, max_concurrent=4) as front_door:
            first = front_door.submit(_request(params, tenant="capped"))
            second = front_door.submit(
                _request(dict(params, seed=8), tenant="capped")
            )
            assert second.status is JobStatus.QUEUED, "over-quota job ran instead of queueing"
            ledger = front_door.tenants()["capped"]
            assert ledger["running"] == 1 and ledger["queued"] == 1, ledger
            assert first.wait(300) and first.status is JobStatus.DONE
            assert second.wait(300) and second.status is JobStatus.DONE
            assert second.started_at >= first.finished_at, (
                "queued job started before the running job released its slot"
            )

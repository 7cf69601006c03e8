"""PageRank: both variants against the dense reference (paper §V-A)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps.pagerank import (
    PageRankConfig,
    pagerank_batch,
    read_rank_table,
    build_pagerank_table,
    pagerank_direct,
    pagerank_mapreduce,
    read_ranks,
    reference_pagerank,
)
from repro.apps.pagerank.common import combine_rank_messages, C_TAG, S_TAG
from repro.graph.generators import power_law_directed_graph
from repro.kvstore.local import LocalKVStore


@pytest.fixture
def graph():
    return power_law_directed_graph(150, 700, seed=11)


def ranks_for(variant, adjacency, config, store=None):
    store = store or LocalKVStore(default_n_parts=4)
    n = build_pagerank_table(store, "pr", adjacency)
    result = variant(store, "pr", n, config)
    return read_ranks(store, "pr"), result


class TestCorrectness:
    def test_direct_matches_reference(self, graph):
        config = PageRankConfig(iterations=7)
        reference = reference_pagerank(graph, config)
        ranks, _ = ranks_for(pagerank_direct, graph, config)
        for v, expected in reference.items():
            assert ranks[v] == pytest.approx(expected, abs=1e-12)

    def test_mapreduce_matches_reference(self, graph):
        config = PageRankConfig(iterations=7)
        reference = reference_pagerank(graph, config)
        ranks, _ = ranks_for(pagerank_mapreduce, graph, config)
        for v, expected in reference.items():
            assert ranks[v] == pytest.approx(expected, abs=1e-12)

    def test_variants_agree_exactly(self, graph):
        config = PageRankConfig(iterations=5)
        direct, _ = ranks_for(pagerank_direct, graph, config)
        mapreduce, _ = ranks_for(pagerank_mapreduce, graph, config)
        for v in direct:
            assert direct[v] == pytest.approx(mapreduce[v], abs=1e-14)

    def test_ranks_sum_to_one(self, graph):
        ranks, _ = ranks_for(pagerank_direct, graph, PageRankConfig(iterations=6))
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)

    def test_sink_mass_redistributed(self):
        """A graph that is all sinks: every rank must equal 1/N."""
        adjacency = {v: np.empty(0, dtype=np.int64) for v in range(10)}
        ranks, _ = ranks_for(pagerank_direct, adjacency, PageRankConfig(iterations=4))
        for rank in ranks.values():
            assert rank == pytest.approx(0.1, abs=1e-12)

    def test_star_graph_hub_ranks_highest(self):
        adjacency = {0: np.empty(0, dtype=np.int64)}
        for leaf in range(1, 8):
            adjacency[leaf] = np.asarray([0], dtype=np.int64)
        ranks, _ = ranks_for(pagerank_direct, adjacency, PageRankConfig(iterations=10))
        assert ranks[0] == max(ranks.values())

    def test_parallel_edges_deduplicated(self):
        """W_u is a set cardinality: duplicate targets must not double."""
        dup = {0: np.asarray([1, 1, 1], dtype=np.int64), 1: np.asarray([0], dtype=np.int64)}
        single = {0: np.asarray([1], dtype=np.int64), 1: np.asarray([0], dtype=np.int64)}
        config = PageRankConfig(iterations=5)
        r_dup, _ = ranks_for(pagerank_direct, dup, config)
        r_single, _ = ranks_for(pagerank_direct, single, config)
        assert r_dup[0] == pytest.approx(r_single[0], abs=1e-14)


class TestStructuralCosts:
    """The quantities Table I's difference is made of."""

    def test_direct_one_step_per_iteration(self, graph):
        config = PageRankConfig(iterations=6)
        _, result = ranks_for(pagerank_direct, graph, config)
        assert result.steps == config.iterations + 1

    def test_mapreduce_two_steps_per_iteration(self, graph):
        config = PageRankConfig(iterations=6)
        _, result = ranks_for(pagerank_mapreduce, graph, config)
        assert result.steps == 2 * config.iterations

    def test_mapreduce_has_roughly_double_barriers(self, graph):
        config = PageRankConfig(iterations=8)
        _, direct = ranks_for(pagerank_direct, graph, config)
        _, mapreduce = ranks_for(pagerank_mapreduce, graph, config)
        assert mapreduce.barriers >= 2 * direct.barriers - 2


class TestCombiner:
    def test_contributions_sum(self):
        assert combine_rank_messages((C_TAG, 0.1), (C_TAG, 0.2)) == (C_TAG, pytest.approx(0.3))

    def test_state_absorbs_contribution(self):
        edges = np.asarray([1], dtype=np.int64)
        combined = combine_rank_messages((S_TAG, edges, 0.5, 0.0), (C_TAG, 0.2))
        assert combined[0] == S_TAG and combined[3] == pytest.approx(0.2)

    def test_two_states_rejected(self):
        edges = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            combine_rank_messages((S_TAG, edges, 0.5, 0.0), (S_TAG, edges, 0.5, 0.0))


class TestConfig:
    def test_bad_damping(self):
        with pytest.raises(ValueError):
            PageRankConfig(damping=1.0)
        with pytest.raises(ValueError):
            PageRankConfig(damping=0.0)

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            PageRankConfig(iterations=0)


class TestAcrossStores:
    def test_direct_same_result_everywhere(self, store, graph):
        config = PageRankConfig(iterations=4)
        reference = reference_pagerank(graph, config)
        n = build_pagerank_table(store, "pr", graph)
        pagerank_direct(store, "pr", n, config)
        ranks = read_ranks(store, "pr")
        for v, expected in reference.items():
            assert ranks[v] == pytest.approx(expected, abs=1e-12)


class TestBatchVariant:
    """The columnar variant: one job, two data planes (apps layer)."""

    def _run(self, adjacency, config, batch_compute=True):
        store = LocalKVStore(default_n_parts=4)
        n = build_pagerank_table(store, "pr", adjacency)
        result = pagerank_batch(
            store, "pr", n, config, batch_compute=batch_compute
        )
        raw = sorted(store.get_table("pr_ranks").items())
        return read_rank_table(store, "pr_ranks"), result, raw

    def test_matches_reference(self, graph):
        config = PageRankConfig(iterations=7)
        reference = reference_pagerank(graph, config)
        ranks, result, _ = self._run(graph, config)
        assert result.counters.get("batch_fallbacks", 0) == 0
        for v, expected in reference.items():
            assert ranks[v] == pytest.approx(expected, abs=1e-12)

    def test_matches_direct_variant(self, graph):
        config = PageRankConfig(iterations=5)
        direct, _ = ranks_for(pagerank_direct, graph, config)
        batch, _, _ = self._run(graph, config)
        for v in direct:
            assert batch[v] == pytest.approx(direct[v], abs=1e-12)

    def test_byte_identical_on_sink_free_graph(self):
        # without sinks, no aggregator is in play, so the per-key and
        # batch planes must produce bit-for-bit identical float64 ranks
        n = 120
        adjacency = {v: [(v + 1) % n, (v * 7 + 3) % n] for v in range(n)}
        config = PageRankConfig(iterations=6)
        _, perkey_result, perkey_raw = self._run(
            adjacency, config, batch_compute=False
        )
        _, batch_result, batch_raw = self._run(
            adjacency, config, batch_compute=True
        )
        assert pickle.dumps(batch_raw) == pickle.dumps(perkey_raw)
        assert (
            batch_result.counters["messages_sent"]
            == perkey_result.counters["messages_sent"]
        )

    def test_sink_graph_modes_agree_approximately(self):
        # sink mass flows through SumAggregator, whose fold order
        # differs between the scalar and vectorized paths: tolerance,
        # not bitwise
        adjacency = {0: [1, 2], 1: [3], 2: [3], 3: [], 4: [0, 3]}
        config = PageRankConfig(iterations=8)
        perkey, _, _ = self._run(adjacency, config, batch_compute=False)
        batch, _, _ = self._run(adjacency, config, batch_compute=True)
        reference = reference_pagerank(adjacency, config)
        for v in reference:
            assert batch[v] == pytest.approx(perkey[v], abs=1e-12)
            assert batch[v] == pytest.approx(reference[v], abs=1e-12)

    def test_ranks_table_override_leaves_graph_table_intact(self, graph):
        store = LocalKVStore(default_n_parts=4)
        n = build_pagerank_table(store, "pr", graph)
        before = {k: v.edges.tobytes() for k, v in store.get_table("pr").items()}
        pagerank_batch(
            store, "pr", n, PageRankConfig(iterations=3), ranks_table="my_ranks"
        )
        assert store.has_table("my_ranks")
        ranks = read_rank_table(store, "my_ranks")
        assert len(ranks) == n
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)
        after = {k: v.edges.tobytes() for k, v in store.get_table("pr").items()}
        assert after == before

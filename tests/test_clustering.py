"""Distributed connected components vs the networkx oracle
(SURVEY.md §5: naive oracle validates the distributed implementation)."""

from __future__ import annotations

import numpy as np
import pytest

from mel_ray.config import ClusteringConfig


def _run_cc(edge_list, distributed=True):
    import ray.data

    from mel_ray.stages.clustering import connected_components

    edges = ray.data.from_items([{"u": int(u), "v": int(v)} for u, v in edge_list])
    cfg = ClusteringConfig(
        num_buckets=8, max_rounds=12, small_graph_limit=0 if distributed else 5_000_000
    )
    comp = connected_components(edges, cfg)
    out = {}
    for row in comp.take_all():
        out[row["record_id"]] = row["cluster_id"]
    return out


def _oracle(edge_list):
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from(edge_list)
    out = {}
    for compo in nx.connected_components(g):
        root = min(compo)
        for n in compo:
            out[n] = root
    return out


@pytest.mark.usefixtures("ray_session")
class TestConnectedComponents:
    def test_small_chain_and_islands(self):
        edges = [(1, 2), (2, 3), (10, 11)]
        got = _run_cc(edges, distributed=True)
        # every node (roots included) must carry its component min
        for node, root in _oracle(edges).items():
            assert got.get(node, node) == root

    def test_random_graph_matches_networkx_distributed(self):
        rng = np.random.RandomState(5)
        n, m = 300, 500
        u = rng.randint(0, n, m)
        v = rng.randint(0, n, m)
        keep = u != v
        edges = list(zip((u[keep] * 7919 + 13).tolist(), (v[keep] * 7919 + 13).tolist()))
        got = _run_cc(edges, distributed=True)
        for node, root in _oracle(edges).items():
            assert got.get(node, node) == root

    def test_random_graph_matches_networkx_fast_path(self):
        rng = np.random.RandomState(9)
        n, m = 2000, 3000
        u = rng.randint(0, n, m)
        v = rng.randint(0, n, m)
        keep = u != v
        edges = list(zip(u[keep].tolist(), v[keep].tolist()))
        got = _run_cc(edges, distributed=False)
        for node, root in _oracle(edges).items():
            assert got.get(node, node) == root

    def test_long_path_converges_within_log_rounds(self):
        # path of 64 nodes: diameter 63, star contraction needs ~log2 rounds
        edges = [(i, i + 1) for i in range(63)]
        got = _run_cc(edges, distributed=True)
        for node in range(1, 64):
            assert got[node] == 0

    def test_small_graph_runs_edge_input_once(self, tmp_path):
        """The one-task path executes its lazy edge input once: counting
        the edges and solving must not each run it (an incremental run's
        label edges read the base cluster table)."""
        import uuid

        import ray.data

        from mel_ray.stages.clustering import connected_components

        def mark(batch):
            (tmp_path / uuid.uuid4().hex).touch()
            return batch

        edge_list = [(1, 2), (2, 3), (10, 11)]
        edges = ray.data.from_items(
            [{"u": u, "v": v} for u, v in edge_list], override_num_blocks=1
        ).map_batches(mark, batch_format="pyarrow")
        comp = connected_components(edges, ClusteringConfig(small_graph_limit=5_000_000))
        got = {row["record_id"]: row["cluster_id"] for row in comp.take_all()}
        assert got == _oracle(edge_list)
        assert len(list(tmp_path.iterdir())) == 1

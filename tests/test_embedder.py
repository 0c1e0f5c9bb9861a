"""Embedder tests: virtualization, ordered sequences, aggregators, and full
hop updates against a naive reference implementation that recomputes neighbor
groups from the raw edge list and applies each update step literally."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from adgcode import neural
from adgcode.embedder import (
    EmbedderConfig,
    EmbedderParams,
    aggregate,
    build_ordered_set,
    dump_embeddings,
    embed_all,
    embed_tensors,
    load_embeddings,
    node_groups,
    virtualize_group,
)
from adgcode.graph import ApiMethodNode, ParamType, TypeHierarchy, build_adg
from adgcode.neural import constant, gradient_check

from conftest import random_adg


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def naive_groups(adg, m, config):
    """Neighbor groups split around the node: (before it, after it)."""
    fwd: dict[str, set[int]] = {}
    bwd: dict[str, set[int]] = {}
    for e in adg.edges:
        if e.tail == m:
            fwd.setdefault(e.tag, set()).add(e.head)
        if e.head == m:
            bwd.setdefault(e.tag, set()).add(e.tail)
    if config.use_edge_direction:
        if config.use_edge_labels:
            before = [sorted(fwd[t]) for t in sorted(fwd)]
            after = [sorted(bwd[t]) for t in sorted(bwd)]
        else:
            all_f = sorted(set().union(*fwd.values())) if fwd else []
            all_b = sorted(set().union(*bwd.values())) if bwd else []
            before = [all_f] if all_f else []
            after = [all_b] if all_b else []
        return before, after
    groups = []
    if config.use_edge_labels:
        for t in sorted(set(fwd) | set(bwd)):
            groups.append(sorted(fwd.get(t, set()) | bwd.get(t, set())))
    else:
        merged = set()
        for ids in list(fwd.values()) + list(bwd.values()):
            merged |= ids
        if merged:
            groups.append(sorted(merged))
    return [], groups


def naive_embed(adg, params, config):
    """Independent reference: synchronous hops, literal per-line updates."""
    d = config.dim
    h = {m: params.base.data[m].copy() for m in range(adg.num_nodes)}

    def virt(vectors):
        if config.virtualization == "mean":
            return np.mean(np.stack(vectors), axis=0)
        flat = np.concatenate(vectors)
        out = np.zeros(config.concat_cap * d)
        out[: flat.shape[0]] = flat
        return out

    for k in range(1, config.hops + 1):
        nxt = {}
        for m in range(adg.num_nodes):
            self_vec = h[m] if config.virtualization == "mean" else virt([h[m]])
            before, after = naive_groups(adg, m, config)
            seq = (
                [virt([h[u] for u in g]) for g in before]
                + [self_vec]
                + [virt([h[u] for u in g]) for g in after]
            )
            if config.aggregator == "mean":
                agg = np.mean(np.stack(seq), axis=0)
            elif config.aggregator == "pooling":
                agg = np.max(np.stack(seq), axis=0)
            else:
                cell = params.hop_lstms[k - 1]
                hh = np.zeros(d)
                cc = np.zeros(d)
                for v in seq:
                    z = np.concatenate([hh, v])
                    i = _sigmoid(cell.w_i.data @ z + cell.b_i.data)
                    f = _sigmoid(cell.w_f.data @ z + cell.b_f.data)
                    o = _sigmoid(cell.w_o.data @ z + cell.b_o.data)
                    g = np.tanh(cell.w_c.data @ z + cell.b_c.data)
                    cc = f * cc + i * g
                    hh = o * np.tanh(cc)
                agg = hh
            pre = params.hop_weights[k - 1].data @ agg
            nxt[m] = np.tanh(pre) if config.activation == "tanh" else np.maximum(pre, 0.0)
        h = nxt
    return h


@pytest.fixture
def chain_adg():
    """m2 () -> C; m3 () -> D; m4 (C, D) -> E; m5 (E) -> F."""
    hierarchy = TypeHierarchy([ParamType(n) for n in "CDEF"])
    methods = [
        ApiMethodNode(0, "m2", (), ("C",)),
        ApiMethodNode(1, "m3", (), ("D",)),
        ApiMethodNode(2, "m4", ("C", "D"), ("E",)),
        ApiMethodNode(3, "m5", ("E",), ("F",)),
    ]
    return build_adg(methods, hierarchy)


class TestVirtualizeGroup:
    def test_singleton_mean(self):
        v = constant(np.array([1.0, 2.0]))
        assert np.allclose(virtualize_group([v], "mean").data, [1.0, 2.0])

    def test_arithmetic_mean(self):
        a = constant(np.array([1.0, 3.0]))
        b = constant(np.array([3.0, 1.0]))
        assert np.allclose(virtualize_group([a, b], "mean").data, [2.0, 2.0])

    def test_mean_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vecs = [constant(rng.standard_normal(3)) for _ in range(5)]
        base = virtualize_group(vecs, "mean").data
        for perm in itertools.permutations(range(5)):
            permuted = virtualize_group([vecs[i] for i in perm], "mean").data
            assert np.allclose(permuted, base, atol=1e-12)

    def test_concat_pads_to_cap(self):
        a = constant(np.array([1.0, 2.0]))
        b = constant(np.array([3.0, 4.0]))
        out = virtualize_group([a, b], "concat", cap=3)
        assert np.allclose(out.data, [1.0, 2.0, 3.0, 4.0, 0.0, 0.0])

    def test_concat_overflow_rejected(self):
        vecs = [constant(np.ones(2)) for _ in range(4)]
        with pytest.raises(ValueError, match="cap"):
            virtualize_group(vecs, "concat", cap=3)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            virtualize_group([], "mean")


class TestOrderedSet:
    def _embeddings(self, adg, d=3, seed=0):
        rng = np.random.default_rng(seed)
        return {m: constant(rng.standard_normal(d)) for m in range(adg.num_nodes)}

    def test_isolated_node_only_self(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        adg = build_adg([ApiMethodNode(0, "m", (), ("C",))], hierarchy)
        prev = self._embeddings(adg)
        config = EmbedderConfig(dim=3)
        seq = build_ordered_set(adg, 0, prev, config)
        assert len(seq) == 1
        assert seq[0] is prev[0]

    def test_chain_node_group_layout(self, chain_adg):
        prev = self._embeddings(chain_adg)
        config = EmbedderConfig(dim=3)
        seq = build_ordered_set(chain_adg, 2, prev, config)
        # providers of C (m2), providers of D (m3), self, consumers via E (m5)
        assert len(seq) == 4
        assert np.allclose(seq[0].data, prev[0].data)
        assert np.allclose(seq[1].data, prev[1].data)
        assert np.allclose(seq[2].data, prev[2].data)
        assert np.allclose(seq[3].data, prev[3].data)

    def test_label_ablation_changes_group_count(self, chain_adg):
        prev = self._embeddings(chain_adg)
        labelled = EmbedderConfig(dim=3, use_edge_labels=True)
        unlabelled = EmbedderConfig(dim=3, use_edge_labels=False)
        # node m4: two in-tags and one out-tag when labelled; one
        # forward and one backward group when unlabelled
        assert len(build_ordered_set(chain_adg, 2, prev, labelled)) == 1 + 2 + 1
        assert len(build_ordered_set(chain_adg, 2, prev, unlabelled)) == 1 + 1 + 1

    def test_direction_ablation_merges_sides(self, chain_adg):
        prev = self._embeddings(chain_adg)
        undirected = EmbedderConfig(dim=3, use_edge_direction=False)
        # tags C, D, E each with one neighbor
        seq = build_ordered_set(chain_adg, 2, prev, undirected)
        assert len(seq) == 1 + 3
        assert seq[0] is prev[2]  # no sides, so the node stays first

    def test_group_counts_match_edge_oracle(self):
        rng = np.random.default_rng(21)
        adg, _, _ = random_adg(rng, 5, 18)
        for labels in (True, False):
            for direction in (True, False):
                config = EmbedderConfig(
                    dim=2, use_edge_labels=labels, use_edge_direction=direction
                )
                for m in range(adg.num_nodes):
                    before, after = naive_groups(adg, m, config)
                    assert node_groups(adg, m, config) == (
                        [tuple(g) for g in before],
                        [tuple(g) for g in after],
                    )

    def test_unknown_node_rejected(self, chain_adg):
        config = EmbedderConfig(dim=3)
        with pytest.raises(Exception):
            build_ordered_set(chain_adg, 99, self._embeddings(chain_adg), config)


class TestAggregate:
    def test_mean_singleton_identity(self):
        v = constant(np.array([0.5, -1.0]))
        assert np.allclose(aggregate([v], "mean").data, v.data)

    def test_max_pooling(self):
        a = constant(np.array([1.0, -2.0]))
        b = constant(np.array([0.0, 5.0]))
        assert np.allclose(aggregate([a, b], "pooling").data, [1.0, 5.0])

    def test_lstm_is_order_sensitive(self):
        rng = np.random.default_rng(1)
        cell = neural.LstmParams.create("agg", 4, 4, rng)
        seq = [constant(rng.standard_normal(4)) for _ in range(3)]
        forward = aggregate(seq, "lstm", cell).data
        backward = aggregate(list(reversed(seq)), "lstm", cell).data
        assert not np.allclose(forward, backward)

    def test_mean_pooling_permutation_invariance(self):
        rng = np.random.default_rng(2)
        seq = [constant(rng.standard_normal(3)) for _ in range(4)]
        for kind in ("mean", "pooling"):
            base = aggregate(seq, kind).data
            for perm in itertools.permutations(range(4)):
                got = aggregate([seq[i] for i in perm], kind).data
                assert np.allclose(got, base, atol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], "mean")


class TestEmbedAll:
    def test_isolated_node_one_hop_mean(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        adg = build_adg([ApiMethodNode(0, "m", (), ("C",))], hierarchy)
        config = EmbedderConfig(dim=4, hops=1, aggregator="mean")
        params = EmbedderParams.create(adg, config, np.random.default_rng(3))
        z = embed_all(adg, params, config)[0]
        expect = np.tanh(params.hop_weights[0].data @ params.base.data[0])
        assert np.allclose(z, expect, atol=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        adg, _, _ = random_adg(rng, 5, 12)
        config = EmbedderConfig(dim=5, hops=2)
        params = EmbedderParams.create(adg, config, np.random.default_rng(8))
        a = embed_all(adg, params, config)
        b = embed_all(adg, params, config)
        for m in a:
            assert np.array_equal(a[m], b[m])

    @pytest.mark.parametrize("hops", [1, 2])
    @pytest.mark.parametrize("aggregator", ["mean", "pooling", "lstm"])
    @pytest.mark.parametrize("virtualization", ["mean", "concat"])
    def test_matches_naive_reference(self, hops, aggregator, virtualization):
        rng = np.random.default_rng(hops * 7 + len(aggregator))
        adg, _, _ = random_adg(rng, 5, 12)
        config = EmbedderConfig(
            dim=4,
            hops=hops,
            aggregator=aggregator,
            virtualization=virtualization,
            concat_cap=adg.num_nodes if virtualization == "concat" else None,
        )
        params = EmbedderParams.create(adg, config, rng)
        got = embed_all(adg, params, config)
        expect = naive_embed(adg, params, config)
        for m in range(adg.num_nodes):
            assert np.max(np.abs(got[m] - expect[m])) < 1e-10

    @pytest.mark.parametrize("labels", [True, False])
    @pytest.mark.parametrize("direction", [True, False])
    def test_matches_naive_reference_ablations(self, labels, direction):
        rng = np.random.default_rng(55)
        adg, _, _ = random_adg(rng, 6, 14)
        config = EmbedderConfig(
            dim=4, hops=2, aggregator="lstm",
            use_edge_labels=labels, use_edge_direction=direction,
        )
        params = EmbedderParams.create(adg, config, rng)
        got = embed_all(adg, params, config)
        expect = naive_embed(adg, params, config)
        for m in range(adg.num_nodes):
            assert np.max(np.abs(got[m] - expect[m])) < 1e-10

    def test_outputs_finite(self):
        rng = np.random.default_rng(6)
        adg, _, _ = random_adg(rng, 5, 15)
        config = EmbedderConfig(dim=6, hops=2, aggregator="lstm")
        params = EmbedderParams.create(adg, config, rng)
        for z in embed_all(adg, params, config).values():
            assert np.all(np.isfinite(z))

    def test_needed_subset_only(self):
        rng = np.random.default_rng(26)
        adg, _, _ = random_adg(rng, 5, 12)
        config = EmbedderConfig(dim=3, hops=2)
        params = EmbedderParams.create(adg, config, rng)
        subset = embed_tensors(adg, params, config, needed=[0, 2])
        assert set(subset) == {0, 2}
        full = embed_all(adg, params, config)
        assert np.allclose(subset[0].data, full[0], atol=1e-12)
        assert np.allclose(subset[2].data, full[2], atol=1e-12)


class TestLocalityAndInvariance:
    def _union_neighbors(self, adg, m):
        out = set()
        for e in adg.edges:
            if e.head == m:
                out.add(e.tail)
            if e.tail == m:
                out.add(e.head)
        return out

    def test_base_feature_locality(self):
        rng = np.random.default_rng(7)
        adg, _, _ = random_adg(rng, 5, 10)
        config = EmbedderConfig(dim=4, hops=2, aggregator="lstm")
        params = EmbedderParams.create(adg, config, rng)
        before = embed_all(adg, params, config)
        q = 0
        within = {q} | self._union_neighbors(adg, q)
        within |= {v for u in list(within) for v in self._union_neighbors(adg, u)}
        params.base.data[q] += 0.5
        after = embed_all(adg, params, config)
        for m in range(adg.num_nodes):
            if m not in within:
                assert np.array_equal(before[m], after[m]), f"node {m} is beyond 2 hops of {q}"

    def test_tag_relabeling_invariance_when_structure_only(self):
        rng = np.random.default_rng(8)
        hierarchy = TypeHierarchy([ParamType(f"T{i}") for i in range(4)])
        methods = []
        for i in range(10):
            n_in = int(rng.integers(0, 3))
            inputs = tuple(f"T{int(rng.integers(0, 4))}" for _ in range(n_in))
            outputs = (f"T{int(rng.integers(0, 4))}",)
            methods.append(ApiMethodNode(i, f"m{i}", inputs, outputs))
        adg = build_adg(methods, hierarchy)

        relabel = {"T0": "U2", "T1": "U0", "T2": "U3", "T3": "U1"}
        hierarchy2 = TypeHierarchy([ParamType(v) for v in relabel.values()])
        methods2 = [
            ApiMethodNode(
                m.id, m.name,
                tuple(relabel[t] for t in m.inputs),
                tuple(relabel[t] for t in m.outputs),
            )
            for m in methods
        ]
        adg2 = build_adg(methods2, hierarchy2)

        config = EmbedderConfig(
            dim=4, hops=2, aggregator="mean", virtualization="mean",
            use_edge_labels=False, use_edge_direction=False,
        )
        params = EmbedderParams.create(adg, config, np.random.default_rng(9))
        a = embed_all(adg, params, config)
        b = embed_all(adg2, params, config)
        for m in a:
            assert np.allclose(a[m], b[m], atol=1e-12)


class TestEmbedderGradients:
    @pytest.mark.parametrize("aggregator", ["mean", "pooling", "lstm"])
    def test_all_params_match_finite_differences(self, aggregator):
        rng = np.random.default_rng(10)
        adg, _, _ = random_adg(rng, 4, 9)
        config = EmbedderConfig(dim=5, hops=2, aggregator=aggregator)
        params = EmbedderParams.create(adg, config, rng)
        probes = {m: constant(rng.standard_normal(5)) for m in range(adg.num_nodes)}

        def loss():
            zs = embed_tensors(adg, params, config)
            return neural.add_n([neural.dot(zs[m], probes[m]) for m in zs])

        err = gradient_check(loss, params.parameters())
        assert err < 1e-4, f"{aggregator}: worst relative error {err}"


class TestEmbeddingDump:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        adg, _, _ = random_adg(rng, 4, 8)
        config = EmbedderConfig(dim=3, hops=1)
        params = EmbedderParams.create(adg, config, rng)
        embeddings = embed_all(adg, params, config)
        text = dump_embeddings(embeddings)
        assert text.startswith("ADG-EMB-v1\n")
        loaded = load_embeddings(text)
        assert set(loaded) == set(embeddings)
        for m in embeddings:
            assert np.array_equal(loaded[m], embeddings[m])

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            load_embeddings("WRONG\nnodes 0 dim 0\n")


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EmbedderConfig(dim=0).validate()
        with pytest.raises(ValueError):
            EmbedderConfig(dim=2, hops=0).validate()
        with pytest.raises(ValueError):
            EmbedderConfig(dim=2, aggregator="sum").validate()
        with pytest.raises(ValueError):
            EmbedderConfig(dim=2, virtualization="concat").validate()
        with pytest.raises(ValueError):
            EmbedderConfig(dim=2, activation="gelu").validate()

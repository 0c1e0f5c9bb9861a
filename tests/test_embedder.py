"""Embedder tests: the segment reductions behind virtualization and
aggregation, neighbor groups and sequence order, and full hop updates against
a naive reference implementation that recomputes neighbor groups from the raw
edge list and applies each update step literally."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from adgcode import neural
from adgcode.embedder import (
    EmbedderConfig,
    EmbedderParams,
    embed_tensors,
    hop_groups,
)
from adgcode.graph import (
    Adg, ApiMethodNode, GraphError, ParamType, TypeHierarchy, UnknownNodeError, build_adg,
)
from adgcode.neural import Parameter, constant, segment_reduce

from conftest import edge_triples, random_adg
from per_step import embed_all, gradient_check, lstm_cell, vsum


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def naive_groups(adg, m, config):
    """Neighbor groups split around the node: (before it, after it)."""
    fwd: dict[str, set[int]] = {}
    bwd: dict[str, set[int]] = {}
    for head, tag, tail in edge_triples(adg):
        if tail == m:
            fwd.setdefault(tag, set()).add(head)
        if head == m:
            bwd.setdefault(tag, set()).add(tail)
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


def naive_sequence(adg, m, config):
    """The node's groups before it, itself as a group of one, then the groups
    after it."""
    before, after = naive_groups(adg, m, config)
    return [tuple(g) for g in before] + [(m,)] + [tuple(g) for g in after]


def planned_sequences(adg, nodes, config):
    """``hop_groups``'s plan for ``nodes``, cut back into one list of groups
    per node."""
    members, sizes, per_node = hop_groups(adg, np.asarray(nodes, dtype=np.intp), config)
    assert sizes.sum() == members.size and per_node.sum() == sizes.size
    groups = [tuple(g.tolist()) for g in np.split(members, np.cumsum(sizes)[:-1])]
    ends = np.cumsum(per_node).tolist()
    return {m: groups[end - count : end] for m, count, end in zip(nodes, per_node.tolist(), ends)}


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


def chain_methods(prefix=""):
    """m2 () -> C; m3 () -> D; m4 (C, D) -> E; m5 (E) -> F, with every name
    and type carrying ``prefix``."""
    return [
        (f"{prefix}m2", (), (f"{prefix}C",)),
        (f"{prefix}m3", (), (f"{prefix}D",)),
        (f"{prefix}m4", (f"{prefix}C", f"{prefix}D"), (f"{prefix}E",)),
        (f"{prefix}m5", (f"{prefix}E",), (f"{prefix}F",)),
    ]


def build_copies(prefixes):
    """Disjoint copies of the chain graph, one per prefix."""
    specs = [spec for prefix in prefixes for spec in chain_methods(prefix)]
    hierarchy = TypeHierarchy([ParamType(f"{p}{t}") for p in prefixes for t in "CDEF"])
    methods = [ApiMethodNode(i, name, ins, outs) for i, (name, ins, outs) in enumerate(specs)]
    return build_adg(methods, hierarchy)


@pytest.fixture
def chain_adg():
    """m2 () -> C; m3 () -> D; m4 (C, D) -> E; m5 (E) -> F."""
    return build_copies([""])


def make_params(adg, config, seed=0):
    return EmbedderParams.create(adg, config, np.random.default_rng(seed))


class TestVirtualizeGroup:
    """Mean virtualization is a segment mean; concat is checked through
    ``embed_tensors``."""

    def test_singleton_mean(self):
        v = np.array([[1.0, 2.0]])
        assert np.array_equal(segment_reduce(constant(v), [1], "mean").data, v)

    def test_arithmetic_mean(self):
        rows = constant(np.array([[1.0, 3.0], [3.0, 1.0], [5.0, -1.0]]))
        out = segment_reduce(rows, [2, 1], "mean").data
        assert np.allclose(out, [[2.0, 2.0], [5.0, -1.0]])

    def test_mean_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((5, 3))
        base = segment_reduce(constant(vecs), [5], "mean").data
        for perm in itertools.permutations(range(5)):
            permuted = segment_reduce(constant(vecs[list(perm)]), [5], "mean").data
            assert np.allclose(permuted, base, atol=1e-12)

    def test_concat_pads_to_cap(self, chain_adg):
        # Unlabelled, m4's provider group is (m2, m3), so a cap of 2 is full.
        # Padding slots are zeros, so their weight columns cannot matter.
        d = 3
        tight = EmbedderConfig(dim=d, hops=1, aggregator="mean", virtualization="concat",
                               concat_cap=2, use_edge_labels=False)
        loose = EmbedderConfig(dim=d, hops=1, aggregator="mean", virtualization="concat",
                               concat_cap=4, use_edge_labels=False)
        p_tight = make_params(chain_adg, tight, seed=1)
        p_loose = make_params(chain_adg, loose, seed=2)
        p_loose.base.data[:] = p_tight.base.data
        p_loose.hop_weights[0].data[:, : 2 * d] = p_tight.hop_weights[0].data
        a = embed_all(chain_adg, p_tight, tight)
        b = embed_all(chain_adg, p_loose, loose)
        for m in a:
            assert np.allclose(a[m], b[m], atol=1e-12)

    def test_concat_overflow_rejected(self, chain_adg):
        config = EmbedderConfig(dim=2, virtualization="concat", concat_cap=1, use_edge_labels=False)
        with pytest.raises(ValueError, match="cap"):
            embed_tensors(chain_adg, make_params(chain_adg, config), config)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            segment_reduce(constant(np.ones((3, 2))), [2, 0, 1], "mean")


class TestOrderedSet:
    """Sequence layout from ``hop_groups``: the groups before the node, the
    node itself, then the groups after it."""

    def test_isolated_node_only_self(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        adg = build_adg([ApiMethodNode(0, "m", (), ("C",))], hierarchy)
        config = EmbedderConfig(dim=3, hops=1)
        assert planned_sequences(adg, [0], config) == {0: [(0,)]}
        params = make_params(adg, config)
        cell = params.hop_lstms[0]
        h, _ = lstm_cell(
            constant(params.base.data[:1]), neural.zeros((1, 3)), neural.zeros((1, 3)), cell
        )
        expect = np.tanh(params.hop_weights[0].data @ h.data[0])
        assert np.allclose(embed_all(adg, params, config)[0], expect, atol=1e-12)

    def test_chain_node_group_layout(self, chain_adg):
        config = EmbedderConfig(dim=3)
        # providers of C (m2), providers of D (m3), m4 itself, then consumers
        # via E (m5)
        assert planned_sequences(chain_adg, [2], config) == {2: [(0,), (1,), (2,), (3,)]}

    def test_label_ablation_changes_group_count(self, chain_adg):
        labelled = EmbedderConfig(dim=3, use_edge_labels=True)
        unlabelled = EmbedderConfig(dim=3, use_edge_labels=False)
        # node m4: two in-tags and one out-tag when labelled; one
        # forward and one backward group when unlabelled
        assert planned_sequences(chain_adg, [2], labelled) == {2: [(0,), (1,), (2,), (3,)]}
        assert planned_sequences(chain_adg, [2], unlabelled) == {2: [(0, 1), (2,), (3,)]}

    def test_direction_ablation_merges_sides(self, chain_adg):
        undirected = EmbedderConfig(dim=3, use_edge_direction=False)
        # tags C, D, E each with one neighbor; no sides, so the node stays first
        assert planned_sequences(chain_adg, [2], undirected) == {2: [(2,), (0,), (1,), (3,)]}

    def test_group_counts_match_edge_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            adg, _, _ = random_adg(rng, 5, 18)
            subset = sorted(rng.choice(adg.num_nodes, size=7, replace=False).tolist())
            for labels, direction in itertools.product((True, False), repeat=2):
                config = EmbedderConfig(
                    dim=2, use_edge_labels=labels, use_edge_direction=direction
                )
                for nodes in (list(range(adg.num_nodes)), subset):
                    assert planned_sequences(adg, nodes, config) == {
                        m: naive_sequence(adg, m, config) for m in nodes
                    }

    def test_unknown_node_rejected(self, chain_adg):
        config = EmbedderConfig(dim=3)
        params = make_params(chain_adg, config)
        for bad in (99, -1):
            with pytest.raises(UnknownNodeError):
                embed_tensors(chain_adg, params, config, needed=[0, bad])

    @pytest.mark.parametrize("n, types", [(2**31, 2), (2**20, 2**22)])
    def test_key_bound_rejects_graphs_that_would_wrap(self, n, types):
        # n²·3·T >= 2⁶³: the packed int64 key would wrap, so the plan refuses
        # before it allocates anything of the graph's size
        huge = SimpleNamespace(num_nodes=n, provides=np.zeros((0, types), dtype=bool))
        with pytest.raises(GraphError, match="int64"):
            hop_groups(huge, np.arange(3, dtype=np.intp), EmbedderConfig(dim=3))


class TestAggregate:
    """Mean and pooling aggregation are segment reductions; LSTM order is
    checked through ``embed_tensors``."""

    def test_mean_singleton_identity(self):
        v = Parameter("v", np.array([[0.5, -1.0], [2.0, 3.0]]))
        for kind in ("mean", "max"):
            v.grad = None
            out = segment_reduce(v, [1, 1], kind)
            assert np.array_equal(out.data, v.data)
            vsum(neural.mul(out, constant([[1.0, 2.0], [3.0, 4.0]]))).backward()
            assert np.array_equal(v.grad, [[1.0, 2.0], [3.0, 4.0]])

    def test_max_pooling(self):
        x = Parameter("x", np.array([[1.0, -2.0], [0.0, 5.0], [1.0, 5.0], [7.0, 7.0]]))
        out = segment_reduce(x, [3, 1], "max")
        assert np.array_equal(out.data, [[1.0, 5.0], [7.0, 7.0]])
        vsum(out).backward()
        # ties (1.0 in rows 0 and 2, 5.0 in rows 1 and 2) go to the earliest row
        assert np.array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])

    def test_lstm_is_order_sensitive(self, chain_adg, monkeypatch):
        # Reversing every edge swaps the provider and consumer sides.
        heads, tags, tails = chain_adg.edge_arrays
        for aggregator in ("lstm", "mean"):
            config = EmbedderConfig(dim=4, hops=1, aggregator=aggregator)
            params = make_params(chain_adg, config, seed=1)
            forward = embed_all(chain_adg, params, config)[2]
            with monkeypatch.context() as patch:
                patch.setattr(Adg, "edge_arrays", property(lambda adg: (tails, tags, heads)))
                backward = embed_all(chain_adg, params, config)[2]
            if aggregator == "lstm":
                assert not np.allclose(forward, backward)
            else:
                assert np.allclose(forward, backward, atol=1e-12)

    def test_mean_pooling_permutation_invariance(self):
        rng = np.random.default_rng(2)
        seq = rng.standard_normal((4, 3))
        for kind in ("mean", "max"):
            base = segment_reduce(constant(seq), [4], kind).data
            for perm in itertools.permutations(range(4)):
                got = segment_reduce(constant(seq[list(perm)]), [4], kind).data
                assert np.allclose(got, base, atol=1e-12)

    def test_empty_sequence_rejected(self):
        rows = constant(np.ones((3, 2)))
        for sizes in ([2], [2, 2], []):
            with pytest.raises(ValueError):
                segment_reduce(rows, sizes, "max")
        with pytest.raises(ValueError):
            segment_reduce(rows, [3], "sum")


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
        subset = embed_tensors(adg, params, config, needed=[2, 0, 2])
        assert subset.data.shape == (2, 3)  # one row per requested id, ascending
        full = embed_all(adg, params, config)
        assert np.allclose(subset.data[0], full[0], atol=1e-12)
        assert np.allclose(subset.data[1], full[2], atol=1e-12)


    @pytest.mark.parametrize("aggregator", ["lstm", "pooling"])
    def test_stays_batched(self, aggregator, monkeypatch):
        # k disjoint chains: the tape must not grow with k.
        config = EmbedderConfig(dim=3, hops=2, aggregator=aggregator)
        counts = {}
        for k in (1, 20):
            adg = build_copies([f"c{i}_" for i in range(k)])
            params = make_params(adg, config)
            made = [0]
            init = neural.Tensor.__init__

            def counting_init(self, *args, **kwargs):
                made[0] += 1
                init(self, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(neural.Tensor, "__init__", counting_init)
                embed_all(adg, params, config)
            counts[k] = made[0]
        assert counts[20] < 1.5 * counts[1], counts


class TestLocalityAndInvariance:
    def _union_neighbors(self, adg, m):
        out = set()
        for head, _, tail in edge_triples(adg):
            if head == m:
                out.add(tail)
            if tail == m:
                out.add(head)
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
        probes = constant(rng.standard_normal((adg.num_nodes, 5)))

        def loss():
            return vsum(neural.mul(embed_tensors(adg, params, config), probes))

        err = gradient_check(loss, params.parameters())
        assert err < 1e-4, f"{aggregator}: worst relative error {err}"


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EmbedderConfig(dim=0)
        with pytest.raises(ValueError):
            EmbedderConfig(dim=2, hops=0)
        with pytest.raises(ValueError):
            EmbedderConfig(dim=2, aggregator="sum")
        with pytest.raises(ValueError):
            EmbedderConfig(dim=2, virtualization="concat")
        with pytest.raises(ValueError):
            EmbedderConfig(dim=2, activation="gelu")

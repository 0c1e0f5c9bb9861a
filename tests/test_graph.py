"""Graph construction, matching, reachability, and serialization tests.

Derived expectations are checked against brute-force oracles implemented
here: an all-pairs edge matcher, a linear-scan consumer lookup, and a
set-inclusion reachability check.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adgcode import cli

from adgcode.graph import (
    ApiMethodNode,
    ConstructionError,
    GraphError,
    GraphFormatError,
    ParamType,
    TypeHierarchy,
    UnknownNodeError,
    UnknownTypeError,
    build_adg,
    dump_graph,
    load_graph,
)

from conftest import edge_triples, met_rows, random_adg, random_hierarchy, random_methods


def brute_force_edges(methods, hierarchy) -> set[tuple[int, str, int]]:
    """All-pairs (provider, matched required-type tag, consumer) triples."""
    edges = set()
    for a in methods:
        for b in methods:
            if a.id == b.id:
                continue
            for req in set(b.inputs):
                if any(hierarchy.matches(out, req) for out in set(a.outputs)):
                    edges.add((a.id, req, b.id))
    return edges


def brute_force_iit(methods, hierarchy, type_name) -> frozenset[int]:
    return frozenset(
        m.id
        for m in methods
        if any(hierarchy.matches(type_name, req) for req in m.inputs)
    )


def projected_matches(methods, hierarchy) -> int:
    """The count the edge cap bounds: over providers, over their distinct
    outputs, the consumers that accept that output."""
    return sum(
        len(brute_force_iit(methods, hierarchy, out))
        for m in methods
        for out in set(m.outputs)
    )


def reference_dump(text: str):
    """The canonical dump of ``text`` read line by line, with the edge table
    checked against the all-pairs oracle, or None if ``text`` is not a
    consistent dump."""
    lines = text.splitlines()
    if not lines or lines[0] != "ADG-GRAPH-v1":
        return None
    idx = 1

    def counted(keyword):
        nonlocal idx
        if idx >= len(lines):
            return None
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != keyword:
            return None
        try:
            count = int(parts[1])
        except ValueError:
            return None
        idx += 1
        return count if count >= 0 else None

    def rows(keyword, parse):
        nonlocal idx
        count = counted(keyword)
        if count is None or idx + count > len(lines):
            return None
        out = []
        for line in lines[idx : idx + count]:
            row = parse(line)
            if row is None:
                return None
            out.append(row)
        idx += count
        return out

    def type_row(line):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "type":
            return None
        return ParamType(parts[1], None if parts[2] == "-" else parts[2])

    def node_row(line):
        parts = line.split(" | ")
        head = parts[0].split()
        if len(parts) != 3 or len(head) != 3 or head[0] != "node":
            return None
        try:
            node_id = int(head[1])
        except ValueError:
            return None
        return ApiMethodNode(node_id, head[2], tuple(parts[1].split()), tuple(parts[2].split()))

    def edge_row(line):
        parts = line.split()
        if len(parts) != 4 or parts[0] != "edge":
            return None
        try:
            return int(parts[1]), parts[2], int(parts[3])
        except ValueError:
            return None

    types = rows("types", type_row)
    nodes = None if types is None else rows("nodes", node_row)
    edges = None if nodes is None else rows("edges", edge_row)
    if edges is None or idx != len(lines):
        return None
    try:
        hierarchy = TypeHierarchy(types)
    except GraphError:
        return None
    nodes.sort(key=lambda m: m.id)
    if [m.id for m in nodes] != list(range(len(nodes))):
        return None
    if len({m.name for m in nodes}) != len(nodes):
        return None
    if any(t not in hierarchy.names for m in nodes for t in m.inputs + m.outputs):
        return None
    if edges != sorted(brute_force_edges(nodes, hierarchy)):
        return None
    out = ["ADG-GRAPH-v1", f"types {len(types)}"]
    out += [f"type {t.name} {t.parent or '-'}" for t in sorted(types, key=lambda t: t.name)]
    out.append(f"nodes {len(nodes)}")
    out += [f"node {m.id} {m.name} | {' '.join(m.inputs)} | {' '.join(m.outputs)}" for m in nodes]
    out.append(f"edges {len(edges)}")
    out += [f"edge {h} {tag} {t}" for h, tag, t in edges]
    return "\n".join(out) + "\n"


def reachable_by_inclusion(adg, node_id, available) -> bool:
    node = adg.node(node_id)
    return all(
        any(adg.hierarchy.matches_lenient(a, req) for a in available)
        for req in set(node.inputs)
    )


class TestTypeHierarchy:
    def test_ancestors_chain(self):
        h = TypeHierarchy([ParamType("A"), ParamType("B", "A"), ParamType("C", "B")])
        assert h.ancestors("C") == ("B", "A")
        assert h.ancestors("A") == ()

    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            TypeHierarchy([ParamType("A", "B"), ParamType("B", "A")])

    def test_unresolved_parent_rejected(self):
        with pytest.raises(UnknownTypeError):
            TypeHierarchy([ParamType("A", "Missing")])

    def test_duplicate_type_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            TypeHierarchy([ParamType("A"), ParamType("A")])

    def test_empty_name_rejected(self):
        with pytest.raises(GraphError):
            TypeHierarchy([ParamType("")])


class TestParamMatch:
    def test_identity(self):
        h = TypeHierarchy([ParamType("C")])
        assert h.matches("C", "C") is True

    def test_subtype_matches_supertype(self):
        h = TypeHierarchy([ParamType("C"), ParamType("SubC", "C")])
        assert h.matches("SubC", "C") is True
        # substitutability is one-directional
        assert h.matches("C", "SubC") is False

    def test_unrelated_types(self):
        h = TypeHierarchy([ParamType("C"), ParamType("D")])
        assert h.matches("C", "D") is False

    def test_undeclared_name_raises(self):
        h = TypeHierarchy([ParamType("C")])
        with pytest.raises(UnknownTypeError, match="Z"):
            h.matches("Z", "C")
        with pytest.raises(UnknownTypeError, match="Z"):
            h.matches("C", "Z")


class TestBuildAdg:
    def test_toy_edges(self):
        hierarchy = TypeHierarchy([ParamType(n) for n in "CDE"])
        methods = [
            ApiMethodNode(0, "m2", (), ("C",)),
            ApiMethodNode(1, "m3", (), ("D",)),
            ApiMethodNode(2, "m4", ("C", "D"), ("E",)),
        ]
        adg = build_adg(methods, hierarchy)
        assert set(edge_triples(adg)) == {
            (0, "C", 2),
            (1, "D", 2),
        }

    def test_empty(self):
        adg = build_adg([], TypeHierarchy([]))
        assert adg.num_nodes == 0 and adg.num_edges == 0

    def test_matches_brute_force_20_methods(self):
        rng = np.random.default_rng(42)
        hierarchy = random_hierarchy(rng, 6)
        methods = random_methods(rng, 20, hierarchy)
        adg = build_adg(methods, hierarchy)
        got = set(edge_triples(adg))
        assert got == brute_force_edges(methods, hierarchy)

    def test_no_self_loops(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        methods = [ApiMethodNode(0, "loop", ("C",), ("C",))]
        adg = build_adg(methods, hierarchy)
        assert adg.num_edges == 0

    def test_duplicate_name_rejected(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        methods = [
            ApiMethodNode(0, "m", (), ("C",)),
            ApiMethodNode(1, "m", ("C",), ()),
        ]
        with pytest.raises(ConstructionError, match="duplicate"):
            build_adg(methods, hierarchy)

    def test_undeclared_type_rejected(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        methods = [ApiMethodNode(0, "m", ("Z",), ("C",))]
        with pytest.raises(ConstructionError, match="Z"):
            build_adg(methods, hierarchy)

    def test_non_dense_ids_rejected(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        methods = [ApiMethodNode(5, "m", (), ("C",))]
        with pytest.raises(ConstructionError, match="dense"):
            build_adg(methods, hierarchy)

    def test_scale_guard(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        methods = [
            ApiMethodNode(i, f"m{i}", ("C",), ("C",)) for i in range(40)
        ]
        with pytest.raises(ConstructionError, match="cap"):
            build_adg(methods, hierarchy, max_edges=10)

    @pytest.mark.parametrize("seed", range(4))
    def test_cap_boundary_is_the_projected_count(self, seed):
        rng = np.random.default_rng(seed)
        hierarchy = random_hierarchy(rng, 6, parent_prob=0.6)
        methods = random_methods(rng, 25, hierarchy)
        methods.append(ApiMethodNode(25, "idle", (), ()))
        methods.append(ApiMethodNode(26, "loop", ("T0",), ("T0",)))
        projected = projected_matches(methods, hierarchy)
        adg = build_adg(methods, hierarchy, max_edges=projected)
        assert set(edge_triples(adg)) == brute_force_edges(methods, hierarchy)
        with pytest.raises(ConstructionError, match="cap"):
            build_adg(methods, hierarchy, max_edges=projected - 1)

    def test_self_match_counts_toward_the_cap_but_makes_no_edge(self):
        hierarchy = TypeHierarchy([ParamType("C"), ParamType("SubC", "C")])
        methods = [ApiMethodNode(0, "loop", ("C",), ("SubC", "C"))]
        assert projected_matches(methods, hierarchy) == 2
        assert build_adg(methods, hierarchy, max_edges=2).num_edges == 0
        with pytest.raises(ConstructionError, match="cap"):
            build_adg(methods, hierarchy, max_edges=1)

    def test_node_without_inputs_or_outputs(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        methods = [
            ApiMethodNode(0, "idle", (), ()),
            ApiMethodNode(1, "make", (), ("C",)),
            ApiMethodNode(2, "use", ("C",), ()),
        ]
        adg = build_adg(methods, hierarchy, max_edges=1)
        assert edge_triples(adg) == [(1, "C", 2)]
        assert adg.reachability_rows([0], met_rows(adg, [set()]))[0].tolist() == [True]
        assert build_adg(methods[:1], hierarchy, max_edges=0).num_edges == 0
        with pytest.raises(ConstructionError, match="cap"):
            build_adg(methods, hierarchy, max_edges=0)

    def test_subtype_edge_uses_required_tag(self):
        hierarchy = TypeHierarchy([ParamType("C"), ParamType("SubC", "C")])
        methods = [
            ApiMethodNode(0, "make", (), ("SubC",)),
            ApiMethodNode(1, "use", ("C",), ()),
        ]
        adg = build_adg(methods, hierarchy)
        assert edge_triples(adg) == [(0, "C", 1)]

    def test_determinism_and_canonical_order(self):
        rng = np.random.default_rng(7)
        hierarchy = random_hierarchy(rng, 5)
        methods = random_methods(rng, 30, hierarchy)
        a = build_adg(methods, hierarchy)
        b = build_adg(list(reversed(methods)), hierarchy)
        assert edge_triples(a) == edge_triples(b)
        assert edge_triples(a) == sorted(edge_triples(a))


class TestTablesAndViews:
    """The plain-Python tables ``build_adg`` stores and the read-only arrays
    built from them on first use, against the all-pairs oracles."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_types=st.integers(1, 8),
        n_methods=st.integers(0, 25),
        picks=st.lists(st.integers(0, 9), max_size=10),
    )
    def test_tables_and_views_match_the_oracles(self, seed, n_types, n_methods, picks):
        rng = np.random.default_rng(seed)
        hierarchy = random_hierarchy(rng, n_types, parent_prob=0.6)
        methods = random_methods(rng, n_methods, hierarchy)
        projected = projected_matches(methods, hierarchy)
        adg = build_adg(methods, hierarchy, max_edges=projected)
        if projected:
            with pytest.raises(ConstructionError, match="cap"):
                build_adg(methods, hierarchy, max_edges=projected - 1)
        names = sorted(hierarchy.names)
        ids = range(len(methods))

        # the stored tables
        assert adg._type_index == {name: i for i, name in enumerate(names)}
        assert adg._satisfies == tuple(
            {u for u, r in enumerate(names) if hierarchy.matches(t, r)} for t in names
        )
        assert adg._required == tuple({names.index(t) for t in m.inputs} for m in methods)
        provided = [
            {u for u, r in enumerate(names) if any(hierarchy.matches(o, r) for o in m.outputs)}
            for m in methods
        ]
        assert adg._provided == tuple(provided)
        assert adg._consumers == tuple(
            tuple(m.id for m in methods if t in m.inputs) for t in names
        )
        edges = brute_force_edges(methods, hierarchy)
        assert sorted(edge_triples(adg)) == edge_triples(adg)
        assert set(edge_triples(adg)) == edges and adg.num_edges == len(edges)
        assert adg.degrees() == (
            tuple(sum(tail == m for _, _, tail in edges) for m in ids),
            tuple(sum(head == m for head, _, _ in edges) for m in ids),
        )
        for t in names:
            assert adg.iit_lookup(t) == brute_force_iit(methods, hierarchy, t)
        assert adg.iit_lookup("NotAType") == set()

        # the arrays: read-only, built once, equal to the tables
        heads, tags, tails = adg.edge_arrays
        assert all(column.dtype == np.intp for column in (heads, tags, tails))
        assert list(zip(heads.tolist(), tags.tolist(), tails.tolist())) == list(zip(*adg._edges))
        assert adg.provides.shape == (len(methods), len(names)) and adg.provides.dtype == bool
        assert [set(np.flatnonzero(row).tolist()) for row in adg.provides] == provided
        for view in (*adg.edge_arrays, adg.provides, adg._required_rows):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[...] = 0
        assert adg.edge_arrays is adg.edge_arrays
        assert adg.provides is adg.provides
        assert adg._required_rows is adg._required_rows

        available = {(names + ["NotAType", "T99"])[i % (len(names) + 2)] for i in picks}
        got = adg.reachability_rows(list(ids), met_rows(adg, [available, set()]))
        assert got.tolist() == [
            [reachable_by_inclusion(adg, m, available) for m in ids],
            [not m.inputs for m in methods],
        ]


class TestIitLookup:
    def test_toy(self, toy_adg):
        assert toy_adg.iit_lookup("C") == {3}
        assert toy_adg.iit_lookup("A") == {1}

    def test_unknown_key_empty(self, toy_adg):
        assert toy_adg.iit_lookup("Z") == frozenset()

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(3)
        adg, methods, hierarchy = random_adg(rng, 6, 25)
        for t in sorted(hierarchy.names):
            assert adg.iit_lookup(t) == brute_force_iit(methods, hierarchy, t)

    def test_subtype_keys_cover_supertype_consumers(self):
        hierarchy = TypeHierarchy([ParamType("C"), ParamType("SubC", "C")])
        methods = [ApiMethodNode(0, "use", ("C",), ())]
        adg = build_adg(methods, hierarchy)
        assert adg.iit_lookup("SubC") == {0}
        assert adg.iit_lookup("C") == {0}


class TestReachability:
    def test_partial_availability_not_reachable(self, toy_adg):
        assert toy_adg.is_reachable(3, {"C"}) is False

    def test_no_inputs_always_reachable(self, toy_adg):
        assert toy_adg.is_reachable(0, set()) is True

    def test_full_availability_reachable(self, toy_adg):
        assert toy_adg.is_reachable(3, {"C", "D"}) is True

    def test_unknown_node_raises(self, toy_adg):
        with pytest.raises(UnknownNodeError):
            toy_adg.is_reachable(99, set())

    def test_counter_equals_set_inclusion_on_randoms(self):
        rng = np.random.default_rng(11)
        adg, methods, hierarchy = random_adg(rng, 6, 30)
        names = sorted(hierarchy.names)
        for _ in range(300):
            node = int(rng.integers(0, adg.num_nodes))
            k = int(rng.integers(0, len(names) + 1))
            available = set(rng.choice(names, size=k, replace=False)) if k else set()
            assert adg.is_reachable(node, available) == reachable_by_inclusion(
                adg, node, available
            )

    def test_monotonicity(self):
        rng = np.random.default_rng(13)
        adg, methods, hierarchy = random_adg(rng, 5, 20)
        names = sorted(hierarchy.names)
        for _ in range(100):
            node = int(rng.integers(0, adg.num_nodes))
            k = int(rng.integers(0, len(names)))
            base = set(rng.choice(names, size=k, replace=False)) if k else set()
            if adg.is_reachable(node, base):
                extra = base | {names[int(rng.integers(0, len(names)))]}
                assert adg.is_reachable(node, extra)

    def test_undeclared_available_names_ignored(self, toy_adg):
        assert toy_adg.is_reachable(3, {"C", "D", "NotAType"}) is True
        assert toy_adg.is_reachable(3, {"NotAType"}) is False

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_types=st.integers(1, 8),
        n_methods=st.integers(1, 25),
        picks=st.lists(st.integers(0, 9), max_size=10),
    )
    def test_vector_reachability_matches_counting_oracle(self, seed, n_types, n_methods, picks):
        rng = np.random.default_rng(seed)
        hierarchy = random_hierarchy(rng, n_types, parent_prob=0.6)
        adg = build_adg(random_methods(rng, n_methods, hierarchy), hierarchy)
        names = sorted(hierarchy.names) + ["NotAType", "T99"]
        available = {names[i % len(names)] for i in picks}
        all_ids = list(range(adg.num_nodes))
        met = met_rows(adg, [available])
        got = adg.reachability_rows(all_ids, met)[0]
        assert got.dtype == bool
        assert got.tolist() == [adg.is_reachable(n, available) for n in all_ids]
        assert adg.reachability_rows(all_ids[::-1], met)[0].tolist() == got.tolist()[::-1]

    def test_reach_rows_match_one_query_per_row(self):
        rng = np.random.default_rng(41)
        adg, _, hierarchy = random_adg(rng, 7, 30)
        names = sorted(hierarchy.names) + ["NotAType"]
        shared = {names[0], names[3]}
        availables = [set(), {"NotAType"}, shared, set(names), shared] + [
            set(rng.choice(names, size=int(rng.integers(0, len(names) + 1)), replace=False))
            for _ in range(10)
        ]
        ids = rng.permutation(adg.num_nodes)
        got = adg.reachability_rows(ids, met_rows(adg, availables))
        assert got.dtype == bool and got.shape == (len(availables), len(ids))
        assert got.tolist() == [[adg.is_reachable(n, a) for n in ids] for a in availables]
        assert adg.reachability_rows(ids, met_rows(adg, [])).shape == (0, len(ids))

    def test_vector_reachability_unknown_node_raises(self, toy_adg):
        with pytest.raises(UnknownNodeError):
            toy_adg.reachability_rows([0, 4], met_rows(toy_adg, [set()]))
        with pytest.raises(UnknownNodeError):
            toy_adg.reachability_rows([-1], met_rows(toy_adg, [set()]))
        assert toy_adg.reachability_rows([], met_rows(toy_adg, [{"A"}]))[0].shape == (0,)


class TestDegreeStats:
    def test_toy_m4(self, toy_adg):
        indegree, outdegree = toy_adg.degrees()
        assert indegree == (0, 1, 0, 2)
        assert outdegree == (1, 1, 1, 0)

    def test_isolated_zeros(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        adg = build_adg([ApiMethodNode(0, "m", (), ("C",))], hierarchy)
        assert adg.degrees() == ((0,), (0,))

    def test_two_providers_one_tag(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        methods = [
            ApiMethodNode(0, "p1", (), ("C",)),
            ApiMethodNode(1, "p2", (), ("C",)),
            ApiMethodNode(2, "use", ("C",), ()),
        ]
        adg = build_adg(methods, hierarchy)
        indegree, outdegree = adg.degrees()
        assert indegree == (0, 0, 2)
        assert outdegree == (1, 1, 0)

    def test_invariants_on_randoms(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            adg, _, _ = random_adg(rng, 6, 25)
            indegree, outdegree = adg.degrees()
            edges = edge_triples(adg)
            assert indegree == tuple(
                sum(tail == m for _, _, tail in edges) for m in range(adg.num_nodes)
            )
            assert outdegree == tuple(
                sum(head == m for head, _, _ in edges) for m in range(adg.num_nodes)
            )


class TestEdgeInvariants:
    def test_soundness_on_randoms(self):
        rng = np.random.default_rng(29)
        adg, methods, hierarchy = random_adg(rng, 6, 40)
        by_id = {m.id: m for m in methods}
        for head, tag, tail in edge_triples(adg):
            assert head != tail
            # the tag is a required input type of the tail matched by some
            # output of the head
            assert tag in set(by_id[tail].inputs)
            assert any(
                hierarchy.matches(out, tag) for out in set(by_id[head].outputs)
            )

    def test_completeness_up_to_200_nodes(self):
        rng = np.random.default_rng(31)
        hierarchy = random_hierarchy(rng, 8)
        methods = random_methods(rng, 200, hierarchy)
        adg = build_adg(methods, hierarchy)
        assert set(edge_triples(adg)) == brute_force_edges(
            methods, hierarchy
        )


class TestSerialization:
    def test_round_trip_bit_exact(self, toy_adg):
        text = dump_graph(toy_adg)
        again = dump_graph(load_graph(text))
        assert again == text

    def test_round_trip_random(self):
        rng = np.random.default_rng(37)
        adg, _, _ = random_adg(rng, 6, 30)
        text = dump_graph(adg)
        loaded = load_graph(text)
        assert dump_graph(loaded) == text
        assert edge_triples(loaded) == edge_triples(adg)

    def test_empty_graph_round_trip(self):
        adg = build_adg([], TypeHierarchy([]))
        assert dump_graph(load_graph(dump_graph(adg))) == dump_graph(adg)

    def test_bad_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            load_graph("NOPE\ntypes 0\nnodes 0\nedges 0\n")

    def test_truncated(self, toy_adg):
        text = dump_graph(toy_adg)
        lines = text.splitlines()
        with pytest.raises(GraphFormatError):
            load_graph("\n".join(lines[:3]) + "\n")

    def test_trailing_garbage(self, toy_adg):
        with pytest.raises(GraphFormatError, match="trailing"):
            load_graph(dump_graph(toy_adg) + "extra\n")

    def test_edge_rows_are_compared_by_value(self, toy_adg):
        text = dump_graph(toy_adg)
        respelt = text.replace("edge 0 A 1", "edge\t0  A +01 ")
        assert respelt != text
        assert dump_graph(load_graph(respelt)) == text
        with pytest.raises(GraphFormatError, match="bad edge ids"):
            load_graph(text.replace("edge 0 A 1", "edge 0 A one"))

    def test_tampered_edges_rejected(self, toy_adg):
        text = dump_graph(toy_adg)
        tampered = text.replace("edge 0 A 1", "edge 0 A 2")
        with pytest.raises(GraphFormatError):
            load_graph(tampered)


def _mutate(data: bytes, how: str, at: int, value: int) -> bytes:
    """``data`` cut at ``at``, or with the line or byte at ``at`` deleted, or
    with that byte XORed with ``value``."""
    if how == "truncate":
        return data[: at % (len(data) + 1)]
    if how == "delete-line":
        lines = data.splitlines(keepends=True)
        k = at % len(lines)
        return b"".join(lines[:k] + lines[k + 1 :])
    k = at % len(data)
    if how == "flip":
        return data[:k] + bytes([data[k] ^ value]) + data[k + 1 :]
    return data[:k] + data[k + 1 :]


@pytest.fixture(scope="module")
def train_config(tmp_path_factory):
    """A train config whose graph file each example overwrites."""
    work = tmp_path_factory.mktemp("mutated-graph")
    (work / "train.tsv").write_text("make c\tm0 ( ) ;\n")
    config = work / "config.json"
    config.write_text(json.dumps({
        "paths": {
            "graph": str(work / "graph.adg"),
            "train": str(work / "train.tsv"),
            "checkpoint": str(work / "model.ckpt"),
        },
        "train": {"max_steps": 1},
    }))
    return work / "graph.adg", str(config)


class TestLoaderMutations:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_types=st.integers(1, 5),
        n_methods=st.integers(0, 8),
        how=st.sampled_from(["truncate", "delete-line", "flip", "delete-byte"]),
        at=st.integers(0, 2**16),
        value=st.integers(1, 255),
    )
    def test_mutant_loads_as_reference_or_raises(
        self, train_config, seed, n_types, n_methods, how, at, value
    ):
        rng = np.random.default_rng(seed)
        hierarchy = random_hierarchy(rng, n_types, parent_prob=0.6)
        adg = build_adg(random_methods(rng, n_methods, hierarchy), hierarchy)
        data = _mutate(dump_graph(adg).encode("utf-8"), how, at, value)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            text = None
        if text is not None:
            try:
                got = dump_graph(load_graph(text))
            except GraphFormatError:
                got = None
            assert got == reference_dump(text)
            if got is not None:
                return
        graph_path, config = train_config
        graph_path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run(["train", "--config", config], out=io.StringIO())
        assert code == cli.EXIT_DATA
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()

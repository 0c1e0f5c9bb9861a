"""Graph construction, matching, reachability, and serialization tests.

Derived expectations are checked against brute-force oracles implemented
here: an all-pairs edge matcher, a linear-scan consumer lookup, and a
set-inclusion reachability check.
"""

from __future__ import annotations

import numpy as np
import pytest

from adgcode.graph import (
    ApiMethodNode,
    ConstructionError,
    Dependency,
    GraphError,
    GraphFormatError,
    ParamType,
    TypeHierarchy,
    UnknownNodeError,
    UnknownTypeError,
    build_adg,
    classify_dependency,
    dump_graph,
    load_graph,
    param_match,
)

from conftest import random_adg, random_hierarchy, random_methods


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
        assert h.subtypes("A") == {"A", "B", "C"}

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
        assert param_match("C", "C", h) is True

    def test_subtype_matches_supertype(self):
        h = TypeHierarchy([ParamType("C"), ParamType("SubC", "C")])
        assert param_match("SubC", "C", h) is True
        # substitutability is one-directional
        assert param_match("C", "SubC", h) is False

    def test_unrelated_types(self):
        h = TypeHierarchy([ParamType("C"), ParamType("D")])
        assert param_match("C", "D", h) is False

    def test_undeclared_name_raises(self):
        h = TypeHierarchy([ParamType("C")])
        with pytest.raises(UnknownTypeError, match="Z"):
            param_match("Z", "C", h)
        with pytest.raises(UnknownTypeError, match="Z"):
            param_match("C", "Z", h)


class TestClassifyDependency:
    @pytest.fixture
    def hierarchy(self):
        return TypeHierarchy([ParamType(n) for n in "CDE"])

    def test_full(self, hierarchy):
        a = ApiMethodNode(0, "a", (), ("C", "D"))
        b = ApiMethodNode(1, "b", ("C", "D"), ())
        assert classify_dependency(a, b, hierarchy) is Dependency.FULL

    def test_partial(self, hierarchy):
        a = ApiMethodNode(0, "a", (), ("C",))
        b = ApiMethodNode(1, "b", ("C", "D"), ())
        assert classify_dependency(a, b, hierarchy) is Dependency.PARTIAL

    def test_none(self, hierarchy):
        a = ApiMethodNode(0, "a", (), ("E",))
        b = ApiMethodNode(1, "b", ("C", "D"), ())
        assert classify_dependency(a, b, hierarchy) is Dependency.NONE

    def test_no_inputs_is_full(self, hierarchy):
        a = ApiMethodNode(0, "a", (), ("E",))
        b = ApiMethodNode(1, "b", (), ("C",))
        assert classify_dependency(a, b, hierarchy) is Dependency.FULL


class TestBuildAdg:
    def test_toy_edges(self):
        hierarchy = TypeHierarchy([ParamType(n) for n in "CDE"])
        methods = [
            ApiMethodNode(0, "m2", (), ("C",)),
            ApiMethodNode(1, "m3", (), ("D",)),
            ApiMethodNode(2, "m4", ("C", "D"), ("E",)),
        ]
        adg = build_adg(methods, hierarchy)
        assert set((e.head, e.tag, e.tail) for e in adg.edges) == {
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
        got = set((e.head, e.tag, e.tail) for e in adg.edges)
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

    def test_subtype_edge_uses_required_tag(self):
        hierarchy = TypeHierarchy([ParamType("C"), ParamType("SubC", "C")])
        methods = [
            ApiMethodNode(0, "make", (), ("SubC",)),
            ApiMethodNode(1, "use", ("C",), ()),
        ]
        adg = build_adg(methods, hierarchy)
        assert [(e.head, e.tag, e.tail) for e in adg.edges] == [(0, "C", 1)]

    def test_determinism_and_canonical_order(self):
        rng = np.random.default_rng(7)
        hierarchy = random_hierarchy(rng, 5)
        methods = random_methods(rng, 30, hierarchy)
        a = build_adg(methods, hierarchy)
        b = build_adg(list(reversed(methods)), hierarchy)
        assert a.edges == b.edges
        assert list(a.edges) == sorted(a.edges, key=lambda e: (e.head, e.tag, e.tail))


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


class TestNeighbors:
    def test_forward_toy(self, toy_adg):
        assert toy_adg.forward_members(3) == {"C": (1,), "D": (2,)}

    def test_backward_toy(self, toy_adg):
        assert toy_adg.backward_members(1) == {"C": (3,)}

    def test_isolated_node_empty(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        adg = build_adg([ApiMethodNode(0, "m", (), ("C",))], hierarchy)
        assert adg.forward_members(0) == {}
        assert adg.backward_members(0) == {}

    def test_unknown_node_raises(self, toy_adg):
        with pytest.raises(UnknownNodeError):
            toy_adg.forward_members(42)
        with pytest.raises(UnknownNodeError):
            toy_adg.backward_members(42)

    def test_matches_edge_filter_oracle(self):
        rng = np.random.default_rng(17)
        adg, _, _ = random_adg(rng, 5, 25)
        for m in range(adg.num_nodes):
            fwd_oracle: dict[str, set[int]] = {}
            bwd_oracle: dict[str, set[int]] = {}
            for e in adg.edges:
                if e.tail == m:
                    fwd_oracle.setdefault(e.tag, set()).add(e.head)
                if e.head == m:
                    bwd_oracle.setdefault(e.tag, set()).add(e.tail)
            assert adg.forward_members(m) == {
                t: tuple(sorted(s)) for t, s in fwd_oracle.items()
            }
            assert adg.backward_members(m) == {
                t: tuple(sorted(s)) for t, s in bwd_oracle.items()
            }


class TestDegreeStats:
    def test_toy_m4(self, toy_adg):
        stats = toy_adg.degree_stats(3)
        assert stats.indegree == 2
        assert stats.intagdegree == 2
        assert stats.in_tags == {"C", "D"}
        assert stats.outdegree == 0 and stats.outtagdegree == 0

    def test_isolated_zeros(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        adg = build_adg([ApiMethodNode(0, "m", (), ("C",))], hierarchy)
        stats = adg.degree_stats(0)
        assert (stats.indegree, stats.intagdegree, stats.outdegree, stats.outtagdegree) == (0, 0, 0, 0)
        assert stats.in_tags == frozenset() and stats.out_tags == frozenset()

    def test_two_providers_one_tag(self):
        hierarchy = TypeHierarchy([ParamType("C")])
        methods = [
            ApiMethodNode(0, "p1", (), ("C",)),
            ApiMethodNode(1, "p2", (), ("C",)),
            ApiMethodNode(2, "use", ("C",), ()),
        ]
        adg = build_adg(methods, hierarchy)
        stats = adg.degree_stats(2)
        assert stats.indegree == 2 and stats.intagdegree == 1

    def test_invariants_on_randoms(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            adg, _, _ = random_adg(rng, 6, 25)
            for m in range(adg.num_nodes):
                s = adg.degree_stats(m)
                assert s.intagdegree <= s.indegree
                assert s.outtagdegree <= s.outdegree
                assert len(s.in_tags) == s.intagdegree
                assert len(s.out_tags) == s.outtagdegree


class TestEdgeInvariants:
    def test_soundness_on_randoms(self):
        rng = np.random.default_rng(29)
        adg, methods, hierarchy = random_adg(rng, 6, 40)
        by_id = {m.id: m for m in methods}
        for e in adg.edges:
            assert e.head != e.tail
            # the tag is a required input type of the tail matched by some
            # output of the head
            assert e.tag in set(by_id[e.tail].inputs)
            assert any(
                hierarchy.matches(out, e.tag) for out in set(by_id[e.head].outputs)
            )

    def test_completeness_up_to_200_nodes(self):
        rng = np.random.default_rng(31)
        hierarchy = random_hierarchy(rng, 8)
        methods = random_methods(rng, 200, hierarchy)
        adg = build_adg(methods, hierarchy)
        assert set((e.head, e.tag, e.tail) for e in adg.edges) == brute_force_edges(
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
        assert loaded.edges == adg.edges

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

    def test_tampered_edges_rejected(self, toy_adg):
        text = dump_graph(toy_adg)
        tampered = text.replace("edge 0 A 1", "edge 0 A 2")
        with pytest.raises(GraphFormatError):
            load_graph(tampered)

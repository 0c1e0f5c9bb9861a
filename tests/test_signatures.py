"""Signature grammar, dataset format, and token-linking tests."""

from __future__ import annotations

import numpy as np
import pytest

from adgcode.graph import build_adg
from adgcode.signatures import (
    DataFormatError,
    SignatureError,
    format_pairs,
    link_api_tokens,
    parse_pairs,
    parse_signatures,
    tokenize_description,
)

from conftest import random_hierarchy, random_methods


class TestParse:
    def test_basic_method(self):
        corpus = parse_signatures("type C\ntype D\ntype E\nmethod m4 (C, D) -> E\n")
        assert len(corpus.methods) == 1
        m = corpus.methods[0]
        assert m.name == "m4"
        assert m.inputs == ("C", "D")
        assert m.outputs == ("E",)

    def test_parent_declaration(self):
        corpus = parse_signatures("type C\ntype SubC : C\n")
        decls = {t.name: t.parent for t in corpus.types}
        assert decls == {"C": None, "SubC": "C"}

    def test_comments_and_blanks_ignored(self):
        corpus = parse_signatures("# a comment\n\n  \ntype C\n  # more\nmethod m () -> C\n")
        assert len(corpus.types) == 1 and len(corpus.methods) == 1

    def test_no_inputs_no_outputs(self):
        corpus = parse_signatures("method nop () ->\n")
        assert corpus.methods[0].inputs == ()
        assert corpus.methods[0].outputs == ()

    def test_implicit_type_declaration(self):
        corpus = parse_signatures("method m (C) -> D\n")
        assert {t.name for t in corpus.types} == {"C", "D"}
        assert all(t.implicit for t in corpus.types)

    def test_implicit_upgraded_by_explicit(self):
        corpus = parse_signatures("method m (SubC) -> SubC\ntype SubC : C\n")
        decl = {t.name: t for t in corpus.types}
        assert decl["SubC"].parent == "C"
        assert not decl["SubC"].implicit

    def test_line_provenance(self):
        corpus = parse_signatures("type C\n\nmethod m () -> C\n")
        assert corpus.types[0].line == 1
        assert corpus.methods[0].line == 3

    def test_syntax_error_has_line_and_column(self):
        with pytest.raises(SignatureError, match=r"line 2, col 12"):
            parse_signatures("type C\nmethod m ( -> C\n")

    def test_unexpected_character(self):
        with pytest.raises(SignatureError, match=r"line 1"):
            parse_signatures("type C$\n")

    def test_duplicate_method_names_both_lines(self):
        with pytest.raises(SignatureError, match=r"line 3.*line 2"):
            parse_signatures("type C\nmethod m () -> C\nmethod m (C) ->\n")

    def test_duplicate_explicit_type_names_both_lines(self):
        with pytest.raises(SignatureError, match=r"line 2.*line 1"):
            parse_signatures("type C\ntype C\n")

    def test_unknown_keyword(self):
        with pytest.raises(SignatureError, match="expected 'type' or 'method'"):
            parse_signatures("import C\n")

    def test_qualified_and_overload_names(self):
        corpus = parse_signatures("type C\nmethod java.util.List.add#2 (C) -> C\n")
        assert corpus.methods[0].name == "java.util.List.add#2"


class TestRoundTrip:
    def test_parse_emit_parse_is_identity(self):
        rng = np.random.default_rng(5)
        hierarchy = random_hierarchy(rng, 8)
        methods = random_methods(rng, 160, hierarchy)
        lines = []
        for t in hierarchy.types():
            lines.append(f"type {t.name}" if t.parent is None else f"type {t.name} : {t.parent}")
        for m in methods:
            lines.append(f"method {m.name} ({', '.join(m.inputs)}) -> {', '.join(m.outputs)}")
        corpus = parse_signatures("\n".join(lines) + "\n")
        assert corpus.hierarchy().types() == hierarchy.types()
        assert corpus.nodes() == tuple(methods)


class TestNodes:
    def test_dense_ids_in_declaration_order(self):
        corpus = parse_signatures("type C\nmethod a () -> C\nmethod b (C) ->\n")
        nodes = corpus.nodes()
        assert [(n.id, n.name) for n in nodes] == [(0, "a"), (1, "b")]

    def test_hierarchy_builds(self):
        corpus = parse_signatures("type C\ntype SubC : C\nmethod m (C) -> SubC\n")
        h = corpus.hierarchy()
        assert h.matches("SubC", "C")


class TestLinkApiTokens:
    @pytest.fixture
    def adg(self):
        corpus = parse_signatures(
            "type C\ntype D\ntype E\n"
            "method m2 () -> C\nmethod m3 () -> D\nmethod m4 (C, D) -> E\n"
        )
        return build_adg(corpus.nodes(), corpus.hierarchy())

    def test_name_equality(self, adg):
        index = link_api_tokens(["foo", "m4", "("], adg)
        assert index == {"m4": adg.id_of("m4")}

    def test_no_method_names(self, adg):
        assert link_api_tokens(["x", "=", ";"], adg) == {}

    def test_matches_cross_product_oracle(self):
        rng = np.random.default_rng(9)
        hierarchy = random_hierarchy(rng, 5)
        methods = random_methods(rng, 30, hierarchy)
        adg = build_adg(methods, hierarchy)
        vocabulary = [f"m{i}" for i in range(0, 60, 2)] + ["(", ")", "v1"]
        index = link_api_tokens(vocabulary, adg)
        oracle = {
            tok: m.id
            for tok in vocabulary
            for m in methods
            if tok == m.name
        }
        assert index == oracle
        for node_id in index.values():
            assert 0 <= node_id < adg.num_nodes


class TestTokenizers:
    def test_description_lowercases_and_strips(self):
        assert tokenize_description("Binds a Session, to the Thread!") == [
            "binds", "a", "session", "to", "the", "thread",
        ]

    def test_description_keeps_qualified_names(self):
        assert tokenize_description("call java.util.List.add#2 now") == [
            "call", "java.util.list.add#2", "now",
        ]


class TestDatasets:
    def test_parse_two_fields(self):
        pairs = parse_pairs("a b\tx y z\n")
        assert pairs == [(("a", "b"), ("x", "y", "z"))]

    def test_blank_lines_skipped(self):
        assert len(parse_pairs("a\tb\n\na\tc\n")) == 2

    def test_wrong_field_count(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_pairs("only one field\n")
        with pytest.raises(DataFormatError, match="line 2"):
            parse_pairs("a\tb\na\tb\tc\n")

    def test_format_round_trip(self):
        pairs = [(("a", "b"), ("x",)), (("c",), ("y", "z"))]
        assert parse_pairs(format_pairs(pairs)) == pairs

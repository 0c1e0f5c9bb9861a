"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to stream the
per-criterion lines as they complete).
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time

import mpmath
import numpy as np
import pytest

from adgcode import cli, metrics, neural
from adgcode.embedder import EmbedderConfig, EmbedderParams
from adgcode.graph import build_adg
from adgcode.model import (
    ModelConfig,
    Seq2SeqModel,
    TrainConfig,
    Vocabulary,
    beam_search,
    generate_greedy,
    train,
)
from adgcode.signatures import parse_signatures
from adgcode.synthetic import SyntheticSpec, generate

from conftest import edge_triples, random_adg, random_hierarchy, random_methods
from per_step import embed_all, gradient_check
from test_embedder import naive_embed
from test_graph import brute_force_edges, brute_force_iit, reachable_by_inclusion
from test_metrics import (
    oracle_bleu,
    oracle_cider,
    oracle_ribes,
    oracle_rouge_l,
    oracle_rouge_n,
    random_pairs,
)


def criterion(number: int, title: str, budget_seconds: float):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"criterion {number:2d} FAIL  {title} ({elapsed:.1f}s)", file=sys.stderr)
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number:2d} PASS  {title} ({elapsed:.1f}s)", file=sys.stderr)
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
            )
        return wrapper
    return decorate


def build_from_signatures(text: str):
    corpus = parse_signatures(text)
    return build_adg(corpus.nodes(), corpus.hierarchy())


@criterion(1, "toy graph reproduces the expected tagged edges", 1.0)
def test_01_toy_graph_edges():
    corpus = parse_signatures(
        "type C\ntype D\ntype E\n"
        "method m2 () -> C\nmethod m3 () -> D\nmethod m4 (C, D) -> E\n"
    )
    adg = build_adg(corpus.nodes(), corpus.hierarchy())
    got = {(adg.node(head).name, tag, adg.node(tail).name) for head, tag, tail in edge_triples(adg)}
    assert {("m2", "C", "m4"), ("m3", "D", "m4")} <= got
    implied = brute_force_edges(corpus.nodes(), corpus.hierarchy())
    assert set(edge_triples(adg)) == implied
    assert got == {("m2", "C", "m4"), ("m3", "D", "m4")}  # nothing else implied here


@criterion(2, "counting reachability equals set inclusion", 5.0)
def test_02_reachability():
    adg = build_from_signatures(
        "type C\ntype D\ntype E\n"
        "method m2 () -> C\nmethod m3 () -> D\nmethod m4 (C, D) -> E\n"
    )
    m4 = adg.id_of("m4")
    assert adg.is_reachable(m4, {"C"}) is False
    assert adg.is_reachable(m4, {"C", "D"}) is True

    rng = np.random.default_rng(1002)
    adg2, _, hierarchy = random_adg(rng, 7, 40)
    names = sorted(hierarchy.names)
    for _ in range(1000):
        node = int(rng.integers(0, adg2.num_nodes))
        k = int(rng.integers(0, len(names) + 1))
        available = set(rng.choice(names, size=k, replace=False)) if k else set()
        assert adg2.is_reachable(node, available) == reachable_by_inclusion(
            adg2, node, available
        )


@criterion(3, "construction equals all-pairs brute force on 50 corpora", 30.0)
def test_03_graph_oracle_equivalence():
    rng = np.random.default_rng(1003)
    sizes = list(rng.integers(2, 120, size=48)) + [200, 200]
    for i, n in enumerate(sizes):
        hierarchy = random_hierarchy(rng, int(rng.integers(3, 9)))
        methods = random_methods(rng, int(n), hierarchy)
        adg = build_adg(methods, hierarchy)
        assert set(edge_triples(adg)) == brute_force_edges(
            methods, hierarchy
        ), f"edge mismatch on corpus {i}"
        for t in sorted(hierarchy.names):
            assert adg.iit_lookup(t) == brute_force_iit(methods, hierarchy, t), (
                f"index mismatch on corpus {i}, type {t}"
            )


@criterion(4, "hop embedding equals the naive reference on all variants", 60.0)
def test_04_embedding_oracle():
    rng = np.random.default_rng(1004)
    graphs = []
    for _ in range(20):
        adg, _, _ = random_adg(rng, int(rng.integers(3, 7)), int(rng.integers(4, 21)))
        graphs.append((adg, int(rng.integers(2, 9))))
    for hops in (1, 2):
        for aggregator in ("mean", "pooling", "lstm"):
            for labels in (True, False):
                for direction in (True, False):
                    for adg, dim in graphs:
                        config = EmbedderConfig(
                            dim=dim, hops=hops, aggregator=aggregator,
                            use_edge_labels=labels, use_edge_direction=direction,
                        )
                        params = EmbedderParams.create(adg, config, rng)
                        got = embed_all(adg, params, config)
                        expect = naive_embed(adg, params, config)
                        worst = max(
                            float(np.max(np.abs(got[m] - expect[m])))
                            for m in range(adg.num_nodes)
                        )
                        assert worst < 1e-10, (hops, aggregator, labels, direction, worst)


@criterion(5, "all micro-model gradients match finite differences", 120.0)
def test_05_gradient_validation():
    corpus = parse_signatures(
        "type A\ntype B\ntype C\n"
        "method f0 () -> A\nmethod f1 () -> B\nmethod f2 (A) -> C\n"
        "method f3 (A, B) -> C\nmethod f4 (C) -> A\nmethod f5 (B, C) -> B\n"
    )
    adg = build_adg(corpus.nodes(), corpus.hierarchy())
    assert adg.num_nodes == 6
    desc_vocab = Vocabulary.from_sequences([["alpha", "beta", "gamma", "delta", "epsilon"]])
    code_vocab = Vocabulary.from_sequences([["f0", "f2", "f3", "(", ")", ";", "x", "="]])
    assert len(code_vocab) == 12
    config = ModelConfig(
        word_dim=8, code_dim=8, hidden_dim=8, mlp_hidden=8,
        relu_layers=1, relu_window=1, dropout=0.0,
    )
    model = Seq2SeqModel(
        desc_vocab, code_vocab, adg, config, EmbedderConfig(dim=8), seed=1005
    )
    desc_ids = desc_vocab.encode(["alpha", "beta", "gamma", "delta", "epsilon"])
    code_ids = code_vocab.encode(["f0", "f2", "x", "=", "f3"])

    def loss():
        return model.sequence_loss([(desc_ids, code_ids)], model.embed_nodes())

    worst = gradient_check(loss, model.parameters())
    assert worst < 1e-4, f"worst relative gradient error {worst}"


@criterion(6, "warmup schedule value and shape", 5.0)
def test_06_schedule():
    with mpmath.workdps(60):
        expect = mpmath.mpf(256) ** mpmath.mpf("-0.5") * mpmath.mpf(4000) ** mpmath.mpf("-0.5")
        assert abs(neural.lrate(4000, 256, 4000) - float(expect)) < 1e-12
    warm = 4000
    values = [neural.lrate(s, 256, warm) for s in (1, 100, 2000, 3999, 4000, 4001, 8000, 100000)]
    assert values[0] < values[1] < values[2] < values[3] <= values[4]
    assert values[4] >= values[5] > values[6] > values[7]
    fine = [neural.lrate(s, 256, warm) for s in range(3990, 4011)]
    peak = max(range(len(fine)), key=lambda i: fine[i])
    assert 3990 + peak == 4000


@criterion(7, "32-pair corpus overfits to 90% exact match", 600.0)
def test_07_overfit():
    corpus = generate(SyntheticSpec(n_types=5, n_methods=10, max_chain_len=3, corpus_size=32, seed=101))
    adg = build_from_signatures(corpus.signature_text)
    desc_vocab = Vocabulary.from_sequences(d for d, _ in corpus.pairs)
    code_vocab = Vocabulary.from_sequences(c for _, c in corpus.pairs)
    config = ModelConfig(
        word_dim=16, code_dim=16, hidden_dim=32, mlp_hidden=32, dropout=0.1, max_len=30
    )
    model = Seq2SeqModel(
        desc_vocab, code_vocab, adg, config, EmbedderConfig(dim=16, hops=2), seed=42
    )
    train_config = TrainConfig(
        batch_size=4, max_epochs=10**6, max_steps=800,
        eval_interval=10**9, patience=10**6, warmup_steps=400, seed=42,
    )
    history = train(model, corpus.pairs, [], train_config)
    assert history[-1].step <= 2000
    node_emb = model.embed_nodes()
    hits = sum(
        1
        for desc, code in corpus.pairs
        if tuple(generate_greedy(model, desc, node_embeddings=node_emb)) == code
    )
    assert hits / len(corpus.pairs) >= 0.90, f"exact match {hits}/32"


@criterion(8, "metrics match brute-force oracles and identity bounds", 30.0)
def test_08_metric_oracles():
    rng = np.random.default_rng(1008)
    for _ in range(100):
        pairs = random_pairs(rng, int(rng.integers(1, 7)))
        assert metrics.bleu(pairs) == pytest.approx(oracle_bleu(pairs), abs=1e-9)
        assert metrics.rouge_n(pairs, 1) == pytest.approx(oracle_rouge_n(pairs, 1), abs=1e-9)
        assert metrics.rouge_n(pairs, 2) == pytest.approx(oracle_rouge_n(pairs, 2), abs=1e-9)
        assert metrics.cider(pairs) == pytest.approx(oracle_cider(pairs), abs=1e-9)
        for p in pairs:
            single = [p]
            assert metrics.ribes(single) == pytest.approx(
                oracle_ribes(p.candidate, p.reference), abs=1e-9
            )
    for _ in range(100):
        pairs = random_pairs(rng, int(rng.integers(1, 5)), lo=1, hi=13)
        assert metrics.rouge_l(pairs) == pytest.approx(oracle_rouge_l(pairs), abs=1e-9)
    refs = [tuple(rng.choice(list("abcdef"), size=int(rng.integers(2, 9)))) for _ in range(8)]
    identity = metrics.make_pairs(refs, refs)
    assert metrics.acc(identity) == 1.0
    assert metrics.bleu(identity) == pytest.approx(1.0)
    assert metrics.rouge_n(identity, 1) == pytest.approx(1.0)
    assert metrics.rouge_n(identity, 2) == pytest.approx(1.0)
    assert metrics.rouge_l(identity) == pytest.approx(1.0)
    assert metrics.ribes(identity) == pytest.approx(1.0)
    assert metrics.cider(identity) == pytest.approx(1.0)


@criterion(9, "order-sensitive corpus: lstm aggregator RIBES >= mean", 1800.0)
def test_09_ablation_trend():
    corpus = generate(
        SyntheticSpec(
            n_types=6, n_methods=12, max_chain_len=5, corpus_size=20, seed=202,
            min_chain_len=4, order_sensitive=True,
        )
    )
    adg = build_from_signatures(corpus.signature_text)
    desc_vocab = Vocabulary.from_sequences(d for d, _ in corpus.pairs)
    code_vocab = Vocabulary.from_sequences(c for _, c in corpus.pairs)
    references = [c for _, c in corpus.pairs]

    def ribes_for(aggregator: str, seed: int) -> float:
        config = ModelConfig(
            word_dim=12, code_dim=12, hidden_dim=24, mlp_hidden=24, dropout=0.1, max_len=45
        )
        model = Seq2SeqModel(
            desc_vocab, code_vocab, adg, config,
            EmbedderConfig(dim=12, hops=2, aggregator=aggregator), seed=seed,
        )
        train_config = TrainConfig(
            batch_size=4, max_epochs=10**6, max_steps=350,
            eval_interval=10**9, patience=10**6, warmup_steps=300, seed=seed,
        )
        train(model, corpus.pairs, [], train_config)
        node_emb = model.embed_nodes()
        candidates = [
            generate_greedy(model, d, node_embeddings=node_emb) for d, _ in corpus.pairs
        ]
        return metrics.ribes(metrics.make_pairs(candidates, references))

    wins = 0
    for seed in (1, 2, 3):
        if ribes_for("lstm", seed) >= ribes_for("mean", seed):
            wins += 1
    assert wins >= 2, f"lstm aggregator won only {wins}/3 seeds"


@criterion(10, "beam width 1 equals greedy; filter enforces reachability", 300.0)
def test_10_decode_contract():
    corpus = generate(SyntheticSpec(n_types=6, n_methods=12, max_chain_len=3, corpus_size=50, seed=303))
    adg = build_from_signatures(corpus.signature_text)
    desc_vocab = Vocabulary.from_sequences(d for d, _ in corpus.pairs)
    code_vocab = Vocabulary.from_sequences(c for _, c in corpus.pairs)
    config = ModelConfig(
        word_dim=12, code_dim=12, hidden_dim=16, mlp_hidden=16, max_len=25
    )
    model = Seq2SeqModel(
        desc_vocab, code_vocab, adg, config, EmbedderConfig(dim=12), seed=1010
    )
    node_emb = model.embed_nodes()
    assert len(corpus.pairs) == 50
    for desc, _ in corpus.pairs:
        greedy = generate_greedy(model, desc, node_embeddings=node_emb)
        width_one = beam_search(model, desc, width=1, node_embeddings=node_emb)
        assert width_one == greedy

    checked_api_tokens = 0
    for desc, _ in corpus.pairs:
        out = beam_search(
            model, desc, width=3, node_embeddings=node_emb, reach_filter=True
        )
        available: set[str] = set()
        for token in out:
            node_id = adg.id_of(token)
            if node_id is not None:
                checked_api_tokens += 1
                assert adg.is_reachable(node_id, available), (token, available)
                available |= set(adg.node(node_id).outputs)
    assert checked_api_tokens > 0, "filtered generations produced no API tokens to check"


@criterion(11, "end-to-end determinism: identical checkpoints and reports", 600.0)
def test_11_determinism(tmp_path):
    def end_to_end(root):
        root.mkdir()
        assert cli.run([
            "gen-synthetic", "--out", str(root),
            "--types", "4", "--methods", "8", "--max-chain", "3",
            "--size", "12", "--seed", "11",
        ]) == 0
        config = {
            "paths": {
                "signatures": str(root / "signatures.sig"),
                "graph": str(root / "graph.adg"),
                "train": str(root / "train.tsv"),
                "valid": str(root / "valid.tsv"),
                "test": str(root / "test.tsv"),
                "checkpoint": str(root / "model.ckpt"),
            },
            "model": {
                "word_dim": 8, "code_dim": 8, "hidden_dim": 12, "mlp_hidden": 12,
                "beam_width": 2, "max_len": 25,
            },
            "train": {
                "batch_size": 4, "max_epochs": 1000, "max_steps": 40,
                "eval_interval": 20, "patience": 50, "warmup_steps": 50, "seed": 5,
            },
            "seed": 5,
        }
        cfg_path = root / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.run(["build-graph", "--config", str(cfg_path)]) == 0
        assert cli.run(["train", "--config", str(cfg_path)]) == 0
        out = io.StringIO()
        assert cli.run(["evaluate", "--config", str(cfg_path)], out=out) == 0
        return (root / "model.ckpt").read_bytes(), out.getvalue()

    ckpt_a, report_a = end_to_end(tmp_path / "run_a")
    ckpt_b, report_b = end_to_end(tmp_path / "run_b")
    assert ckpt_a == ckpt_b, "checkpoints differ between identical runs"
    assert report_a == report_b, "metric reports differ between identical runs"

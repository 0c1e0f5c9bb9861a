"""Model tests: vocabulary, encoder/decoder composition, query switching,
beam search against exhaustive path enumeration, joint training behavior,
and checkpoint serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from adgcode import neural
from adgcode.embedder import EmbedderConfig
from adgcode.graph import build_adg
from adgcode.model import (
    BOS_ID,
    EOS_ID,
    EOS_TOKEN,
    PAD_ID,
    UNK_ID,
    CheckpointFormatError,
    ModelConfig,
    Seq2SeqModel,
    TrainConfig,
    TrainingDivergedError,
    Vocabulary,
    beam_search,
    generate_greedy,
    load_checkpoint,
    save_checkpoint,
    train,
)
from adgcode.signatures import parse_signatures
from adgcode.synthetic import SyntheticSpec, generate

from conftest import corrupt_parameter


def tiny_model(seed=0, **overrides):
    """Small model over a 4-method pipeline graph and a fixed mini-corpus."""
    corpus = parse_signatures(
        "type C\ntype D\ntype E\n"
        "method m2 () -> C\nmethod m3 () -> D\nmethod m4 (C, D) -> E\n"
    )
    adg = build_adg(corpus.nodes(), corpus.hierarchy())
    pairs = [
        (("make", "c"), ("v0", "=", "m2", "(", ")", ";")),
        (("make", "d"), ("v0", "=", "m3", "(", ")", ";")),
        (("combine", "c", "d"), ("v0", "=", "m2", "(", ")", ";", "v1", "=", "m3", "(", ")", ";", "v2", "=", "m4", "(", "v0", ",", "v1", ")", ";")),
        (("just", "combine"), ("v2", "=", "m4", "(", "v0", ",", "v1", ")", ";")),
    ]
    desc_vocab = Vocabulary.from_sequences(d for d, _ in pairs)
    code_vocab = Vocabulary.from_sequences(c for _, c in pairs)
    defaults = dict(
        word_dim=8, code_dim=8, hidden_dim=12, mlp_hidden=12,
        relu_layers=1, relu_window=1, dropout=0.1, beam_width=3, max_len=30,
    )
    defaults.update(overrides)
    config = ModelConfig(**defaults)
    emb_config = EmbedderConfig(dim=config.code_dim, hops=2, aggregator="lstm")
    model = Seq2SeqModel(desc_vocab, code_vocab, adg, config, emb_config, seed=seed)
    return model, pairs


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary([("x", 3)])
        assert v.id(EOS_TOKEN) == EOS_ID
        assert v.token(PAD_ID).endswith("PAD⟩")
        assert v.id("x") == 4

    def test_frequency_then_lexicographic_order(self):
        v = Vocabulary.from_sequences([("b", "a", "b"), ("a", "c", "b")])
        # b:3, a:2, c:1
        assert v.id("b") == 4 and v.id("a") == 5 and v.id("c") == 6

    def test_unknown_maps_to_unk(self):
        v = Vocabulary.from_sequences([("a",)])
        assert v.id("never-seen") == UNK_ID

    def test_reserved_collision_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary([(EOS_TOKEN, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary([("a", 1), ("a", 2)])

    def test_round_trip_entries(self):
        v = Vocabulary.from_sequences([("b", "a", "b")])
        again = Vocabulary(v.entries())
        assert again.tokens == v.tokens


class TestEncode:
    def test_single_token_matches_manual_composition(self):
        model, _ = tiny_model()
        token_id = 4
        states, (h, c) = model.encode([token_id])
        x = neural.row(model.desc_lut, token_id)
        feats = neural.window_relu_stack([x], model.stack_weights, model.config.relu_window)
        h2, c2 = neural.lstm_cell(feats[0], neural.zeros(12), neural.zeros(12), model.enc_lstm)
        assert len(states) == 1
        assert np.allclose(states[0].data, h2.data, atol=1e-12)
        assert np.allclose(c.data, c2.data, atol=1e-12)

    def test_deterministic(self):
        model, _ = tiny_model()
        a, _ = model.encode([4, 5, 6])
        b, _ = model.encode([4, 5, 6])
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)

    def test_five_token_composition_oracle(self):
        model, _ = tiny_model()
        ids = [4, 5, 6, 4, 5]
        states, (h_final, c_final) = model.encode(ids)
        xs = [neural.row(model.desc_lut, i) for i in ids]
        feats = neural.window_relu_stack(xs, model.stack_weights, model.config.relu_window)
        h = neural.zeros(12)
        c = neural.zeros(12)
        expect = []
        for f in feats:
            h, c = neural.lstm_cell(f, h, c, model.enc_lstm)
            expect.append(h)
        assert len(states) == 5
        for got, want in zip(states, expect):
            assert np.allclose(got.data, want.data, atol=1e-12)
        assert np.allclose(h_final.data, h.data, atol=1e-12)

    def test_empty_rejected(self):
        model, _ = tiny_model()
        with pytest.raises(ValueError):
            model.encode([])

    def test_unknown_tokens_use_unk_row(self):
        model, _ = tiny_model()
        ids = model.desc_vocab.encode(["zzz-unknown"])
        assert ids == [UNK_ID]
        states, _ = model.encode(ids)
        assert np.all(np.isfinite(states[0].data))


class TestDecoderQuery:
    def test_api_token_uses_node_embedding(self):
        model, _ = tiny_model()
        node_emb = model.embed_nodes()
        m4_token = model.code_vocab.id("m4")
        m4_node = model.adg.id_of("m4")
        q = model.decoder_query(m4_token, node_emb)
        assert q is node_emb[m4_node]

    def test_plain_token_uses_lookup_row(self):
        model, _ = tiny_model()
        node_emb = model.embed_nodes()
        paren = model.code_vocab.id("(")
        q = model.decoder_query(paren, node_emb)
        assert np.array_equal(q.data, model.code_lut.data[paren])

    def test_unlinking_switches_branch(self):
        model, _ = tiny_model()
        node_emb = model.embed_nodes()
        m4_token = model.code_vocab.id("m4")
        with_link = model.decoder_query(m4_token, node_emb).data.copy()
        removed = model.api_node_of_token_id.pop(m4_token)
        try:
            without_link = model.decoder_query(m4_token, node_emb).data.copy()
        finally:
            model.api_node_of_token_id[m4_token] = removed
        assert np.array_equal(without_link, model.code_lut.data[m4_token])
        assert not np.array_equal(with_link, without_link)


class TestDecodeStep:
    def test_logit_width_is_vocab_size(self):
        model, _ = tiny_model()
        states, s0 = model.encode([4, 5])
        node_emb = model.embed_nodes()
        logits, _ = model.decode_step(model.decoder_query(BOS_ID, node_emb), s0, states)
        assert logits.data.shape == (len(model.code_vocab),)

    def test_deterministic(self):
        model, _ = tiny_model()
        states, s0 = model.encode([4, 5])
        q = neural.constant(np.zeros(8))
        a, _ = model.decode_step(q, s0, states)
        b, _ = model.decode_step(q, s0, states)
        assert np.array_equal(a.data, b.data)

    def test_matches_composition_oracle(self):
        model, _ = tiny_model()
        states, (h0, c0) = model.encode([4, 5, 6])
        rng = np.random.default_rng(1)
        q = neural.constant(rng.standard_normal(8))
        logits, (h1, c1) = model.decode_step(q, (h0, c0), states)

        _, ctx = neural.attention(states, h0, model.att_w)
        h2, c2 = neural.lstm_cell(neural.concat([q, ctx]), h0, c0, model.dec_lstm)
        hid = neural.relu(neural.add(neural.matmul(model.out_w1, neural.concat([h2, ctx])), model.out_b1))
        expect = neural.add(neural.matmul(model.out_w2, hid), model.out_b2)
        assert np.allclose(logits.data, expect.data, atol=1e-12)
        assert np.allclose(h1.data, h2.data, atol=1e-12)


class TestLossSanity:
    def test_fresh_model_loss_near_log_vocab(self):
        model, pairs = tiny_model(seed=3)
        node_emb = model.embed_nodes()
        r = len(model.code_vocab)
        losses = []
        for desc, code in pairs:
            loss = model.sequence_loss(
                model.desc_vocab.encode(desc), model.code_vocab.encode(code), node_emb
            )
            losses.append(float(loss.data))
        mean_loss = sum(losses) / len(losses)
        assert abs(mean_loss - math.log(r)) / math.log(r) < 0.15

    def test_gradient_flow_through_all_three_networks(self):
        model, pairs = tiny_model()
        desc, code = pairs[2]  # contains API tokens m2, m3, m4
        node_emb = model.embed_nodes()
        loss = model.sequence_loss(
            model.desc_vocab.encode(desc), model.code_vocab.encode(code), node_emb
        )
        params = model.parameters()
        neural.zero_grads(params)
        loss.backward()

        def has_grad(prefix):
            return any(
                p.grad is not None and np.any(p.grad != 0.0)
                for p in params
                if p.name.startswith(prefix)
            )

        assert has_grad("enc.") or has_grad("desc_lut")
        assert has_grad("emb.")
        assert has_grad("dec.") or has_grad("out.")

    def test_embedder_gradient_locality(self):
        model, pairs = tiny_model()
        # code references only m2: nodes m3/m4 are within 2 hops of m2 via m4,
        # so isolate instead a fresh graph where one node is disconnected
        corpus = parse_signatures(
            "type C\ntype Z\nmethod m2 () -> C\nmethod use (C) ->\nmethod lonely (Z) -> Z\n"
        )
        adg = build_adg(corpus.nodes(), corpus.hierarchy())
        pairs2 = [(("go",), ("m2",))]
        desc_vocab = Vocabulary.from_sequences(d for d, _ in pairs2)
        code_vocab = Vocabulary.from_sequences(c for _, c in pairs2)
        config = ModelConfig(word_dim=6, code_dim=6, hidden_dim=8, mlp_hidden=8, dropout=0.0)
        model = Seq2SeqModel(desc_vocab, code_vocab, adg, config, EmbedderConfig(dim=6), seed=1)
        m2 = adg.id_of("m2")
        lonely = adg.id_of("lonely")
        node_emb = model.embed_nodes([m2])
        loss = model.sequence_loss([4], code_vocab.encode(["m2"]), node_emb)
        neural.zero_grads(model.parameters())
        loss.backward()
        base_grad = model.embedder_params.base.grad
        assert base_grad is not None
        assert np.any(base_grad[m2] != 0.0)
        assert np.all(base_grad[lonely] == 0.0)


class TestGeneration:
    def test_beam_width_one_equals_greedy(self):
        model, pairs = tiny_model(seed=5)
        for desc, _ in pairs:
            assert beam_search(model, desc, width=1) == generate_greedy(model, desc)

    def test_forced_token_model(self):
        model, _ = tiny_model()
        forced = model.code_vocab.id("v0")
        model.out_w2.data = np.zeros_like(model.out_w2.data)
        model.out_b2.data = np.full(model.out_b2.data.shape, -50.0)
        model.out_b2.data[forced] = 50.0
        out = beam_search(model, ("make", "c"), width=3, max_len=7)
        assert out == ["v0"] * 7

    def test_forced_eos_yields_empty(self):
        model, _ = tiny_model()
        model.out_w2.data = np.zeros_like(model.out_w2.data)
        model.out_b2.data = np.full(model.out_b2.data.shape, -50.0)
        model.out_b2.data[EOS_ID] = 50.0
        assert beam_search(model, ("make", "c"), width=2) == []

    @pytest.mark.parametrize("reserved", [PAD_ID, BOS_ID, UNK_ID])
    def test_reserved_tokens_never_emitted(self, reserved):
        model, _ = tiny_model()
        model.out_w2.data = np.zeros_like(model.out_w2.data)
        model.out_b2.data = np.full(model.out_b2.data.shape, -50.0)
        model.out_b2.data[reserved] = 50.0
        model.out_b2.data[model.code_vocab.id("v0")] = 0.0
        desc = ("make", "c")
        best, _ = self._exhaustive_best(model, desc, max_len=3)
        assert best == ["v0"] * 3
        for reach_filter in (False, True):
            assert generate_greedy(model, desc, max_len=3, reach_filter=reach_filter) == best
            for width in (2, 3):
                assert beam_search(
                    model, desc, width=width, max_len=3, reach_filter=reach_filter
                ) == best

    def test_reach_filter_masking_every_api_token_still_terminates(self):
        # every method needs an input type and the code vocabulary is API-only,
        # so under the filter EOS is the one selectable token at the first step
        corpus = parse_signatures("type A\ntype B\nmethod f (A) -> B\nmethod g (B) -> A\n")
        adg = build_adg(corpus.nodes(), corpus.hierarchy())
        pairs = [(("run", "f"), ("f",)), (("run", "g"), ("g",))]
        model = Seq2SeqModel(
            Vocabulary.from_sequences(d for d, _ in pairs),
            Vocabulary.from_sequences(c for _, c in pairs),
            adg,
            ModelConfig(word_dim=8, code_dim=8, hidden_dim=12, mlp_hidden=12, max_len=5),
            EmbedderConfig(dim=8),
            seed=0,
        )
        model.out_w2.data = np.zeros_like(model.out_w2.data)
        model.out_b2.data = np.full(model.out_b2.data.shape, 50.0)
        model.out_b2.data[EOS_ID] = -50.0
        desc = ("run", "f")
        unfiltered = generate_greedy(model, desc)
        assert len(unfiltered) == 5 and set(unfiltered) <= {"f", "g"}
        assert generate_greedy(model, desc, reach_filter=True) == []
        for width in (1, 2, 4):
            assert beam_search(model, desc, width=width, reach_filter=True) == []

    def test_invalid_width_rejected(self):
        model, _ = tiny_model()
        with pytest.raises(ValueError):
            beam_search(model, ("make", "c"), width=0)

    def _exhaustive_best(self, model, desc, max_len):
        """Enumerate every token sequence (stopping at EOS or max_len) over EOS
        and the non-reserved tokens, and return the one with the best
        length-normalized score."""
        desc_ids = model.desc_vocab.encode(desc)
        states, s0 = model.encode(desc_ids)
        node_emb = model.embed_nodes()
        results = []

        def log_probs(prev, state):
            q = model.decoder_query(prev, node_emb)
            logits, new_state = model.decode_step(q, state, states)
            x = logits.data
            m = np.max(x)
            return x - m - math.log(np.sum(np.exp(x - m))), new_state

        allowed = [t for t in range(len(model.code_vocab)) if t not in (PAD_ID, BOS_ID, UNK_ID)]

        def walk(prefix, logp, prev, state):
            lp, new_state = log_probs(prev, state)
            for token in allowed:
                seq = prefix + (token,)
                total = logp + lp[token]
                if token == EOS_ID or len(seq) >= max_len:
                    results.append((total / len(seq), seq))
                else:
                    walk(seq, total, token, new_state)

        walk((), 0.0, BOS_ID, s0)
        best = max(results, key=lambda r: (r[0], [-t for t in r[1]]))
        tokens = [t for t in best[1] if t != EOS_ID]
        return [model.code_vocab.token(t) for t in tokens], best[0]

    def test_beam_matches_exhaustive_enumeration_on_three_steps(self):
        # a sharpened output layer gives decisive hand-set-style probabilities
        model, _ = tiny_model(seed=23)
        model.out_w2.data = model.out_w2.data * 4.0
        model.out_b2.data = model.out_b2.data * 4.0
        desc = ("make", "c")
        exhaustive_tokens, _ = self._exhaustive_best(model, desc, max_len=3)
        # a beam as wide as the whole candidate space is exhaustive by itself
        wide = beam_search(model, desc, width=len(model.code_vocab) ** 2, max_len=3)
        assert wide == exhaustive_tokens
        narrow = beam_search(model, desc, width=5, max_len=3)
        assert narrow == exhaustive_tokens

    def test_beam_never_below_greedy_normalized_score(self):
        def normalized_score(model, desc, tokens):
            desc_ids = model.desc_vocab.encode(desc)
            states, state = model.encode(desc_ids)
            node_emb = model.embed_nodes()
            ids = [model.code_vocab.id(t) for t in tokens] + [EOS_ID]
            prev = BOS_ID
            total = 0.0
            for tid in ids:
                logits, state = model.decode_step(
                    model.decoder_query(prev, node_emb), state, states
                )
                x = logits.data
                m = np.max(x)
                total += float(x[tid] - m - math.log(np.sum(np.exp(x - m))))
                prev = tid
            return total / len(ids)

        model, pairs = tiny_model(seed=13)
        for desc, _ in pairs:
            greedy = generate_greedy(model, desc, max_len=8)
            beam = beam_search(model, desc, width=4, max_len=8)
            # both sequences terminated before max_len: compare scores with EOS
            if len(greedy) < 8 and len(beam) < 8:
                assert normalized_score(model, desc, beam) >= normalized_score(model, desc, greedy) - 1e-12


class TestReachFilter:
    def test_generated_api_tokens_always_reachable(self):
        spec = SyntheticSpec(n_types=4, n_methods=8, max_chain_len=3, corpus_size=10, seed=3)
        corpus = generate(spec)
        sig = parse_signatures(corpus.signature_text)
        adg = build_adg(sig.nodes(), sig.hierarchy())
        desc_vocab = Vocabulary.from_sequences(d for d, _ in corpus.pairs)
        code_vocab = Vocabulary.from_sequences(c for _, c in corpus.pairs)
        config = ModelConfig(word_dim=8, code_dim=8, hidden_dim=10, mlp_hidden=10, max_len=25)
        model = Seq2SeqModel(desc_vocab, code_vocab, adg, config, EmbedderConfig(dim=8), seed=2)
        for desc, _ in corpus.pairs:
            out = beam_search(model, desc, width=3, reach_filter=True)
            available: set[str] = set()
            for token in out:
                node_id = adg.id_of(token)
                if node_id is not None:
                    assert adg.is_reachable(node_id, available), (token, available)
                    available |= set(adg.node(node_id).outputs)


class TestTraining:
    def test_loss_decreases_on_four_pairs(self):
        model, pairs = tiny_model(seed=7)
        config = TrainConfig(
            batch_size=4, max_epochs=1000, max_steps=200,
            eval_interval=1000, patience=10, warmup_steps=100, seed=7,
        )
        history = train(model, pairs, [], config)
        first = sum(r.loss for r in history[:10]) / 10
        last = sum(r.loss for r in history[-10:]) / 10
        assert last < first

    def test_empty_corpus_rejected(self):
        model, _ = tiny_model()
        with pytest.raises(ValueError):
            train(model, [], [], TrainConfig())

    def test_divergence_detected_with_step(self):
        model, pairs = tiny_model()
        model.out_b2.data = np.full(model.out_b2.data.shape, np.nan)
        with pytest.raises(TrainingDivergedError) as err:
            train(model, pairs, [], TrainConfig(batch_size=4, max_steps=5))
        assert err.value.step == 1

    def test_validation_records_and_early_stop(self):
        model, pairs = tiny_model(seed=9)
        config = TrainConfig(
            batch_size=4, max_epochs=10_000, max_steps=None,
            eval_interval=5, patience=2, warmup_steps=100, seed=9,
        )
        history = train(model, pairs, pairs[:2], config)
        evals = [r for r in history if r.val_bleu is not None]
        assert evals, "validation BLEU was never computed"
        assert history[-1].step < 10_000  # early stopping fired

    def test_history_records_schedule(self):
        model, pairs = tiny_model(seed=15)
        config = TrainConfig(batch_size=4, max_steps=12, warmup_steps=50, seed=15)
        history = train(model, pairs, [], config)
        assert [r.step for r in history] == list(range(1, 13))
        for r in history:
            assert r.lrate == pytest.approx(neural.lrate(r.step, 12, 50))


class TestCheckpoint:
    def test_save_load_save_identical_bytes(self):
        model, _ = tiny_model(seed=17)
        blob = save_checkpoint(model)
        again = save_checkpoint(load_checkpoint(blob))
        assert again == blob

    def test_truncated_rejected(self):
        model, _ = tiny_model()
        blob = save_checkpoint(model)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(blob[: len(blob) // 2])

    def test_bad_header_rejected(self):
        model, _ = tiny_model()
        blob = save_checkpoint(model)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(b"XXXX" + blob[4:])

    def test_trailing_garbage_rejected(self):
        model, _ = tiny_model()
        blob = save_checkpoint(model)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(blob + b"\x00")

    @pytest.mark.parametrize("kind", ["name", "nan"])
    def test_corrupt_parameter_row_rejected(self, kind):
        model, _ = tiny_model()
        blob = corrupt_parameter(save_checkpoint(model), "att.w", kind)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(blob)

    def test_generation_equivalent_after_round_trip(self):
        model, pairs = tiny_model(seed=19)
        config = TrainConfig(batch_size=4, max_steps=150, warmup_steps=50, seed=19)
        train(model, pairs, [], config)
        outputs_before = [generate_greedy(model, d) for d, _ in pairs]
        restored = load_checkpoint(save_checkpoint(model))
        outputs_after = [generate_greedy(restored, d) for d, _ in pairs]
        assert outputs_before == outputs_after

    def test_restored_model_preserves_vocab_and_graph(self):
        model, _ = tiny_model()
        restored = load_checkpoint(save_checkpoint(model))
        assert restored.code_vocab.tokens == model.code_vocab.tokens
        assert restored.desc_vocab.tokens == model.desc_vocab.tokens
        assert restored.adg.edges == model.adg.edges
        assert restored.api_node_of_token_id == model.api_node_of_token_id


class TestMicroModelGradients:
    def test_every_parameter_passes_finite_differences(self):
        # micro scale: vocab 12, dims 8, sequence length 5, 6-node graph
        corpus = parse_signatures(
            "type A\ntype B\ntype C\n"
            "method f0 () -> A\nmethod f1 () -> B\nmethod f2 (A) -> C\n"
            "method f3 (A, B) -> C\nmethod f4 (C) -> A\nmethod f5 (B, C) -> B\n"
        )
        adg = build_adg(corpus.nodes(), corpus.hierarchy())
        code_tokens = [["f0", "f2", "f3", "(", ")", ";", "x", "="]]
        desc_tokens = [["alpha", "beta", "gamma", "delta", "epsilon"]]
        desc_vocab = Vocabulary.from_sequences(desc_tokens)
        code_vocab = Vocabulary.from_sequences(code_tokens)
        assert len(code_vocab) == 12
        config = ModelConfig(
            word_dim=8, code_dim=8, hidden_dim=8, mlp_hidden=8,
            relu_layers=1, relu_window=1, dropout=0.0,
        )
        model = Seq2SeqModel(desc_vocab, code_vocab, adg, config, EmbedderConfig(dim=8), seed=21)
        desc_ids = desc_vocab.encode(desc_tokens[0])
        code_ids = code_vocab.encode(["f0", "f2", "x", "=", "f3"])

        def loss():
            node_emb = model.embed_nodes()
            return model.sequence_loss(desc_ids, code_ids, node_emb)

        err = neural.gradient_check(loss, model.parameters())
        assert err < 1e-4, f"worst relative gradient error {err}"

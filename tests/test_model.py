"""Model tests: vocabulary, encoder/decoder composition, query switching,
beam search against exhaustive path enumeration, joint training behavior,
and checkpoint serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from adgcode import neural
from adgcode.embedder import EmbedderConfig, embed_all
from adgcode.graph import build_adg
from adgcode import model as model_mod
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

    @pytest.mark.parametrize(
        "entry", [(7, 1), (None, 1), ("a", "1"), ("a", True), ("a", 1.0)],
        ids=["token-int", "token-none", "count-str", "count-bool", "count-float"],
    )
    def test_mistyped_entry_rejected(self, entry):
        with pytest.raises(TypeError):
            Vocabulary([("b", 2), entry])

    def test_round_trip_entries(self):
        v = Vocabulary.from_sequences([("b", "a", "b")])
        again = Vocabulary(v.entries())
        assert again.tokens == v.tokens


class TestEncode:
    def test_single_token_matches_manual_composition(self):
        model, _ = tiny_model()
        token_id = 4
        memory, (h, c) = model.encode([[token_id]])
        x = neural.take_rows(model.desc_lut, [token_id])
        feats = neural.window_relu_stack(x, [1], model.stack_weights, model.config.relu_window)
        zero = neural.zeros((1, 12))
        h2, c2 = neural.lstm_cell(feats, zero, zero, model.enc_lstm)
        assert memory.data.shape == (1, 12)
        assert np.allclose(memory.data, h2.data, atol=1e-12)
        assert np.allclose(c.data, c2.data, atol=1e-12)

    def test_deterministic(self):
        model, _ = tiny_model()
        a, _ = model.encode([[4, 5, 6]])
        b, _ = model.encode([[4, 5, 6]])
        assert np.array_equal(a.data, b.data)

    def test_five_token_composition_oracle(self):
        model, _ = tiny_model()
        ids = [4, 5, 6, 4, 5]
        memory, (h_final, c_final) = model.encode([ids])
        x = neural.take_rows(model.desc_lut, ids)
        feats = neural.window_relu_stack(x, [5], model.stack_weights, model.config.relu_window)
        h = neural.zeros((1, 12))
        c = neural.zeros((1, 12))
        expect = []
        for t in range(5):
            h, c = neural.lstm_cell(neural.take_rows(feats, [t]), h, c, model.enc_lstm)
            expect.append(h)
        # the memory rows are the per-step hidden states, bit for bit
        assert memory.data.shape == (5, 12)
        for got, want in zip(memory.data, expect):
            assert np.array_equal(got, want.data[0])
        assert np.allclose(h_final.data, h.data, atol=1e-12)

    def test_batch_rows_match_single_descriptions(self):
        # ragged descriptions encoded together: each one's memory block and
        # final state are those of encoding it alone
        model, _ = tiny_model()
        descs = [[4, 5], [6, 4, 5, 7], [5]]
        memory, (h, c) = model.encode(descs)
        assert memory.data.shape == (7, 12) and h.data.shape == (3, 12)
        start = 0
        for b, desc in enumerate(descs):
            one, (h1, c1) = model.encode([desc])
            block = memory.data[start : start + len(desc)]
            assert np.allclose(block, one.data, rtol=0.0, atol=1e-12)
            assert np.allclose(h.data[b], h1.data[0], rtol=0.0, atol=1e-12)
            assert np.allclose(c.data[b], c1.data[0], rtol=0.0, atol=1e-12)
            start += len(desc)

    def test_empty_rejected(self):
        model, _ = tiny_model()
        with pytest.raises(ValueError):
            model.encode([[]])
        with pytest.raises(ValueError):
            model.encode([[4], []])

    def test_unknown_tokens_use_unk_row(self):
        model, _ = tiny_model()
        ids = model.desc_vocab.encode(["zzz-unknown"])
        assert ids == [UNK_ID]
        memory, _ = model.encode([ids])
        assert np.all(np.isfinite(memory.data))


class TestDecoderQuery:
    def test_api_token_uses_node_embedding(self):
        model, _ = tiny_model()
        node_emb = model.embed_nodes()
        m4_token = model.code_vocab.id("m4")
        m4_node = model.adg.id_of("m4")
        q = model.decoder_query([m4_token], node_emb)
        expect = embed_all(model.adg, model.embedder_params, model.embedder_config)[m4_node]
        assert q.data.shape == (1, 8)
        assert np.allclose(q.data[0], expect, rtol=0.0, atol=1e-12)

    def test_plain_token_uses_lookup_row(self):
        model, _ = tiny_model()
        node_emb = model.embed_nodes()
        paren = model.code_vocab.id("(")
        q = model.decoder_query([paren], node_emb)
        assert np.array_equal(q.data[0], model.code_lut.data[paren])

    def test_unlinking_switches_branch(self):
        model, _ = tiny_model()
        m4_token = model.code_vocab.id("m4")
        with_link = model.decoder_query([m4_token], model.embed_nodes()).data[0].copy()
        removed = model.api_node_of_token_id.pop(m4_token)
        try:
            without_link = model.decoder_query([m4_token], model.embed_nodes()).data[0].copy()
        finally:
            model.api_node_of_token_id[m4_token] = removed
        assert np.array_equal(without_link, model.code_lut.data[m4_token])
        assert not np.array_equal(with_link, without_link)

    def test_unembedded_api_token_raises_key_error(self):
        model, _ = tiny_model()
        only_m2 = model.embed_nodes([model.adg.id_of("m2")])
        model.decoder_query([model.code_vocab.id("m2")], only_m2)
        with pytest.raises(KeyError, match="not embedded"):
            model.decoder_query([model.code_vocab.id("("), model.code_vocab.id("m4")], only_m2)


class TestDecodeStep:
    def test_logit_width_is_vocab_size(self):
        model, _ = tiny_model()
        states, s0 = model.encode([[4, 5]])
        node_emb = model.embed_nodes()
        logits, _ = model.decode_step(model.decoder_query([BOS_ID], node_emb), s0, states)
        assert logits.data.shape == (1, len(model.code_vocab))

    def test_deterministic(self):
        model, _ = tiny_model()
        states, s0 = model.encode([[4, 5]])
        q = neural.constant(np.zeros((1, 8)))
        a, _ = model.decode_step(q, s0, states)
        b, _ = model.decode_step(q, s0, states)
        assert np.array_equal(a.data, b.data)

    def test_matches_composition_oracle(self):
        model, _ = tiny_model()
        states, (h0, c0) = model.encode([[4, 5, 6]])
        rng = np.random.default_rng(1)
        q = neural.constant(rng.standard_normal((1, 8)))
        logits, (h1, c1) = model.decode_step(q, (h0, c0), states)

        _, ctx = neural.attention(states, h0, model.att_w)
        h2, c2 = neural.lstm_cell(neural.concat([q, ctx]), h0, c0, model.dec_lstm)
        features = np.concatenate([h2.data[0], ctx.data[0]])
        hid = np.maximum(model.out_w1.data @ features + model.out_b1.data, 0.0)
        expect = model.out_w2.data @ hid + model.out_b2.data
        assert np.allclose(logits.data[0], expect, atol=1e-12)
        assert np.allclose(h1.data, h2.data, atol=1e-12)

    def test_batched_rows_match_one_row_steps(self):
        model, _ = tiny_model()
        memory, _ = model.encode([[4, 5, 6]])
        rng = np.random.default_rng(2)
        q, h0, c0 = (rng.standard_normal((4, d)) for d in (8, 12, 12))
        logits, (h1, c1) = model.decode_step(
            neural.constant(q), (neural.constant(h0), neural.constant(c0)), memory
        )
        assert logits.data.shape == (4, len(model.code_vocab))
        for i in range(4):
            row = np.s_[i : i + 1]
            one, (h, c) = model.decode_step(
                neural.constant(q[row]), (neural.constant(h0[row]), neural.constant(c0[row])), memory
            )
            assert np.allclose(logits.data[i], one.data[0], rtol=0.0, atol=1e-12)
            assert np.allclose(h1.data[i], h.data[0], rtol=0.0, atol=1e-12)
            assert np.allclose(c1.data[i], c.data[0], rtol=0.0, atol=1e-12)


class TestLossSanity:
    def test_fresh_model_loss_near_log_vocab(self):
        model, pairs = tiny_model(seed=3)
        node_emb = model.embed_nodes()
        r = len(model.code_vocab)
        losses = []
        for desc, code in pairs:
            loss = model.sequence_loss(
                [(model.desc_vocab.encode(desc), model.code_vocab.encode(code))], node_emb
            )
            losses.append(float(loss.data))
        mean_loss = sum(losses) / len(losses)
        assert abs(mean_loss - math.log(r)) / math.log(r) < 0.15

    def test_gradient_flow_through_all_three_networks(self):
        model, pairs = tiny_model()
        desc, code = pairs[2]  # contains API tokens m2, m3, m4
        node_emb = model.embed_nodes()
        loss = model.sequence_loss(
            [(model.desc_vocab.encode(desc), model.code_vocab.encode(code))], node_emb
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
        loss = model.sequence_loss([([4], code_vocab.encode(["m2"]))], node_emb)
        neural.zero_grads(model.parameters())
        loss.backward()
        base_grad = model.embedder_params.base.grad
        assert base_grad is not None
        assert np.any(base_grad[m2] != 0.0)
        assert np.all(base_grad[lonely] == 0.0)


def argmax_rollout(model, desc, max_len, reach_filter=False):
    """Oracle: greedy decoding as its own loop, each step the argmax of
    ``decode_step``'s masked log-probabilities, ties to the smallest id."""
    node_emb = model.embed_nodes()
    memory, state = model.encode([model.desc_vocab.encode(desc)])
    prev, available, out = BOS_ID, set(), []
    for _ in range(max_len):
        logits, state = model.decode_step(model.decoder_query([prev], node_emb), state, memory)
        lp = model_mod._masked_log_probs(model, logits.data, [available], reach_filter)[0]
        prev = int(np.argmax(lp))  # the first maximum, so the smallest id on ties
        if prev == EOS_ID:
            break
        out.append(model.code_vocab.token(prev))
        if prev in model.api_node_of_token_id:
            available |= set(model.adg.node(model.api_node_of_token_id[prev]).outputs)
    return out


class TestGeneration:
    def test_beam_width_one_equals_greedy(self):
        model, pairs = tiny_model(seed=5)
        for desc, _ in pairs:
            for reach_filter in (False, True):
                expect = argmax_rollout(model, desc, model.config.max_len, reach_filter)
                assert beam_search(model, desc, width=1, reach_filter=reach_filter) == expect
                assert generate_greedy(model, desc, reach_filter=reach_filter) == expect
        # a flat output layer ties every code token: both take the smallest id
        model.out_w2.data = np.zeros_like(model.out_w2.data)
        model.out_b2.data = np.zeros_like(model.out_b2.data)
        model.out_b2.data[EOS_ID] = -50.0
        expect = argmax_rollout(model, ("make", "c"), 6)
        assert expect == [model.code_vocab.token(4)] * 6
        assert generate_greedy(model, ("make", "c"), max_len=6) == expect

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

    def test_beam_step_is_batched(self, monkeypatch):
        # EOS at -50 keeps every hypothesis alive to max_len, so width 5
        # advances five rows per step where width 1 advances one
        model, _ = tiny_model()
        model.out_b2.data = model.out_b2.data.copy()
        model.out_b2.data[EOS_ID] = -50.0
        node_emb = model.embed_nodes()
        created = [0]
        init = neural.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            created[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(neural.Tensor, "__init__", counting_init)
        counts = {}
        for width in (1, 5):
            created[0] = 0
            out = beam_search(model, ("make", "c"), width=width, max_len=12, node_embeddings=node_emb)
            assert len(out) == 12
            counts[width] = created[0]
        assert counts[5] < 1.5 * counts[1], counts

    def test_invalid_width_rejected(self):
        model, _ = tiny_model()
        with pytest.raises(ValueError):
            beam_search(model, ("make", "c"), width=0)

    def _exhaustive_best(self, model, desc, max_len):
        """Enumerate every token sequence (stopping at EOS or max_len) over EOS
        and the non-reserved tokens, and return the one with the best
        length-normalized score."""
        desc_ids = model.desc_vocab.encode(desc)
        states, s0 = model.encode([desc_ids])
        node_emb = model.embed_nodes()
        results = []

        def log_probs(prev, state):
            q = model.decoder_query([prev], node_emb)
            logits, new_state = model.decode_step(q, state, states)
            x = logits.data[0]
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
            states, state = model.encode([desc_ids])
            node_emb = model.embed_nodes()
            ids = [model.code_vocab.id(t) for t in tokens] + [EOS_ID]
            prev = BOS_ID
            total = 0.0
            for tid in ids:
                logits, state = model.decode_step(
                    model.decoder_query([prev], node_emb), state, states
                )
                x = logits.data[0]
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


def full_length_beam(model, desc, width, max_len, node_embeddings, reach_filter=False):
    """Oracle: the beam loop without the stopping bound, run until every
    hypothesis is frozen by EOS or ``max_len``, then ranked by
    (-score, tokens) over all completed hypotheses."""
    memory, state = model.encode([model.desc_vocab.encode(desc)])
    live = [model_mod.BeamHypothesis((), 0.0, frozenset())]
    completed = []
    for _ in range(max_len):
        lp, (h, c) = model_mod._next_log_probs(
            model,
            [hyp.tokens[-1] if hyp.tokens else BOS_ID for hyp in live],
            [hyp.available for hyp in live],
            state, memory, node_embeddings, reach_filter,
        )
        order = np.argsort(-lp, axis=1, kind="stable")[:, :width]
        expansions = []
        for row, hyp in enumerate(live):
            for token_id in order[row].tolist():
                if lp[row, token_id] == -np.inf:
                    continue
                tokens = hyp.tokens + (token_id,)
                logp = hyp.logp + float(lp[row, token_id])
                if token_id == EOS_ID or len(tokens) >= max_len:
                    completed.append(model_mod.BeamHypothesis(tokens, logp, hyp.available))
                else:
                    expansions.append((-logp, tokens, row))
        if not expansions:
            break
        expansions.sort()
        kept = expansions[:width]
        live = [
            model_mod.BeamHypothesis(
                tokens, -neg_logp, model_mod._advance_available(model, live[row].available, tokens[-1])
            )
            for neg_logp, tokens, row in kept
        ]
        rows = [row for _, _, row in kept]
        state = (neural.take_rows(h, rows), neural.take_rows(c, rows))
    best = min(completed or live, key=lambda hyp: (-hyp.score(), hyp.tokens))
    return [model.code_vocab.token(t) for t in best.tokens if t != EOS_ID]


def count_decode_steps(monkeypatch, model):
    calls = [0]
    step = model.decode_step

    def counting_step(*args, **kwargs):
        calls[0] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(model, "decode_step", counting_step)
    return calls


class TestBeamStopping:
    @pytest.mark.parametrize("eos_bias", [1.0, 0.5, -0.5])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_full_length_oracle(self, seed, eos_bias):
        # sharpened outputs that follow the previous token: completions of
        # different lengths compete, so stopping at the first one would lose
        model, pairs = tiny_model(seed=seed)
        model.code_lut.data = model.code_lut.data * 4.0
        model.out_w2.data = model.out_w2.data * 8.0
        model.out_b2.data = model.out_b2.data * 8.0
        model.out_b2.data[EOS_ID] += eos_bias
        node_emb = model.embed_nodes()
        for desc, _ in pairs:
            for width in (1, 2, 4):
                for reach_filter in (False, True):
                    expect = full_length_beam(model, desc, width, 12, node_emb, reach_filter)
                    got = beam_search(
                        model, desc, width=width, max_len=12,
                        node_embeddings=node_emb, reach_filter=reach_filter,
                    )
                    assert got == expect, (desc, width, reach_filter)

    def test_eos_favouring_model_stops_early(self, monkeypatch):
        model, pairs = tiny_model(seed=4)
        model.out_b2.data = model.out_b2.data.copy()
        model.out_b2.data[EOS_ID] = 4.0
        node_emb = model.embed_nodes()
        calls = count_decode_steps(monkeypatch, model)
        for desc, _ in pairs:
            expect = full_length_beam(model, desc, 4, 30, node_emb)
            calls[0] = 0
            assert beam_search(model, desc, width=4, max_len=30, node_embeddings=node_emb) == expect
            assert calls[0] < 30, desc

    def test_eos_at_minus_fifty_runs_to_max_len(self, monkeypatch):
        # live hypotheses score far above the one completion that ends by EOS
        model, _ = tiny_model()
        model.out_b2.data = model.out_b2.data.copy()
        model.out_b2.data[EOS_ID] = -50.0
        node_emb = model.embed_nodes()
        calls = count_decode_steps(monkeypatch, model)
        for width in (1, 5):
            calls[0] = 0
            out = beam_search(model, ("make", "c"), width=width, max_len=12, node_embeddings=node_emb)
            assert len(out) == 12 and calls[0] == 12

    @pytest.mark.parametrize("first_a", [-2.0, -1.75])
    def test_search_goes_on_while_a_live_hypothesis_can_win(self, monkeypatch, first_a):
        # A scripted scorer: a first at log-prob first_a, b at -1; after a,
        # a again at log-prob 0; after b, EOS at 0; every other continuation
        # at -64.  With max_len 4 and width 2, (b, EOS) completes at step 2
        # with score -1/2, while the live (a, a) has the bound first_a / 4:
        # equal to it at -2 (a later tie wins on tokens), above it at -1.75.
        # Searching on, (a, a, a, a) ends at max_len with that score and wins.
        model, _ = tiny_model()
        a, b = 4, 5
        first = np.full(len(model.code_vocab), -np.inf)
        first[[a, b, EOS_ID]] = [first_a, -1.0, -100.0]
        after = {a: {a: 0.0, EOS_ID: -64.0}, b: {EOS_ID: 0.0, b: -64.0}}

        def scripted(model, prevs, availables, state, memory, node_embeddings, reach_filter):
            lp = np.full((len(prevs), len(model.code_vocab)), -np.inf)
            for row, prev in enumerate(prevs):
                if prev == BOS_ID:
                    lp[row] = first
                else:
                    for token, value in after[prev].items():
                        lp[row, token] = value
            rows = neural.zeros((len(prevs), 1))
            return lp, (rows, rows)

        monkeypatch.setattr(model_mod, "_next_log_probs", scripted)
        node_emb = model.embed_nodes()
        expect = [model.code_vocab.token(a)] * 4
        assert full_length_beam(model, ("make", "c"), 2, 4, node_emb) == expect
        assert beam_search(model, ("make", "c"), width=2, max_len=4, node_embeddings=node_emb) == expect

    def test_decoding_builds_no_tape(self, monkeypatch):
        model, pairs = tiny_model(seed=5)
        made = []
        init = neural.Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(neural.Tensor, "__init__", recording_init)
        beam_search(model, pairs[2][0], width=3, max_len=8, reach_filter=True)
        generate_greedy(model, pairs[0][0], max_len=8)
        model_mod.validation_bleu(model, pairs[:2])
        assert made
        for t in made:
            assert not t.requires_grad and t.parents == () and t.bw is None
        assert all(p.requires_grad for p in model.parameters())


class TestReachFilter:
    @staticmethod
    def _synthetic_model():
        spec = SyntheticSpec(n_types=6, n_methods=14, max_chain_len=3, corpus_size=16, seed=5)
        corpus = generate(spec)
        sig = parse_signatures(corpus.signature_text)
        adg = build_adg(sig.nodes(), sig.hierarchy())
        desc_vocab = Vocabulary.from_sequences(d for d, _ in corpus.pairs)
        code_vocab = Vocabulary.from_sequences(c for _, c in corpus.pairs)
        config = ModelConfig(word_dim=8, code_dim=8, hidden_dim=10, mlp_hidden=10)
        return Seq2SeqModel(desc_vocab, code_vocab, adg, config, EmbedderConfig(dim=8), seed=4)

    def test_batched_mask_matches_per_token_loop(self):
        model = self._synthetic_model()
        adg, code_vocab = model.adg, model.code_vocab
        assert len(model.api_node_of_token_id) >= 5
        rng = np.random.default_rng(6)
        names = sorted(adg.hierarchy.names) + ["NotAType"]
        availables = [
            frozenset(rng.choice(names, size=int(rng.integers(0, len(names) + 1)), replace=False))
            for _ in range(40)
        ]
        logits = rng.standard_normal((len(availables), len(code_vocab)))
        lp = model_mod._masked_log_probs(model, logits, availables, True)
        for row, available in zip(lp, availables):
            expect = {PAD_ID, BOS_ID, UNK_ID} | {
                token_id
                for token_id, node_id in model.api_node_of_token_id.items()
                if not adg.is_reachable(node_id, available)
            }
            assert set(np.flatnonzero(row == -np.inf)) == expect
        unfiltered = model_mod._masked_log_probs(model, logits, availables, False)
        assert {int(j) for j in np.flatnonzero(np.isinf(unfiltered).any(axis=0))} == {PAD_ID, BOS_ID, UNK_ID}

    def test_one_query_per_step_matches_per_row_oracle(self, monkeypatch):
        model = self._synthetic_model()
        adg, code_vocab = model.adg, model.code_vocab
        rng = np.random.default_rng(8)
        names = sorted(adg.hierarchy.names)
        shared = frozenset(names[:2])
        availables = [frozenset(), frozenset({"NotAType"}), shared, frozenset(names), shared] + [
            frozenset(rng.choice(names, size=int(rng.integers(1, len(names))), replace=False))
            for _ in range(6)
        ]
        logits = rng.standard_normal((len(availables), len(code_vocab)))
        queries = []
        reachability_rows = type(adg).reachability_rows
        monkeypatch.setattr(
            type(adg), "reachability_rows",
            lambda self, ids, rows: queries.append(len(rows)) or reachability_rows(self, ids, rows),
        )
        lp = model_mod._masked_log_probs(model, logits, availables, True)
        assert queries == [len(availables)]
        plain = neural.log_softmax(logits)
        for row, plain_row, available in zip(lp, plain, availables):
            masked = {PAD_ID, BOS_ID, UNK_ID} | {
                token_id
                for token_id, node_id in model.api_node_of_token_id.items()
                if not adg.is_reachable(node_id, available)
            }
            assert set(np.flatnonzero(row == -np.inf)) == masked
            keep = np.isfinite(row)
            assert np.array_equal(row[keep], plain_row[keep])
        assert np.array_equal(np.isneginf(lp[2]), np.isneginf(lp[4]))
        assert np.isneginf(lp[0]).sum() > len((PAD_ID, BOS_ID, UNK_ID))  # the empty set masks methods

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

    def test_initial_types_must_be_strings(self):
        TrainConfig(initial_types=("Reader",)).validate()
        for bad in (("Reader", 1), ["Reader"], "Reader"):
            with pytest.raises(TypeError, match="initial_types"):
                TrainConfig(initial_types=bad).validate()

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

    def test_validation_leaves_the_tape_on(self):
        # validation decodes under no_grad at steps 1 and 2; the gradients of
        # step 2 must be those of a run without validation
        grads = []
        for validate in (False, True):
            model, pairs = tiny_model(seed=21)
            config = TrainConfig(batch_size=2, max_steps=2, eval_interval=1, patience=5, seed=21)
            history = train(model, pairs, pairs[:2] if validate else [], config)
            assert (history[0].val_bleu is not None) == validate
            grads.append({p.name: p.grad for p in model.parameters()})
        plain, validated = grads
        for name, g in validated.items():
            assert g is not None and plain[name] is not None, name
            assert np.array_equal(g, plain[name]), name

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_batched_loss_matches_per_pair_mean(self, dropout):
        # a ragged batch (descriptions of 2-3 tokens, codes of 6-23 tokens
        # with API tokens) against one-pair calls in batch order, drawing
        # dropout from a generator with the same seed: this pins the padding
        # masks and the order of the dropout draws
        model, pairs = tiny_model(seed=11, dropout=dropout)
        batch = [(model.desc_vocab.encode(d), model.code_vocab.encode(c)) for d, c in pairs]
        params = model.parameters()
        neural.zero_grads(params)
        loss = model.sequence_loss(batch, model.embed_nodes(), train=True, rng=np.random.default_rng(5))
        loss.backward()
        batched = {p.name: p.grad for p in params}

        rng = np.random.default_rng(5)
        mean_loss = 0.0
        mean_grads = {p.name: np.zeros_like(p.data) for p in params}
        for pair in batch:
            neural.zero_grads(params)
            one = model.sequence_loss([pair], model.embed_nodes(), train=True, rng=rng)
            one.backward()
            mean_loss += float(one.data) / len(batch)
            for p in params:
                if p.grad is not None:
                    mean_grads[p.name] += p.grad / len(batch)
        assert abs(float(loss.data) - mean_loss) < 1e-12
        for p in params:
            assert batched[p.name] is not None, p.name
            assert np.allclose(batched[p.name], mean_grads[p.name], rtol=0.0, atol=1e-12), p.name

    def test_training_step_stays_batched(self, monkeypatch):
        # one step on a batch of 8 copies of a pair against a batch of 1
        counts = {}
        for copies in (1, 8):
            model, pairs = tiny_model(seed=3)
            made = [0]
            init = neural.Tensor.__init__

            def counting_init(self, *args, **kwargs):
                made[0] += 1
                init(self, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(neural.Tensor, "__init__", counting_init)
                train(model, [pairs[2]] * copies, [], TrainConfig(batch_size=8, max_steps=1, seed=3))
            counts[copies] = made[0]
        assert counts[8] < 1.5 * counts[1], counts

    def test_history_records_schedule(self):
        model, pairs = tiny_model(seed=15)
        config = TrainConfig(batch_size=4, max_steps=12, warmup_steps=50, seed=15)
        history = train(model, pairs, [], config)
        assert [r.step for r in history] == list(range(1, 13))
        for r in history:
            assert r.lrate == pytest.approx(neural.lrate(r.step, 12, 50))


def masked_lstm_runs(seq, lengths, cell):
    """``neural.lstm_runs`` with the hold applied on every step, live rows or not."""
    counts = np.asarray(lengths)
    starts = np.cumsum(counts) - counts
    h = c = neural.zeros((len(counts), cell.hidden_dim))
    hs = []
    for t in range(int(counts.max())):
        live = counts > t
        x = neural.take_rows(seq, np.where(live, starts + t, starts))
        h_new, c_new = neural.lstm_cell(x, h, c, cell)
        step = neural.constant(live[:, None].astype(np.float64))
        hold = neural.constant((~live)[:, None].astype(np.float64))
        h = neural.add(neural.mul(h_new, step), neural.mul(h, hold))
        c = neural.add(neural.mul(c_new, step), neural.mul(c, hold))
        hs.append(h)
    return hs, (h, c)


class TestLstmRunsHold:
    def _one_pair_forward(self, monkeypatch, runs):
        monkeypatch.setattr(neural, "lstm_runs", runs)
        made = []
        init = neural.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        model, pairs = tiny_model(seed=5, dropout=0.0)
        desc, code = pairs[2]
        monkeypatch.setattr(neural.Tensor, "__init__", counting_init)
        loss = model.sequence_loss(
            [(model.desc_vocab.encode(desc), model.code_vocab.encode(code))], model.embed_nodes()
        )
        params = model.parameters()
        neural.zero_grads(params)
        loss.backward()
        monkeypatch.undo()
        return len(made), float(loss.data), [p.grad.copy() for p in params]

    def test_all_live_steps_skip_the_hold(self, monkeypatch):
        made, loss, grads = self._one_pair_forward(monkeypatch, neural.lstm_runs)
        ref_made, ref_loss, ref_grads = self._one_pair_forward(monkeypatch, masked_lstm_runs)
        assert made < ref_made
        assert loss == ref_loss
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))

    def test_ended_runs_still_hold(self):
        rng = np.random.default_rng(3)
        cell = neural.LstmParams.create("c", 3, 4, rng)
        seq = neural.constant(rng.standard_normal((9, 3)))
        hs, (h, c) = neural.lstm_runs(seq, [4, 1, 4], cell)
        ref_hs, (ref_h, ref_c) = masked_lstm_runs(seq, [4, 1, 4], cell)
        assert all(np.array_equal(a.data, b.data) for a, b in zip(hs, ref_hs))
        assert np.array_equal(h.data, ref_h.data) and np.array_equal(c.data, ref_c.data)


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

    @pytest.mark.parametrize("kind", ["name", "nan", "snan"])
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
            return model.sequence_loss([(desc_ids, code_ids)], node_emb)

        err = neural.gradient_check(loss, model.parameters())
        assert err < 1e-4, f"worst relative gradient error {err}"

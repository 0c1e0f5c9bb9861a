"""Model tests: vocabulary, encoder/decoder composition, query switching,
beam search against exhaustive path enumeration, joint training behavior,
and checkpoint serialization."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgcode import neural
from adgcode.embedder import EmbedderConfig
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

from conftest import corrupt_parameter, edge_triples, met_rows, random_adg
from per_step import (
    add, attention, embed_all, gradient_check, lstm_cell, masked_lstm_runs, reference_sweep, vsum,
)


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


def api_links(model):
    """The {code token id: node id} pairs read off ``node_of_token``: every
    token that names a graph method, with its node."""
    linked = np.flatnonzero(model.node_of_token >= 0)
    return dict(zip(linked.tolist(), model.node_of_token[linked].tolist()))


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
        h2, c2 = lstm_cell(feats, zero, zero, model.enc_lstm)
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
            h, c = lstm_cell(neural.take_rows(feats, [t]), h, c, model.enc_lstm)
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


def decoder_query(model, prev_token_ids, node_emb):
    """The decoder's [N, d] query rows after the tokens ``prev_token_ids``,
    gathered from the query table as decoding gathers them."""
    return node_emb.table.data[model.query_rows(prev_token_ids, node_emb)]


class TestDecoderQuery:
    def test_api_token_uses_node_embedding(self):
        model, _ = tiny_model()
        node_emb = model.embed_nodes()
        m4_token = model.code_vocab.id("m4")
        m4_node = model.adg.id_of("m4")
        q = decoder_query(model, [m4_token], node_emb)
        expect = embed_all(model.adg, model.embedder_params, model.embedder_config)[m4_node]
        assert q.shape == (1, 8)
        assert np.allclose(q[0], expect, rtol=0.0, atol=1e-12)

    def test_plain_token_uses_lookup_row(self):
        model, _ = tiny_model()
        node_emb = model.embed_nodes()
        paren = model.code_vocab.id("(")
        q = decoder_query(model, [paren], node_emb)
        assert np.array_equal(q[0], model.code_lut.data[paren])

    def test_unlinking_switches_branch(self):
        # Unlinking m4 in node_of_token switches its query to the lookup row,
        # and the reach filter follows: m4 (C, D) -> E is no longer masked
        # while C and D are unmet, and emitting it no longer meets E.
        model, _ = tiny_model()
        m4_token = model.code_vocab.id("m4")
        unmet = np.zeros((1, model.adg.provides.shape[1]), dtype=bool)
        logits = np.zeros((1, len(model.code_vocab)))

        def met_after_m4():
            """The met row that beam search hands the step after emitting m4."""
            seen = []

            def scripted(self, prevs, state, memory, mask, node_embeddings, met, reach_filter):
                seen.append(met.copy())
                lp = np.full((len(prevs), len(self.code_vocab)), -np.inf)
                lp[:, m4_token if len(seen) == 1 else EOS_ID] = 0.0
                return lp, state

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Seq2SeqModel, "decode_step", scripted)
                assert beam_search(model, ("make", "c"), width=1, reach_filter=True) == ["m4"]
            return seen[1][0]

        with_link = decoder_query(model, [m4_token], model.embed_nodes())[0]
        linked_lp = masked_log_probs(model, logits, unmet, True)
        linked_met = met_after_m4()
        model.node_of_token[m4_token] = -1
        try:
            without_link = decoder_query(model, [m4_token], model.embed_nodes())[0]
            unlinked_lp = masked_log_probs(model, logits, unmet, True)
            unlinked_met = met_after_m4()
        finally:
            model.node_of_token[m4_token] = model.adg.id_of("m4")
        assert np.array_equal(without_link, model.code_lut.data[m4_token])
        assert not np.array_equal(with_link, without_link)
        assert linked_lp[0, m4_token] == -np.inf and np.isfinite(unlinked_lp[0, m4_token])
        assert np.array_equal(linked_met, model.adg.provides[model.adg.id_of("m4")])
        assert linked_met.any() and not unlinked_met.any()

    def test_unembedded_api_token_raises_key_error(self):
        model, _ = tiny_model()
        only_m2 = model.embed_nodes([model.adg.id_of("m2")])
        decoder_query(model, [model.code_vocab.id("m2")], only_m2)
        with pytest.raises(KeyError, match="not embedded"):
            decoder_query(model, [model.code_vocab.id("("), model.code_vocab.id("m4")], only_m2)


def encode_arrays(model, descs):
    """The encoder memory and final (h, c) as arrays, as decoding holds them."""
    memory, (h, c) = model.encode(descs)
    return memory.data, (h.data, c.data)


def attend_all(prevs, memory):
    """The additive key mask of rows after ``prevs`` that attend over all of
    ``memory``."""
    return np.zeros((len(prevs), len(memory)))


def step_logits(model, prevs, state, memory, node_emb):
    """One decoder step's logits and new state, over arrays: the output of
    the readout inside ``decode_step``, each row attending over all of
    ``memory``."""
    seen = []
    readout = model.readout

    def recording(features):
        out = readout(features)
        seen.append(out.data)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "readout", recording)
        _, state = model.decode_step(prevs, state, memory, attend_all(prevs, memory), node_emb, None, False)
    return seen[0], state


def query_table(query):
    """Previous tokens 0..N-1 and a query table that holds row i of the
    [N, d] ``query`` as token i's query: decoder queries set by hand."""
    return list(range(len(query))), model_mod.QueryTable(neural.constant(query), np.arange(len(query)))


def masked_log_probs(model, logits, met, reach_filter):
    """``decode_step``'s log-probabilities when its readout gives the [N, V]
    ``logits``: N rows after BOS from a zero state, with the met rows
    ``met``."""
    n, hidden = len(logits), model.config.hidden_dim
    zero, memory = np.zeros((n, hidden)), np.zeros((1, hidden))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "readout", lambda features: neural.constant(logits))
        lp, _ = model.decode_step(
            [BOS_ID] * n, (zero, zero), memory, attend_all(logits, memory), model.embed_nodes(),
            met, reach_filter,
        )
    return lp


class TestDecodeStep:
    def test_logit_width_is_vocab_size(self):
        model, _ = tiny_model()
        states, s0 = encode_arrays(model, [[4, 5]])
        node_emb = model.embed_nodes()
        logits, _ = step_logits(model, [BOS_ID], s0, states, node_emb)
        assert logits.shape == (1, len(model.code_vocab))

    def test_deterministic(self):
        model, _ = tiny_model()
        states, s0 = encode_arrays(model, [[4, 5]])
        prevs, table = query_table(np.zeros((1, 8)))
        a, _ = step_logits(model, prevs, s0, states, table)
        b, _ = step_logits(model, prevs, s0, states, table)
        assert np.array_equal(a, b)

    def test_matches_composition_oracle(self):
        model, _ = tiny_model()
        states, (h0, c0) = encode_arrays(model, [[4, 5, 6]])
        rng = np.random.default_rng(1)
        q = rng.standard_normal((1, 8))
        prevs, table = query_table(q)
        logits, (h1, c1) = step_logits(model, prevs, (h0, c0), states, table)

        h0, c0 = neural.constant(h0), neural.constant(c0)
        _, ctx = attention(neural.constant(states), h0, model.att_w)
        h2, c2 = lstm_cell(neural.concat([neural.constant(q), ctx]), h0, c0, model.dec_lstm)
        features = np.concatenate([h2.data[0], ctx.data[0]])
        hid = np.maximum(model.out_w1.data @ features + model.out_b1.data, 0.0)
        expect = model.out_w2.data @ hid + model.out_b2.data
        assert np.allclose(logits[0], expect, atol=1e-12)
        assert np.allclose(h1, h2.data, atol=1e-12)

    def test_batched_rows_match_one_row_steps(self):
        model, _ = tiny_model()
        memory, _ = encode_arrays(model, [[4, 5, 6]])
        rng = np.random.default_rng(2)
        q, h0, c0 = (rng.standard_normal((4, d)) for d in (8, 12, 12))
        prevs, table = query_table(q)
        logits, (h1, c1) = step_logits(model, prevs, (h0, c0), memory, table)
        assert logits.shape == (4, len(model.code_vocab))
        for i in range(4):
            row = np.s_[i : i + 1]
            prevs, table = query_table(q[row])
            one, (h, c) = step_logits(model, prevs, (h0[row], c0[row]), memory, table)
            assert np.allclose(logits[i], one[0], rtol=0.0, atol=1e-12)
            assert np.allclose(h1[i], h[0], rtol=0.0, atol=1e-12)
            assert np.allclose(c1[i], c[0], rtol=0.0, atol=1e-12)

    def test_is_one_step_of_the_training_sweep(self, monkeypatch):
        # Ragged descriptions, each row masked to its own memory, and query
        # rows that include node embeddings: each attention_lstm_step equals
        # the same step of lstm_sweep with attention under no_grad, its features
        # and its (h, c) bit for bit, and builds no Tensor.  decode_step runs
        # that step from the previous tokens: its log-probabilities are those
        # of the readout of the sweep's rows, masked, and it builds only the
        # readout's 4 Tensors, none of them on a tape.
        model, pairs = tiny_model(seed=6)
        descs = [model.desc_vocab.encode(d) for d, _ in pairs]
        assert len({len(d) for d in descs}) > 1  # descriptions of unequal length
        node_emb = model.embed_nodes()
        prevs = [[BOS_ID] * len(pairs), [model.code_vocab.id(c[2]) for _, c in pairs]]
        assert all(t in api_links(model) for t in prevs[1])
        rows = np.stack([model.query_rows(p, node_emb) for p in prevs])  # [steps, N]
        mask = model_mod._own_memory_mask([len(d) for d in descs])
        cells = []  # each step's c, recorded from the sweep's cell
        forward = neural._cell_forward

        def recording(z, c_prev, p):
            h, c, gates = forward(z, c_prev, p)
            cells.append(c)
            return h, c, gates

        with neural.no_grad():
            memory, (h, c) = model.encode(descs)
            with monkeypatch.context() as patch:
                patch.setattr(neural, "_cell_forward", recording)
                sweep = neural.lstm_sweep(
                    node_emb.table, rows.T.reshape(-1), [len(prevs)] * len(pairs), model.dec_lstm,
                    (h, c), (memory, mask, model.att_w),
                )[0].data
        assert len(cells) == len(prevs)
        hidden = model.config.hidden_dim
        state = h.data, c.data
        made = count_tensors(monkeypatch)
        for s, step_rows in enumerate(rows):
            h_next, c_next, context, _ = neural.attention_lstm_step(
                node_emb.table.data[step_rows], *state, memory.data, mask, model.att_w.data, model.dec_lstm
            )
            state = h_next, c_next
            block = sweep[s :: len(prevs)]  # step s of every row
            assert np.concatenate([h_next, context], axis=1).tobytes() == block.tobytes(), s
            assert state[0].tobytes() == block[:, :hidden].tobytes(), s
            assert state[1].tobytes() == cells[s].tobytes(), s
        assert made == []
        state = h.data, c.data
        for s, step_prevs in enumerate(prevs):
            block = sweep[s :: len(prevs)]
            with neural.no_grad():
                expect = neural.log_softmax(model.readout(neural.constant(block)).data)
                expect[:, [PAD_ID, BOS_ID, UNK_ID]] = -np.inf
                made.clear()
                lp, state = model.decode_step(step_prevs, state, memory.data, mask, node_emb, None, False)
            assert len(made) == 4 and all(t.parents == () for t in made), s
            assert lp.tobytes() == expect.tobytes(), s
            assert state[0].tobytes() == block[:, :hidden].tobytes(), s
            assert state[1].tobytes() == cells[s].tobytes(), s


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


def mask_by_names(model, lp, available, reach_filter):
    """Oracle masking of one row of log-probabilities, in place: the reserved
    ids, and with ``reach_filter`` every API token whose method is not
    reachable from the type names in ``available``."""
    lp[[PAD_ID, BOS_ID, UNK_ID]] = -np.inf
    if reach_filter:
        for token_id, node_id in api_links(model).items():
            if not model.adg.is_reachable(node_id, available):
                lp[token_id] = -np.inf
    return lp


def emitted_outputs(model, token_id):
    """The output type names of the method that ``token_id`` names, if any."""
    node_id = api_links(model).get(token_id)
    return set(model.adg.node(node_id).outputs) if node_id is not None else set()


def argmax_rollout(model, desc, max_len, reach_filter=False):
    """Oracle: greedy decoding as its own loop, each step the argmax of
    one decoder step's masked log-probabilities, ties to the smallest id."""
    node_emb = model.embed_nodes()
    memory, state = encode_arrays(model, [model.desc_vocab.encode(desc)])
    prev, available, out = BOS_ID, set(), []
    for _ in range(max_len):
        logits, state = step_logits(model, [prev], state, memory, node_emb)
        lp = mask_by_names(model, neural.log_softmax(logits)[0], available, reach_filter)
        prev = int(np.argmax(lp))  # the first maximum, so the smallest id on ties
        if prev == EOS_ID:
            break
        out.append(model.code_vocab.token(prev))
        available |= emitted_outputs(model, prev)
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
        with pytest.raises(ValueError, match="max_len"):
            beam_search(model, ("make", "c"), max_len=0)

    def _exhaustive_best(self, model, desc, max_len):
        """Enumerate every token sequence (stopping at EOS or max_len) over EOS
        and the non-reserved tokens, and return the one with the best
        length-normalized score."""
        desc_ids = model.desc_vocab.encode(desc)
        states, s0 = encode_arrays(model, [desc_ids])
        node_emb = model.embed_nodes()
        results = []

        def log_probs(prev, state):
            logits, new_state = step_logits(model, [prev], state, states, node_emb)
            x = logits[0]
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
            states, state = encode_arrays(model, [desc_ids])
            node_emb = model.embed_nodes()
            ids = [model.code_vocab.id(t) for t in tokens] + [EOS_ID]
            prev = BOS_ID
            total = 0.0
            for tid in ids:
                logits, state = step_logits(model, [prev], state, states, node_emb)
                x = logits[0]
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
    (-score, tokens) over all completed hypotheses.  Each live hypothesis
    keeps the set of type names its methods output, and the reach filter
    masks by :func:`mask_by_names`."""
    memory, state = encode_arrays(model, [model.desc_vocab.encode(desc)])
    live, names = [model_mod.BeamHypothesis((), 0.0)], [set()]
    completed = []
    for _ in range(max_len):
        prevs = [hyp.tokens[-1] if hyp.tokens else BOS_ID for hyp in live]
        lp, (h, c) = model.decode_step(
            prevs, state, memory, attend_all(prevs, memory), node_embeddings,
            None, False,  # no met rows: the oracle masks by names below
        )
        for row, available in enumerate(names):
            mask_by_names(model, lp[row], available, reach_filter)
        order = np.argsort(-lp, axis=1, kind="stable")[:, :width]
        expansions = []
        for row, hyp in enumerate(live):
            for token_id in order[row].tolist():
                if lp[row, token_id] == -np.inf:
                    continue
                tokens = hyp.tokens + (token_id,)
                logp = hyp.logp + float(lp[row, token_id])
                if token_id == EOS_ID or len(tokens) >= max_len:
                    completed.append(model_mod.BeamHypothesis(tokens, logp))
                else:
                    expansions.append((-logp, tokens, row))
        if not expansions:
            break
        expansions.sort()
        kept = expansions[:width]
        live = [model_mod.BeamHypothesis(tokens, -neg_logp) for neg_logp, tokens, _ in kept]
        names = [names[row] | emitted_outputs(model, tokens[-1]) for _, tokens, row in kept]
        rows = [row for _, _, row in kept]
        state = (h[rows], c[rows])
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

        def scripted(self, prevs, state, memory, mask, node_embeddings, met, reach_filter):
            lp = np.full((len(prevs), len(self.code_vocab)), -np.inf)
            for row, prev in enumerate(prevs):
                if prev == BOS_ID:
                    lp[row] = first
                else:
                    for token, value in after[prev].items():
                        lp[row, token] = value
            rows = np.zeros((len(prevs), 1))
            return lp, (rows, rows)

        monkeypatch.setattr(Seq2SeqModel, "decode_step", scripted)
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
        model_mod.beam_search_many(model, [d for d, _ in pairs], width=3, max_len=8, reach_filter=True)
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
        assert len(api_links(model)) >= 5
        rng = np.random.default_rng(6)
        names = sorted(adg.hierarchy.names) + ["NotAType"]
        availables = [
            frozenset(rng.choice(names, size=int(rng.integers(0, len(names) + 1)), replace=False))
            for _ in range(40)
        ]
        logits = rng.standard_normal((len(availables), len(code_vocab)))
        lp = masked_log_probs(model, logits, met_rows(adg, availables), True)
        for row, available in zip(lp, availables):
            expect = {PAD_ID, BOS_ID, UNK_ID} | {
                token_id
                for token_id, node_id in api_links(model).items()
                if not adg.is_reachable(node_id, available)
            }
            assert set(np.flatnonzero(row == -np.inf)) == expect
        unfiltered = masked_log_probs(model, logits, met_rows(adg, availables), False)
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
            lambda self, ids, met: queries.append(len(met)) or reachability_rows(self, ids, met),
        )
        lp = masked_log_probs(model, logits, met_rows(adg, availables), True)
        assert queries == [len(availables)]
        plain = neural.log_softmax(logits)
        for row, plain_row, available in zip(lp, plain, availables):
            masked = {PAD_ID, BOS_ID, UNK_ID} | {
                token_id
                for token_id, node_id in api_links(model).items()
                if not adg.is_reachable(node_id, available)
            }
            assert set(np.flatnonzero(row == -np.inf)) == masked
            keep = np.isfinite(row)
            assert np.array_equal(row[keep], plain_row[keep])
        assert np.array_equal(np.isneginf(lp[2]), np.isneginf(lp[4]))
        assert np.isneginf(lp[0]).sum() > len((PAD_ID, BOS_ID, UNK_ID))  # the empty set masks methods

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_types=st.integers(1, 8),
        n_methods=st.integers(1, 20),
        picks=st.lists(st.integers(0, 19), max_size=8),
    )
    def test_met_rows_follow_the_emitted_methods(self, seed, n_types, n_methods, picks):
        # provides[m] marks the types m's outputs satisfy; a scripted scorer
        # forces beam search through a random method sequence, and the met
        # rows it hands each step must reach what the emitted names reach
        adg, methods, hierarchy = random_adg(np.random.default_rng(seed), n_types, n_methods)
        types = sorted(hierarchy.names)
        assert adg.provides.tolist() == [
            [any(hierarchy.matches(o, t) for o in m.outputs) for t in types] for m in methods
        ]
        assert not adg.provides.flags.writeable
        emitted = [methods[i % n_methods] for i in picks]
        code_vocab = Vocabulary.from_sequences([[m.name for m in methods]])
        config = ModelConfig(word_dim=4, code_dim=4, hidden_dim=4, mlp_hidden=4, max_len=len(emitted) + 1)
        model = Seq2SeqModel(Vocabulary([("go", 1)]), code_vocab, adg, config, EmbedderConfig(dim=4))
        script = [code_vocab.id(m.name) for m in emitted] + [EOS_ID]
        seen = []

        def scripted(self, prevs, state, memory, mask, node_embeddings, met, reach_filter):
            seen.append(met.copy())
            lp = np.full((len(prevs), len(code_vocab)), -np.inf)
            lp[:, script[len(seen) - 1]] = 0.0
            return lp, state

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Seq2SeqModel, "decode_step", scripted)
            out = beam_search(model, ("go",), width=1, reach_filter=True)
        assert out == [m.name for m in emitted] and len(seen) == len(script)
        all_ids = list(range(adg.num_nodes))
        for k, met in enumerate(seen):
            available = {o for m in emitted[:k] for o in m.outputs}
            assert met.shape == (1, len(types))
            got = adg.reachability_rows(all_ids, met)[0].tolist()
            assert got == [adg.is_reachable(n, available) for n in all_ids], k

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


class TestBatchedBeam:
    """``beam_search_many`` decodes a list of descriptions as one beam and
    must equal decoding them one by one with ``beam_search``."""

    @staticmethod
    def _sharpened(seed, eos_bias):
        # as in TestBeamStopping: completions of different lengths compete
        model, pairs = tiny_model(seed=seed)
        model.code_lut.data = model.code_lut.data * 4.0
        model.out_w2.data = model.out_w2.data * 8.0
        model.out_b2.data = model.out_b2.data * 8.0
        model.out_b2.data[EOS_ID] += eos_bias
        return model, [d for d, _ in pairs]

    @pytest.mark.parametrize("reach_filter", [False, True])
    @pytest.mark.parametrize("width", [1, 3])
    def test_equals_one_by_one(self, monkeypatch, width, reach_filter):
        synthetic = TestReachFilter._synthetic_model()
        cases = [self._sharpened(seed, bias) for seed in (1, 4) for bias in (1.0, 0.5)]
        cases.append((synthetic, [d for d, _ in generate(
            SyntheticSpec(n_types=6, n_methods=14, max_chain_len=3, corpus_size=16, seed=5)
        ).pairs]))
        for model, descs in cases:
            assert len({len(d) for d in descs}) > 1  # descriptions of unequal length
            node_emb = model.embed_nodes()
            expect = [
                beam_search(model, d, width, 12, node_embeddings=node_emb, reach_filter=reach_filter)
                for d in descs
            ]
            assert expect == [
                full_length_beam(model, d, width, 12, node_emb, reach_filter) for d in descs
            ]
            for block in (model_mod.DECODE_BLOCK, 3):
                monkeypatch.setattr(model_mod, "DECODE_BLOCK", block)
                got = model_mod.beam_search_many(
                    model, descs, width, 12, node_embeddings=node_emb, reach_filter=reach_filter
                )
                assert got == expect, block
        assert model_mod.beam_search_many(synthetic, [], width) == []

    def test_descriptions_leave_the_step_when_done(self, monkeypatch):
        # A scripted scorer that reads each row's description off its key
        # mask (the number of memory rows it may attend to is the
        # description's length).  Length 1: a at 0, EOS at -1, then EOS at 0,
        # so (a, EOS) completes at score 0 on step 2 and the bound fires.
        # Length 2: a at -0.1 and b at -0.2 forever, EOS at -50: it runs to
        # max_len.  Length 3: EOS is the one selectable token, so it ends
        # after one step with nothing to expand.
        model, _ = tiny_model()
        a, b = 4, 5
        sizes = []

        def scripted(self, prevs, state, memory, mask, node_embeddings, met, reach_filter):
            sizes.append(len(prevs))
            lp = np.full((len(prevs), len(self.code_vocab)), -np.inf)
            for row, prev in enumerate(prevs):
                length = int(np.sum(mask[row] == 0.0))
                if length == 1:
                    lp[row, [a, EOS_ID]] = [0.0, -1.0] if prev == BOS_ID else [-np.inf, 0.0]
                    lp[row, b] = -np.inf if prev == BOS_ID else -1.0
                elif length == 2:
                    lp[row, [a, b, EOS_ID]] = [-0.1, -0.2, -50.0]
                else:
                    lp[row, EOS_ID] = 0.0
            rows = np.zeros((len(prevs), 1))
            return lp, (rows, rows)

        monkeypatch.setattr(Seq2SeqModel, "decode_step", scripted)
        descs = [("make",), ("make", "c"), ("combine", "c", "d")]
        node_emb = model.embed_nodes()
        token = model.code_vocab.token
        expect = [[token(a)], [token(a)] * 4, []]
        assert [beam_search(model, d, 2, 4, node_embeddings=node_emb) for d in descs] == expect
        sizes.clear()
        assert model_mod.beam_search_many(model, descs, 2, 4, node_embeddings=node_emb) == expect
        # step 1: one row per description; step 2: length 1's (a) and length
        # 2's (a) and (b); steps 3 and 4: only length 2's two rows
        assert sizes == [3, 3, 2, 2]
        sizes.clear()
        assert model_mod.beam_search_many(model, descs[::-1], 2, 4, node_embeddings=node_emb) == expect[::-1]
        assert sizes == [3, 3, 2, 2]


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
        loss = model.sequence_loss(batch, model.embed_nodes(), rng=np.random.default_rng(5))
        loss.backward()
        batched = {p.name: p.grad for p in params}

        rng = np.random.default_rng(5)
        mean_loss = 0.0
        mean_grads = {p.name: np.zeros_like(p.data) for p in params}
        for pair in batch:
            neural.zero_grads(params)
            one = model.sequence_loss([pair], model.embed_nodes(), rng=rng)
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


class TestLstmRunsReference:
    def _batch_forward(self, monkeypatch, runs):
        monkeypatch.setattr(neural, "lstm_sweep", runs)
        made = []
        init = neural.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        model, pairs = tiny_model(seed=5, dropout=0.0)
        batch = [(model.desc_vocab.encode(d), model.code_vocab.encode(c)) for d, c in pairs]
        assert len({len(d) for d, _ in batch}) > 1  # descriptions of unequal length
        monkeypatch.setattr(neural.Tensor, "__init__", counting_init)
        loss = model.sequence_loss(batch, model.embed_nodes())
        params = model.parameters()
        neural.zero_grads(params)
        loss.backward()
        monkeypatch.undo()
        return len(made), float(loss.data), [p.grad.copy() for p in params]

    def test_sequence_loss_bit_equal_with_fewer_tensors(self, monkeypatch):
        made, loss, grads = self._batch_forward(monkeypatch, neural.lstm_sweep)
        ref_made, ref_loss, ref_grads = self._batch_forward(monkeypatch, reference_sweep(attending=False))
        assert made < ref_made
        assert loss == ref_loss
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))

    def test_live_rows_and_final_state_bit_equal(self):
        # runs of 4, 1 and 4 rows, then one run of 1, runs of equal length
        # and runs of length 1; the rows, the final h and c and the
        # gradients of a loss over them equal the reference's
        rng = np.random.default_rng(3)
        cell = neural.LstmParams.create("c", 3, 4, rng)
        seq = neural.Parameter("seq", rng.standard_normal((9, 3)))
        leaves = [seq, *cell.parameters()]
        for lengths in (np.array([4, 1, 4]), np.array([1]), np.array([3, 3, 3]), np.array([1, 1, 1])):
            n = int(lengths.sum())
            probes = [neural.constant(rng.standard_normal(s)) for s in ((n, 4), (len(lengths), 4))]
            results = []
            for ref in (False, True):
                neural.zero_grads(leaves)
                if ref:
                    hs, cs = masked_lstm_runs(seq, lengths, cell)
                    c = neural.last_steps(cs, lengths)
                else:
                    hs, c = neural.lstm_sweep(seq, np.arange(n), lengths, cell)
                h = neural.last_steps(hs, lengths)
                loss = add(vsum(neural.mul(hs, probes[0])), vsum(neural.mul(c, probes[1])))
                results.append((hs.data, h.data, c.data))
                loss.backward()
                results.append([t.grad for t in leaves])
            (rows, h, c), grads, (ref_rows, ref_h, ref_c), ref_grads = results
            assert rows.shape == ref_rows.shape == (n, 4)  # one row per live step
            assert np.array_equal(rows, ref_rows), lengths
            assert np.array_equal(h, ref_h) and np.array_equal(c, ref_c), lengths  # final h, then c
            for t, g, r in zip(leaves, grads, ref_grads):
                assert np.array_equal(g, r), (lengths, t.name)


def count_tensors(monkeypatch):
    """A list that collects every Tensor built while the patch holds."""
    made = []
    init = neural.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(neural.Tensor, "__init__", counting_init)
    return made


class TestDecoderSweepReference:
    @staticmethod
    def _loss_and_grads(monkeypatch, dropout, reference):
        model, pairs = tiny_model(seed=8, dropout=dropout)
        batch = [(model.desc_vocab.encode(d), model.code_vocab.encode(c)) for d, c in pairs]
        assert len({len(c) for _, c in batch}) > 1  # codes of unequal length
        node_emb = model.embed_nodes()
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(neural, "lstm_sweep", reference_sweep(attending=True))
            made = count_tensors(patch)
            loss = model.sequence_loss(batch, node_emb, rng=np.random.default_rng(9))
            params = model.parameters()
            neural.zero_grads(params)
            loss.backward()
        return len(made), float(loss.data), [(p.name, p.grad) for p in params]

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_sequence_loss_bit_equal_with_fewer_tensors(self, monkeypatch, dropout):
        made, loss, grads = self._loss_and_grads(monkeypatch, dropout, reference=False)
        ref_made, ref_loss, ref_grads = self._loss_and_grads(monkeypatch, dropout, reference=True)
        assert made < ref_made
        assert loss == ref_loss
        for (name, g), (_, r) in zip(grads, ref_grads):
            assert g is not None and g.tobytes() == r.tobytes(), name


class TestTrainingTapeSize:
    @pytest.mark.parametrize("side", ["code", "description"])
    def test_tensors_do_not_depend_on_sequence_lengths(self, monkeypatch, side):
        # one sequence_loss plus backward, with the longest code (or
        # description) 3 tokens long and 12 tokens long
        model, _ = tiny_model(seed=10)
        desc_ids = [model.desc_vocab.id(t) for t in ("make", "c", "d", "combine", "just")]
        code_ids = [model.code_vocab.id(t) for t in ("v0", "=", "m2", "(", ")", ";", "m4")]

        def cycle(ids, n):
            return [ids[k % len(ids)] for k in range(n)]

        counts = []
        for longest in (3, 12):
            lengths = {"description": (2, 2), "code": (2, 2)}
            lengths[side] = (longest, 2)
            batch = [
                (cycle(desc_ids, d), cycle(code_ids, c))
                for d, c in zip(lengths["description"], lengths["code"])
            ]
            node_emb = model.embed_nodes()  # a backward frees the table's tape
            with monkeypatch.context() as patch:
                made = count_tensors(patch)
                loss = model.sequence_loss(batch, node_emb, rng=np.random.default_rng(1))
                neural.zero_grads(model.parameters())
                loss.backward()
            counts.append(len(made))
        assert counts[0] == counts[1], counts


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
        assert edge_triples(restored.adg) == edge_triples(model.adg)
        assert api_links(restored) == api_links(model)


@functools.cache
def tiny_checkpoint() -> bytes:
    return save_checkpoint(tiny_model()[0])


class TestCheckpointMutations:
    """Damaged checkpoint bytes load or raise ``CheckpointFormatError``,
    never another exception.  A mutant that loads is not decoded: a finite
    corruption of a weight can still overflow in the log-softmax."""

    @settings(max_examples=600, deadline=None)
    @given(
        how=st.sampled_from(["truncate", "flip-bit", "delete-byte"]),
        # half the positions in the header, the hyperparameter block and the
        # first parameter rows, which the weights would otherwise outnumber
        at=st.integers(0, 1023) | st.integers(0, 2**20),
        bit=st.integers(0, 7),
    )
    def test_mutant_loads_or_raises_format_error(self, how, at, bit):
        blob = tiny_checkpoint()
        if how == "truncate":
            mutant = blob[: at % len(blob)]
        else:
            k = at % len(blob)
            middle = bytes([blob[k] ^ (1 << bit)]) if how == "flip-bit" else b""
            mutant = blob[:k] + middle + blob[k + 1 :]
        try:
            restored = load_checkpoint(mutant)
        except CheckpointFormatError:
            return
        assert how != "truncate"  # a strict prefix is cut short in some field
        assert isinstance(restored, Seq2SeqModel)


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

        err = gradient_check(loss, model.parameters())
        assert err < 1e-4, f"worst relative gradient error {err}"

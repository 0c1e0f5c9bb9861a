"""Encoder-embedder-decoder model for description-to-code generation.

Descriptions are embedded through a lookup table, refined by windowed ReLU
feature layers, and run through an LSTM encoder.  The decoder attends over
encoder states each step; its query is the previous code token's embedding,
except that tokens naming graph methods use the method's node embedding
instead (query switching).  The links from code tokens to graph nodes are
held once, as the array ``Seq2SeqModel.node_of_token``: query switching,
training's choice of nodes to embed and the reach filter read it where they
use it.  Training is teacher-forced joint optimization of
encoder, embedder, and decoder under a single mean cross-entropy loss, each
batch run as one pass over rows one pair after another, in which the
encoder and the decoder recurrences are one call each of the one sweep op,
``neural.lstm_sweep`` (the decoder's with attention).  The sweep takes and
returns rows run after run, so the model neither pads nor reorders rows:
the encoder's states are the memory, its final c is the decoder's initial
c, and the decoder's rows go straight to the readout.  Decoding runs one
``decode_step`` per token over arrays, from the previous tokens to the
masked log-probabilities of the next, through the sweep's own step without
a tape.  The settings,
``ModelConfig`` and ``TrainConfig``, live in ``config`` and check themselves
when built, so neither the model nor ``train`` checks them again.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import embedder as emb_mod
from . import neural
from .config import (
    CheckpointFormatError,
    EmbedderConfig,
    ModelConfig,
    TrainConfig,
    TrainingDivergedError,
)
from .embedder import EmbedderParams
from .graph import Adg, dump_graph, load_graph
from .neural import LstmParams, Parameter, Tensor
from .signatures import RESERVED_TOKENS, link_api_tokens

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN = RESERVED_TOKENS
# Reserved ids that are never valid code: corpora cannot contain them, BOS only
# seeds the decoder, and an emitted UNK can never match a reference.  EOS is
# not among them because emitting it ends the sequence.
_NEVER_EMITTED_IDS = (PAD_ID, BOS_ID, UNK_ID)

CHECKPOINT_HEADER = b"ADGS2S-v1\n"

# Descriptions decoded as one batched beam at most.  Every row attends over
# the memory of the whole batch, so a step costs rows x memory rows: bounding
# the batch keeps a large test set linear in its size.  On the benchmark's
# model shapes, blocks of 8 to 16 decoded fastest.
DECODE_BLOCK = 16


class Vocabulary:
    """Token/id bijection with fixed reserved ids 0..3 and frequency counts."""

    def __init__(self, entries: Sequence[tuple[str, int]]):
        tokens = list(RESERVED_TOKENS)
        counts: dict[str, int] = {}
        for tok, count in entries:
            if not isinstance(tok, str):
                raise TypeError(f"vocabulary token must be a string, got {tok!r}")
            if isinstance(count, bool) or not isinstance(count, int):
                raise TypeError(f"count of vocabulary token {tok!r} must be an int, got {count!r}")
            if tok in RESERVED_TOKENS:
                raise ValueError(f"reserved token {tok!r} cannot appear in a corpus")
            if tok in counts:
                raise ValueError(f"duplicate vocabulary token {tok!r}")
            tokens.append(tok)
            counts[tok] = count
        self._tokens = tokens
        self._ids = {t: i for i, t in enumerate(tokens)}
        self.counts = counts

    @classmethod
    def from_sequences(cls, sequences: Iterable[Sequence[str]]) -> "Vocabulary":
        """Build from token sequences; entries ordered by (-count, token)."""
        counter: Counter = Counter()
        for seq in sequences:
            counter.update(seq)
        entries = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls(entries)

    def id(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.id(t) for t in tokens]

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)

    def entries(self) -> list[tuple[str, int]]:
        return [(t, self.counts[t]) for t in self._tokens[len(RESERVED_TOKENS) :]]


class TrainRecord(NamedTuple):
    step: int
    loss: float
    lrate: float
    val_bleu: Optional[float] = None


class QueryTable(NamedTuple):
    """Decoder queries under query switching, as the rows of one table: the
    ``code_lut`` rows, then the embedded nodes' rows.  ``row_of[t]`` is code
    token t's row; -1 marks an API token whose node was not embedded."""

    table: Tensor
    row_of: np.ndarray


class BeamHypothesis(NamedTuple):
    """One live or finished beam entry; the decoder states of the live
    entries are the rows of one [ΣW, h] pair held by ``beam_search_many``."""

    tokens: tuple[int, ...]
    logp: float

    def score(self) -> float:
        """Length-normalized cumulative log-probability."""
        return self.logp / max(len(self.tokens), 1)


class Seq2SeqModel:
    """All trainable parameters of the encoder, embedder, and decoder."""

    def __init__(
        self,
        desc_vocab: Vocabulary,
        code_vocab: Vocabulary,
        adg: Adg,
        config: ModelConfig,
        embedder_config: EmbedderConfig,
        seed: Optional[int] = 0,
    ):
        """``seed`` seeds the Glorot draws of every weight.  With ``seed``
        None nothing is drawn and every parameter starts at zero, for a
        caller that then sets each one (``load_checkpoint``)."""
        if embedder_config.dim != config.code_dim:
            raise ValueError(
                "node embedding dimension must equal the code token dimension "
                f"(query switching): {embedder_config.dim} != {config.code_dim}"
            )
        self.desc_vocab = desc_vocab
        self.code_vocab = code_vocab
        self.adg = adg
        self.config = config
        self.embedder_config = embedder_config

        rng = None if seed is None else np.random.default_rng(np.random.SeedSequence(seed))
        h, wd, cd = config.hidden_dim, config.word_dim, config.code_dim
        self.desc_lut = Parameter("desc_lut", neural.glorot_init((len(desc_vocab), wd), rng))
        self.code_lut = Parameter("code_lut", neural.glorot_init((len(code_vocab), cd), rng))
        span = 2 * config.relu_window + 1
        self.stack_weights = [
            Parameter(f"enc.stack{l}", neural.glorot_init((wd, span * wd), rng))
            for l in range(config.relu_layers)
        ]
        self.enc_lstm = LstmParams.create("enc.lstm", wd, h, rng)
        self.dec_lstm = LstmParams.create("dec.lstm", cd + h, h, rng)
        self.att_w = Parameter("att.w", neural.glorot_init((h, h), rng))
        self.out_w1 = Parameter("out.w1", neural.glorot_init((config.mlp_hidden, 2 * h), rng))
        self.out_b1 = Parameter("out.b1", np.zeros(config.mlp_hidden))
        self.out_w2 = Parameter("out.w2", neural.glorot_init((len(code_vocab), config.mlp_hidden), rng))
        self.out_b2 = Parameter("out.b2", np.zeros(len(code_vocab)))
        self.embedder_params = EmbedderParams.create(adg, embedder_config, rng)

        # code token t's graph node, or -1 if t names no method
        links = link_api_tokens(code_vocab.tokens, adg)
        self.node_of_token = np.array([links.get(t, -1) for t in code_vocab.tokens], dtype=np.intp)

    def parameters(self) -> list[Parameter]:
        """All trainable parameters in canonical (sorted-name) order."""
        params = [
            self.desc_lut,
            self.code_lut,
            *self.stack_weights,
            *self.enc_lstm.parameters(),
            *self.dec_lstm.parameters(),
            self.att_w,
            self.out_w1,
            self.out_b1,
            self.out_w2,
            self.out_b2,
            *self.embedder_params.parameters(),
        ]
        return sorted(params, key=lambda p: p.name)

    # -- encoder ----------------------------------------------------------

    def encode(
        self,
        descs: Sequence[Sequence[int]],
        feature_mask: Optional[Tensor] = None,
        memory_mask: Optional[Tensor] = None,
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Lookup, windowed ReLU feature layers, then one LSTM sweep with the
        descriptions ``descs`` as the rows of one [B, h] state.  Returns the
        sweep's hidden states, one description after another, as the
        [ΣT, h] memory, and the final (h, c) as [B, h] rows: the last of
        each description's states and the sweep's final c.  Training passes
        inverted-dropout factors for the features and the memory."""
        lengths = [len(d) for d in descs]
        if not descs or min(lengths) == 0:
            raise ValueError("cannot encode an empty description")
        x = neural.take_rows(self.desc_lut, [i for d in descs for i in d])
        feats = neural.window_relu_stack(x, lengths, self.stack_weights, self.config.relu_window)
        if feature_mask is not None:
            feats = neural.mul(feats, feature_mask)
        hs, c = neural.lstm_sweep(feats, np.arange(sum(lengths)), lengths, self.enc_lstm)
        memory = hs if memory_mask is None else neural.mul(hs, memory_mask)
        return memory, (neural.last_steps(hs, lengths), c)

    # -- embedder bridge ---------------------------------------------------

    def embed_nodes(self, needed: Optional[Sequence[int]] = None) -> QueryTable:
        """Differentiable embeddings of the ``needed`` nodes (default: all
        linked nodes), placed after the ``code_lut`` rows as the decoder's
        query table."""
        linked = self.node_of_token
        needed = np.asarray(linked[linked >= 0] if needed is None else needed, dtype=np.intp)
        nodes = emb_mod.embed_tensors(
            self.adg, self.embedder_params, self.embedder_config, needed
        )
        # rows of the distinct ids, ascending; not np.unique, which imports
        # numpy.ma (about 1 MB and 10 ms on every command that decodes)
        embedded = np.flatnonzero(np.bincount(needed, minlength=self.adg.num_nodes))
        slot = np.full(self.adg.num_nodes, -1)  # node id -> query-table row
        slot[embedded] = len(self.code_vocab) + np.arange(len(embedded))
        row_of = np.arange(len(self.code_vocab))
        row_of[linked >= 0] = slot[linked[linked >= 0]]
        return QueryTable(neural.concat([self.code_lut, nodes], axis=0), row_of)

    def query_rows(self, prev_token_ids: Sequence[int], node_embeddings: QueryTable) -> np.ndarray:
        """Query switching: the query-table row of each previous token, its
        node embedding for tokens naming a graph method, its code-token
        lookup row otherwise."""
        rows = node_embeddings.row_of[np.asarray(prev_token_ids, dtype=np.intp)]
        if np.any(rows < 0):
            token_id = int(np.asarray(prev_token_ids)[rows < 0][0])
            raise KeyError(
                f"node {self.node_of_token[token_id]} referenced by the query was not embedded"
            )
        return rows

    # -- decoder -----------------------------------------------------------

    def decode_step(
        self,
        prevs: Sequence[int],
        state: tuple[np.ndarray, np.ndarray],
        memory: np.ndarray,
        mask: np.ndarray,
        node_embeddings: QueryTable,
        met: Optional[np.ndarray],
        reach_filter: bool,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """One decoding step for N rows, over arrays: row i continues after
        token ``prevs[i]`` from row i of ``state``, attending over the memory
        rows that the [N, M] additive ``mask`` keeps.  The query rows come
        from the query table (``query_rows``), the recurrent part is
        ``neural.attention_lstm_step``, the step that training's
        ``neural.lstm_sweep`` runs for all its steps, and the
        readout of [h; context] gives the logits.  Returns the [N, V]
        log-probabilities of the next token and the new [N, h] state.

        PAD, BOS and UNK (``_NEVER_EMITTED_IDS``) are always at -inf; with
        ``reach_filter`` so are API methods with a required input type that
        ``met[i]`` does not mark (``met`` is read only then).  Masks apply
        after the log-softmax without renormalizing, so the surviving
        entries stay the model's own log-probabilities.  EOS is never
        masked, so every row has at least one selectable token."""
        query = node_embeddings.table.data[self.query_rows(prevs, node_embeddings)]
        h, c, context, _ = neural.attention_lstm_step(
            query, *state, memory, mask, self.att_w.data, self.dec_lstm
        )
        logits = self.readout(neural.constant(np.concatenate([h, context], axis=1))).data
        lp = neural.log_softmax(logits)
        lp[:, list(_NEVER_EMITTED_IDS)] = -np.inf
        if reach_filter:
            api_tokens = np.flatnonzero(self.node_of_token >= 0)
            rows, cols = np.nonzero(~self.adg.reachability_rows(self.node_of_token[api_tokens], met))
            lp[rows, api_tokens[cols]] = -np.inf
        return lp, (h, c)

    def readout(self, features: Tensor, hidden_mask: Optional[Tensor] = None) -> Tensor:
        """The [N, V] logits of [N, 2h] decoder outputs [state; context]: a
        two-layer perceptron; training passes inverted-dropout factors for
        its hidden layer."""
        hid = neural.relu(neural.linear(features, self.out_w1, self.out_b1))
        if hidden_mask is not None:
            hid = neural.mul(hid, hidden_mask)
        return neural.linear(hid, self.out_w2, self.out_b2)

    def sequence_loss(
        self,
        batch: Sequence[tuple[Sequence[int], Sequence[int]]],
        node_embeddings: QueryTable,
        rng: Optional[np.random.Generator] = None,
    ) -> Tensor:
        """Teacher-forced loss of a batch of (description ids, code ids)
        pairs: the mean over pairs of each pair's mean cross-entropy over its
        code sequence plus the end marker.

        The batch runs as one pass over rows one pair after another: the
        encoder as one ``lstm_sweep``, the decoder steps as one
        ``lstm_sweep`` with attention, each decoder row attending only to
        its own description's states, and the readout once over the
        sweep's rows, one per target.  With ``rng`` (training) it draws the
        inverted-dropout factors pair by pair: the pair's features, then its
        memory, then its decoder hidden layer."""
        if not batch:
            raise ValueError("cannot compute the loss of an empty batch")
        cfg, size = self.config, len(batch)
        descs = [d for d, _ in batch]
        targets = [list(c) + [EOS_ID] for _, c in batch]
        feature_mask = memory_mask = hidden_mask = None
        if rng is not None and cfg.dropout > 0.0:
            shapes = [
                ((len(d), cfg.word_dim), (len(d), cfg.hidden_dim), (len(t), cfg.mlp_hidden))
                for d, t in zip(descs, targets)
            ]
            draws = [[neural.dropout_mask(s, cfg.dropout, rng) for s in pair] for pair in shapes]
            masks = (neural.constant(np.concatenate(parts)) for parts in zip(*draws))
            feature_mask, memory_mask, hidden_mask = masks
        memory, state = self.encode(descs, feature_mask, memory_mask)
        prevs = [p for t in targets for p in [BOS_ID] + t[:-1]]
        features, _ = neural.lstm_sweep(
            node_embeddings.table,
            self.query_rows(prevs, node_embeddings),
            [len(t) for t in targets],
            self.dec_lstm,
            state,
            (memory, _own_memory_mask([len(d) for d in descs]), self.att_w),
        )
        logits = self.readout(features, hidden_mask)
        weights = [(1.0 / size) * (1.0 / len(t)) for t in targets for _ in t]
        tokens = [tok for t in targets for tok in t]
        return neural.softmax_xent(logits, tokens, weights)


def _own_memory_mask(lengths: Sequence[int]) -> np.ndarray:
    """The [B, ΣT] additive attention mask over the memory of B descriptions
    of ``lengths``, stacked one after another: row b is 0 over description
    b's states and -inf over the others'."""
    owner = np.repeat(np.arange(len(lengths)), lengths)  # description of each memory row
    return np.where(owner == np.arange(len(lengths))[:, None], 0.0, -np.inf)


def generate_greedy(
    model: Seq2SeqModel,
    desc_tokens: Sequence[str],
    max_len: Optional[int] = None,
    *,
    node_embeddings: Optional[QueryTable] = None,
    reach_filter: bool = False,
) -> list[str]:
    """Greedy decoding, which is beam search of width 1: an argmax rollout
    until the end marker or the length limit, ties to the smallest token id."""
    return beam_search(
        model, desc_tokens, 1, max_len, node_embeddings=node_embeddings,
        reach_filter=reach_filter,
    )


def beam_search(
    model: Seq2SeqModel,
    desc_tokens: Sequence[str],
    width: Optional[int] = None,
    max_len: Optional[int] = None,
    *,
    node_embeddings: Optional[QueryTable] = None,
    reach_filter: bool = False,
) -> list[str]:
    """Beam generation for one description: :func:`beam_search_many` of a
    one-description list."""
    return beam_search_many(
        model, [desc_tokens], width, max_len, node_embeddings=node_embeddings,
        reach_filter=reach_filter,
    )[0]


@neural.no_grad()
def beam_search_many(
    model: Seq2SeqModel,
    descs: Sequence[Sequence[str]],
    width: Optional[int] = None,
    max_len: Optional[int] = None,
    *,
    node_embeddings: Optional[QueryTable] = None,
    reach_filter: bool = False,
) -> list[list[str]]:
    """Beam generation with length-normalized ranking, for every description
    of ``descs`` at once; the result equals decoding them one by one.

    Each live hypothesis expands by its top-``width`` successors (ties break
    toward the smaller token id); hypotheses reaching the end marker or the
    length limit are frozen into a completed pool, and the best completed
    hypothesis by normalized score wins (ties break toward the
    lexicographically smaller token id sequence).  Never emits ``⟨PAD⟩``,
    ``⟨BOS⟩`` or ``⟨UNK⟩``: they are masked after the log-softmax, like
    methods the reach filter rejects, so hypothesis scores remain the
    model's own log-probabilities.

    The descriptions are encoded as one batch, and the live hypotheses of
    all of them advance as the rows of one decoder step; each row attends
    only to its own description's memory, and for the reach filter also
    holds ``met``, the required types its emitted methods meet.  Each
    description keeps its own hypotheses, completed pool and stopping
    bound, and its rows leave the step once it is done.

    A description's search stops once no live hypothesis can still win
    (Huang et al., 2017, "When to Finish?"): log-probabilities are <= 0, so
    every completion of a live hypothesis with log-probability L scores at
    most L / max_len, and the search ends when that bound is below the best
    completed score for every live hypothesis.  The bound is strict because
    a tie could still win on tokens; the result is that of running to
    ``max_len``.
    """
    width = model.config.beam_width if width is None else width
    max_len = model.config.max_len if max_len is None else max_len
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if not descs:
        return []
    if node_embeddings is None:
        node_embeddings = model.embed_nodes()
    if len(descs) > DECODE_BLOCK:
        return [
            out
            for start in range(0, len(descs), DECODE_BLOCK)
            for out in beam_search_many(
                model, descs[start : start + DECODE_BLOCK], width, max_len,
                node_embeddings=node_embeddings, reach_filter=reach_filter,
            )
        ]
    encoded = [model.desc_vocab.encode(d) for d in descs]
    memory, (h, c) = model.encode(encoded)
    memory, h, c = memory.data, h.data, c.data
    key_rows = _own_memory_mask([len(d) for d in encoded])
    live = [[BeamHypothesis(tokens=(), logp=0.0)] for _ in descs]
    best: list[Optional[BeamHypothesis]] = [None] * len(descs)  # running min of (-score, tokens)
    active = list(range(len(descs)))  # descriptions still searching, in row order
    met = np.zeros((len(descs), model.adg.provides.shape[1]), dtype=bool)
    for _ in range(max_len):
        prevs = [hyp.tokens[-1] if hyp.tokens else BOS_ID for d in active for hyp in live[d]]
        owners = np.repeat(active, [len(live[d]) for d in active])
        lp, (h, c) = model.decode_step(
            prevs, (h, c), memory, key_rows[owners], node_embeddings, met, reach_filter
        )
        ranked = np.argsort(-lp, axis=1, kind="stable")[:, :width]
        ranked_lp, ranked = np.take_along_axis(lp, ranked, axis=1).tolist(), ranked.tolist()
        searching: list[int] = []
        rows: list[int] = []  # the parent row of each kept hypothesis
        row = 0
        for d in active:
            expansions: list[tuple[float, tuple[int, ...], int]] = []  # (-logp, tokens, parent row)
            for hyp in live[d]:
                for token_id, token_lp in zip(ranked[row], ranked_lp[row]):
                    if token_lp == -np.inf:
                        continue
                    tokens = hyp.tokens + (token_id,)
                    logp = hyp.logp + token_lp
                    if token_id == EOS_ID or len(tokens) >= max_len:
                        done, top = BeamHypothesis(tokens, logp), best[d]
                        if top is None or (-done.score(), tokens) < (-top.score(), top.tokens):
                            best[d] = done
                    else:
                        expansions.append((-logp, tokens, row))
                row += 1
            if not expansions:  # every row froze: EOS is never masked, so best is set
                continue
            # ranked by (-logp, tokens); token sequences are distinct, so the row never decides
            expansions.sort()
            kept = expansions[:width]
            live[d] = [BeamHypothesis(tokens, -neg_logp) for neg_logp, tokens, _ in kept]
            top = best[d]
            if top is not None and all(hyp.logp / max_len < top.score() for hyp in live[d]):
                continue  # the stopping bound: no live hypothesis can still win
            searching.append(d)
            rows.extend(parent for _, _, parent in kept)
        if not searching:
            break
        # each kept row meets what its parent met plus its last method's outputs
        last = model.node_of_token[[hyp.tokens[-1] for d in searching for hyp in live[d]]]
        met = met[rows]
        met[last >= 0] |= model.adg.provides[last[last >= 0]]
        h, c, active = h[rows], c[rows], searching
    return [
        [model.code_vocab.token(t) for t in hyp.tokens if t != EOS_ID]
        for hyp in best
    ]


def validation_bleu(
    model: Seq2SeqModel,
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    *,
    reach_filter: bool = False,
) -> float:
    """Corpus BLEU of greedy generations (beam width 1) against the
    reference codes."""
    from . import metrics as metrics_mod  # here: only training with validation scores

    candidates = beam_search_many(model, [desc for desc, _ in pairs], 1, reach_filter=reach_filter)
    eval_pairs = metrics_mod.make_pairs(candidates, [code for _, code in pairs])
    return metrics_mod.bleu(eval_pairs)


def train(
    model: Seq2SeqModel,
    train_pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    valid_pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    config: TrainConfig,
) -> list[TrainRecord]:
    """Joint training: per batch, node embeddings of the referenced methods
    are recomputed, the teacher-forced mean cross-entropy is backpropagated
    through encoder, embedder, and decoder together, and one Adam step is
    taken under the warmup schedule.  Early stopping watches validation BLEU
    every ``eval_interval`` steps with the configured patience.
    """
    if not train_pairs:
        raise ValueError("training corpus is empty")
    encoded = [
        (model.desc_vocab.encode(desc), model.code_vocab.encode(code))
        for desc, code in train_pairs
    ]
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    shuffle_rng = np.random.default_rng(seeds[0])
    dropout_rng = np.random.default_rng(seeds[1])
    params = model.parameters()
    optimizer = neural.Adam(params)
    history: list[TrainRecord] = []
    best_bleu = -1.0
    stale_checks = 0
    step = 0
    d_model = model.config.hidden_dim

    for _epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(len(encoded))
        for start in range(0, len(encoded), config.batch_size):
            batch = [encoded[i] for i in order[start : start + config.batch_size]]
            step += 1
            nodes = model.node_of_token[np.concatenate([np.asarray(c, dtype=np.intp) for _, c in batch])]
            node_embeddings = model.embed_nodes(nodes[nodes >= 0])
            loss = model.sequence_loss(batch, node_embeddings, rng=dropout_rng)
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(step)
            neural.zero_grads(params)
            loss.backward()
            lr = neural.lrate(step, d_model, config.warmup_steps)
            optimizer.step(lr)

            val_bleu = None
            if valid_pairs and step % config.eval_interval == 0:
                val_bleu = validation_bleu(model, valid_pairs, reach_filter=config.reach_filter)
                if val_bleu > best_bleu + 1e-12:
                    best_bleu = val_bleu
                    stale_checks = 0
                else:
                    stale_checks += 1
            history.append(TrainRecord(step, loss_value, lr, val_bleu))
            if config.max_steps is not None and step >= config.max_steps:
                return history
            if valid_pairs and stale_checks >= config.patience:
                return history
    return history


# -- checkpoint serialization ----------------------------------------------


def save_checkpoint(model: Seq2SeqModel) -> bytes:
    """Serialize the model: header, JSON hyperparameter block (configs,
    vocabularies, graph dump), then the named-parameter table in canonical
    name order as little-endian float32."""
    meta = {
        "model_config": model.config.as_dict(),
        "embedder_config": model.embedder_config.as_dict(),
        "desc_vocab": model.desc_vocab.entries(),
        "code_vocab": model.code_vocab.entries(),
        "graph": dump_graph(model.adg),
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks = [CHECKPOINT_HEADER, struct.pack("<I", len(meta_bytes)), meta_bytes]
    params = model.parameters()
    chunks.append(struct.pack("<I", len(params)))
    for p in params:
        name_bytes = p.name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<I", p.data.ndim))
        chunks.append(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
        chunks.append(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    return b"".join(chunks)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointFormatError("checkpoint is truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def done(self) -> bool:
        return self.pos == len(self.data)


def load_checkpoint(data: bytes) -> Seq2SeqModel:
    """Rebuild a model from checkpoint bytes; rejects bad headers, truncated
    tables, undecodable names, shape mismatches, non-finite values, and
    trailing garbage without partial effects.  Every parameter comes from the
    table, so no random number is drawn."""
    reader = _Reader(data)
    if reader.take(len(CHECKPOINT_HEADER)) != CHECKPOINT_HEADER:
        raise CheckpointFormatError("bad checkpoint header")
    block = reader.take(reader.u32())  # a truncation keeps its own message
    try:  # not UTF-8, not JSON, too long an integer or too deep a nesting
        meta = json.loads(block.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"bad hyperparameter block: {exc}") from exc
    try:
        if not isinstance(meta["graph"], str):
            raise TypeError(f"graph must be a string, got {type(meta['graph']).__name__}")
        adg = load_graph(meta["graph"])
        model = Seq2SeqModel(
            desc_vocab=Vocabulary([tuple(e) for e in meta["desc_vocab"]]),
            code_vocab=Vocabulary([tuple(e) for e in meta["code_vocab"]]),
            adg=adg,
            config=ModelConfig(**meta["model_config"]),
            embedder_config=EmbedderConfig(**meta["embedder_config"]),
            seed=None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"bad hyperparameter block: {exc}") from exc
    params = {p.name: p for p in model.parameters()}
    count = reader.u32()
    if count != len(params):
        raise CheckpointFormatError(
            f"checkpoint holds {count} parameters, model needs {len(params)}"
        )
    loaded = {}
    for _ in range(count):
        try:
            name = reader.take(reader.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"bad parameter name: {exc}") from exc
        ndim = reader.u32()
        shape = tuple(reader.u32() for _ in range(ndim))
        if name not in params:
            raise CheckpointFormatError(f"unexpected parameter {name!r}")
        if params[name].data.shape != shape:
            raise CheckpointFormatError(
                f"parameter {name!r} shape {shape} does not match {params[name].data.shape}"
            )
        raw = reader.take(4 * params[name].data.size)
        with np.errstate(invalid="ignore"):  # a signaling NaN warns on the cast
            value = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
        if not np.all(np.isfinite(value)):
            raise CheckpointFormatError(f"parameter {name!r} holds non-finite values")
        loaded[name] = value
    if len(loaded) != len(params):
        raise CheckpointFormatError("duplicate parameter rows in checkpoint")
    if not reader.done():
        raise CheckpointFormatError("trailing bytes after the parameter table")
    for name, value in loaded.items():
        params[name].data = value
    return model

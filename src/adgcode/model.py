"""Encoder-embedder-decoder model for description-to-code generation.

Descriptions are embedded through a lookup table, refined by windowed ReLU
feature layers, and run through an LSTM encoder.  The decoder attends over
encoder states each step; its query is the previous code token's embedding,
except that tokens naming graph methods use the method's node embedding
instead (query switching).  Training is teacher-forced joint optimization of
encoder, embedder, and decoder under a single mean cross-entropy loss.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import embedder as emb_mod
from . import metrics as metrics_mod
from . import neural
from .embedder import EmbedderConfig, EmbedderParams
from .graph import Adg, dump_graph, load_graph
from .neural import LstmParams, Parameter, Tensor
from .signatures import link_api_tokens

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN = "⟨PAD⟩", "⟨BOS⟩", "⟨EOS⟩", "⟨UNK⟩"
RESERVED_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)
# Reserved ids that are never valid code: corpora cannot contain them, BOS only
# seeds the decoder, and an emitted UNK can never match a reference.  EOS is
# not among them because emitting it ends the sequence.
_NEVER_EMITTED_IDS = (PAD_ID, BOS_ID, UNK_ID)

CHECKPOINT_HEADER = b"ADGS2S-v1\n"


class CheckpointFormatError(ValueError):
    """Corrupted or incompatible checkpoint bytes."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step}: loss is not finite")
        self.step = step


class Vocabulary:
    """Token/id bijection with fixed reserved ids 0..3 and frequency counts."""

    def __init__(self, entries: Sequence[tuple[str, int]]):
        tokens = list(RESERVED_TOKENS)
        counts: dict[str, int] = {}
        for tok, count in entries:
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

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)

    def entries(self) -> list[tuple[str, int]]:
        return [(t, self.counts[t]) for t in self._tokens[len(RESERVED_TOKENS) :]]


@dataclass(frozen=True)
class ModelConfig:
    word_dim: int = 100
    code_dim: int = 64
    hidden_dim: int = 256
    mlp_hidden: int = 256
    relu_layers: int = 1
    relu_window: int = 1
    dropout: float = 0.1
    beam_width: int = 5
    max_len: int = 200

    def validate(self) -> None:
        for name in ("word_dim", "code_dim", "hidden_dim", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.relu_layers < 0 or self.relu_window < 0:
            raise ValueError("relu_layers and relu_window must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.beam_width < 1 or self.max_len < 1:
            raise ValueError("beam_width and max_len must be >= 1")


@dataclass
class TrainConfig:
    batch_size: int = 8
    max_epochs: int = 1000
    max_steps: Optional[int] = None
    eval_interval: int = 100
    patience: int = 10
    warmup_steps: int = 4000
    seed: int = 0
    reach_filter: bool = False
    initial_types: tuple[str, ...] = ()

    def validate(self) -> None:
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if self.eval_interval < 1 or self.patience < 1:
            raise ValueError("eval_interval and patience must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1 when set")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")


@dataclass(frozen=True)
class TrainRecord:
    step: int
    loss: float
    lrate: float
    val_bleu: Optional[float] = None


@dataclass
class BeamHypothesis:
    tokens: tuple[int, ...]
    logp: float
    state: tuple[Tensor, Tensor]
    finished: bool
    available: frozenset[str]

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
        seed: int = 0,
    ):
        config.validate()
        embedder_config.validate()
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

        rng = np.random.default_rng(np.random.SeedSequence(seed))
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

        self.api_index = link_api_tokens(code_vocab.tokens, adg)
        self.api_node_of_token_id = {
            code_vocab.id(tok): node_id for tok, node_id in self.api_index.items()
        }

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
        desc_ids: Sequence[int],
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[list[Tensor], tuple[Tensor, Tensor]]:
        """Lookup, windowed ReLU feature layers, then an LSTM sweep; returns
        every hidden state and the final (h, c)."""
        if len(desc_ids) == 0:
            raise ValueError("cannot encode an empty description")
        xs = [neural.row(self.desc_lut, i) for i in desc_ids]
        feats = neural.window_relu_stack(xs, self.stack_weights, self.config.relu_window)
        p = self.config.dropout
        if train and p > 0.0:
            feats = [neural.dropout(x, p, True, rng) for x in feats]
        h = neural.zeros(self.config.hidden_dim)
        c = neural.zeros(self.config.hidden_dim)
        states: list[Tensor] = []
        for x in feats:
            h, c = neural.lstm_cell(x, h, c, self.enc_lstm)
            states.append(h)
        exposed = states
        if train and p > 0.0:
            exposed = [neural.dropout(s, p, True, rng) for s in states]
        return exposed, (h, c)

    # -- embedder bridge ---------------------------------------------------

    def embed_nodes(self, needed: Optional[Sequence[int]] = None) -> dict[int, Tensor]:
        """Differentiable node embeddings; default covers all linked nodes."""
        if needed is None:
            needed = sorted(set(self.api_node_of_token_id.values()))
        if not needed:
            return {}
        return emb_mod.embed_tensors(
            self.adg, self.embedder_params, self.embedder_config, needed
        )

    def decoder_query(self, prev_token_id: int, node_embeddings: dict[int, Tensor]) -> Tensor:
        """Query switching: node embedding for tokens naming a graph method,
        code-token lookup row otherwise."""
        node_id = self.api_node_of_token_id.get(prev_token_id)
        if node_id is not None:
            vec = node_embeddings.get(node_id)
            if vec is None:
                raise KeyError(
                    f"node {node_id} referenced by the query was not embedded"
                )
            return vec
        return neural.row(self.code_lut, prev_token_id)

    # -- decoder -----------------------------------------------------------

    def decode_step(
        self,
        query: Tensor,
        state: tuple[Tensor, Tensor],
        encoder_states: Sequence[Tensor],
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Attend with the current state, feed [query; context] through the
        decoder LSTM, then a two-layer perceptron over [state; context]."""
        h_prev, c_prev = state
        _, context = neural.attention(encoder_states, h_prev, self.att_w)
        h, c = neural.lstm_cell(neural.concat([query, context]), h_prev, c_prev, self.dec_lstm)
        hid = neural.relu(neural.add(neural.matmul(self.out_w1, neural.concat([h, context])), self.out_b1))
        if train and self.config.dropout > 0.0:
            hid = neural.dropout(hid, self.config.dropout, True, rng)
        logits = neural.add(neural.matmul(self.out_w2, hid), self.out_b2)
        return logits, (h, c)

    def sequence_loss(
        self,
        desc_ids: Sequence[int],
        code_ids: Sequence[int],
        node_embeddings: dict[int, Tensor],
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> Tensor:
        """Mean cross-entropy over the code sequence plus the end marker."""
        encoder_states, state = self.encode(desc_ids, train, rng)
        targets = list(code_ids) + [EOS_ID]
        prev = BOS_ID
        losses = []
        for target in targets:
            query = self.decoder_query(prev, node_embeddings)
            logits, state = self.decode_step(query, state, encoder_states, train, rng)
            losses.append(neural.softmax_xent(logits, target))
            prev = target
        return neural.mean_of(losses)


def _masked_log_probs(
    model: Seq2SeqModel,
    logits: np.ndarray,
    available: frozenset[str],
    reach_filter: bool,
) -> np.ndarray:
    """Log-probabilities of the next token, with unselectable ids at -inf.

    ``_NEVER_EMITTED_IDS`` (PAD, BOS, UNK) are always masked; with
    ``reach_filter`` so are API methods whose required input types are not in
    ``available``.  Masks apply after the log-softmax without renormalizing,
    so the surviving entries stay the model's own log-probabilities.  EOS is
    never masked, so every step has at least one selectable token.
    """
    lp = neural.log_softmax(logits)
    lp[list(_NEVER_EMITTED_IDS)] = -np.inf
    if reach_filter:
        for token_id, node_id in model.api_node_of_token_id.items():
            if not model.adg.is_reachable(node_id, available):
                lp[token_id] = -np.inf
    return lp


def _advance_available(
    model: Seq2SeqModel, available: frozenset[str], token_id: int
) -> frozenset[str]:
    node_id = model.api_node_of_token_id.get(token_id)
    if node_id is None:
        return available
    return available | set(model.adg.node(node_id).outputs)


def generate_greedy(
    model: Seq2SeqModel,
    desc_tokens: Sequence[str],
    max_len: Optional[int] = None,
    *,
    node_embeddings: Optional[dict[int, Tensor]] = None,
    reach_filter: bool = False,
    initial_types: Sequence[str] = (),
) -> list[str]:
    """Argmax rollout until the end marker or the length limit; ties resolve
    to the smallest token id.

    Never emits ``⟨PAD⟩``, ``⟨BOS⟩`` or ``⟨UNK⟩``: they are masked after the
    log-softmax, like methods the reach filter rejects.
    """
    max_len = model.config.max_len if max_len is None else max_len
    if node_embeddings is None:
        node_embeddings = model.embed_nodes()
    desc_ids = model.desc_vocab.encode(desc_tokens)
    if not desc_ids:
        raise ValueError("cannot generate from an empty description")
    encoder_states, state = model.encode(desc_ids)
    prev = BOS_ID
    available = frozenset(initial_types)
    out: list[str] = []
    for _ in range(max_len):
        query = model.decoder_query(prev, node_embeddings)
        logits, state = model.decode_step(query, state, encoder_states)
        lp = _masked_log_probs(model, logits.data, available, reach_filter)
        token_id = int(np.argmax(lp))  # argmax takes the first (smallest id) on ties
        if token_id == EOS_ID:
            break
        out.append(model.code_vocab.token(token_id))
        available = _advance_available(model, available, token_id)
        prev = token_id
    return out


def beam_search(
    model: Seq2SeqModel,
    desc_tokens: Sequence[str],
    width: Optional[int] = None,
    max_len: Optional[int] = None,
    *,
    node_embeddings: Optional[dict[int, Tensor]] = None,
    reach_filter: bool = False,
    initial_types: Sequence[str] = (),
) -> list[str]:
    """Beam generation with length-normalized ranking.

    Each live hypothesis expands by its top-``width`` successors; hypotheses
    reaching the end marker or the length limit are frozen into a completed
    pool, and the best completed hypothesis by normalized score wins (ties
    break toward the lexicographically smaller token id sequence).  Never
    emits ``⟨PAD⟩``, ``⟨BOS⟩`` or ``⟨UNK⟩``: they are masked after the
    log-softmax, like methods the reach filter rejects, so hypothesis scores
    remain the model's own log-probabilities.
    """
    width = model.config.beam_width if width is None else width
    max_len = model.config.max_len if max_len is None else max_len
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    if node_embeddings is None:
        node_embeddings = model.embed_nodes()
    desc_ids = model.desc_vocab.encode(desc_tokens)
    if not desc_ids:
        raise ValueError("cannot generate from an empty description")
    encoder_states, state = model.encode(desc_ids)
    live = [
        BeamHypothesis(
            tokens=(), logp=0.0, state=state, finished=False,
            available=frozenset(initial_types),
        )
    ]
    completed: list[BeamHypothesis] = []
    for _ in range(max_len):
        expansions: list[BeamHypothesis] = []
        for hyp in live:
            prev = hyp.tokens[-1] if hyp.tokens else BOS_ID
            query = model.decoder_query(prev, node_embeddings)
            logits, new_state = model.decode_step(query, hyp.state, encoder_states)
            lp = _masked_log_probs(model, logits.data, hyp.available, reach_filter)
            order = sorted(range(lp.shape[0]), key=lambda j: (-lp[j], j))
            for token_id in order[:width]:
                if lp[token_id] == -np.inf:
                    continue
                tokens = hyp.tokens + (token_id,)
                successor = BeamHypothesis(
                    tokens=tokens,
                    logp=hyp.logp + float(lp[token_id]),
                    state=new_state,
                    finished=token_id == EOS_ID or len(tokens) >= max_len,
                    available=_advance_available(model, hyp.available, token_id),
                )
                if successor.finished:
                    completed.append(successor)
                else:
                    expansions.append(successor)
        if not expansions:
            break
        expansions.sort(key=lambda h: (-h.logp, h.tokens))
        live = expansions[:width]
    if not completed:  # max_len freezes everything, so this needs live fallback only
        completed = live
    best = min(completed, key=lambda h: (-h.score(), h.tokens))
    out = [t for t in best.tokens if t != EOS_ID]
    return [model.code_vocab.token(t) for t in out]


def _referenced_nodes(model: Seq2SeqModel, batch: Sequence[tuple[list[int], list[int]]]) -> list[int]:
    nodes = {
        model.api_node_of_token_id[t]
        for _, code in batch
        for t in code
        if t in model.api_node_of_token_id
    }
    return sorted(nodes)


def validation_bleu(
    model: Seq2SeqModel,
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    *,
    reach_filter: bool = False,
    initial_types: Sequence[str] = (),
) -> float:
    """Corpus BLEU of greedy generations against the reference codes."""
    node_embeddings = model.embed_nodes()
    candidates = [
        generate_greedy(
            model, desc, node_embeddings=node_embeddings,
            reach_filter=reach_filter, initial_types=initial_types,
        )
        for desc, _ in pairs
    ]
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
    config.validate()
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
            node_embeddings = model.embed_nodes(_referenced_nodes(model, batch))
            losses = [
                model.sequence_loss(
                    desc_ids, code_ids, node_embeddings, train=True, rng=dropout_rng
                )
                for desc_ids, code_ids in batch
            ]
            loss = neural.mean_of(losses)
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(step)
            neural.zero_grads(params)
            loss.backward()
            lr = neural.lrate(step, d_model, config.warmup_steps)
            optimizer.step(lr)

            val_bleu = None
            if valid_pairs and step % config.eval_interval == 0:
                val_bleu = validation_bleu(
                    model, valid_pairs,
                    reach_filter=config.reach_filter,
                    initial_types=config.initial_types,
                )
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
        "model_config": asdict(model.config),
        "embedder_config": asdict(model.embedder_config),
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
    trailing garbage without partial effects."""
    reader = _Reader(data)
    if reader.take(len(CHECKPOINT_HEADER)) != CHECKPOINT_HEADER:
        raise CheckpointFormatError("bad checkpoint header")
    try:
        meta = json.loads(reader.take(reader.u32()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"bad hyperparameter block: {exc}") from exc
    try:
        adg = load_graph(meta["graph"])
        model = Seq2SeqModel(
            desc_vocab=Vocabulary([tuple(e) for e in meta["desc_vocab"]]),
            code_vocab=Vocabulary([tuple(e) for e in meta["code_vocab"]]),
            adg=adg,
            config=ModelConfig(**meta["model_config"]),
            embedder_config=EmbedderConfig(**meta["embedder_config"]),
            seed=0,
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

"""Graph node embedding by tag-grouped neighbor virtualization.

Every node starts from a learned base feature row.  Per hop, each node's
same-tag neighbor groups are virtualized (mean or padded concatenation) into
single features, arranged into an ordered sequence reflecting invocation
order (providers, then the node, then consumers), reduced by an aggregator
(order-sensitive LSTM, or order-insensitive mean/max-pooling), and pushed
through a per-hop affine map plus nonlinearity.  Hop updates are synchronous:
hop-k vectors read only hop-(k-1) vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import neural
from .graph import Adg
from .neural import LstmParams, Parameter, Tensor

EMBEDDING_HEADER = "ADG-EMB-v1"

AGGREGATORS = ("mean", "pooling", "lstm")
VIRTUALIZATIONS = ("mean", "concat")
ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class EmbedderConfig:
    dim: int
    hops: int = 2
    aggregator: str = "lstm"
    virtualization: str = "mean"
    use_edge_direction: bool = True
    use_edge_labels: bool = True
    concat_cap: Optional[int] = None
    activation: str = "tanh"

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {self.dim}")
        if self.hops < 1:
            raise ValueError(f"hop count must be >= 1, got {self.hops}")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.virtualization not in VIRTUALIZATIONS:
            raise ValueError(f"unknown virtualization {self.virtualization!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.virtualization == "concat" and (self.concat_cap is None or self.concat_cap < 1):
            raise ValueError("concat virtualization requires a positive concat_cap")

    @property
    def element_dim(self) -> int:
        """Dimension of ordered-sequence elements after virtualization."""
        if self.virtualization == "concat":
            return self.concat_cap * self.dim
        return self.dim


@dataclass
class EmbedderParams:
    """Trainable state: per-node base features, per-hop weights, and per-hop
    LSTM gates when the aggregator is order-sensitive."""

    base: Parameter
    hop_weights: list[Parameter]
    hop_lstms: list[LstmParams] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        adg: Adg,
        config: EmbedderConfig,
        rng: np.random.Generator,
        prefix: str = "emb",
    ) -> "EmbedderParams":
        config.validate()
        d = config.dim
        base = Parameter(f"{prefix}.base", neural.glorot_init((max(adg.num_nodes, 1), d), rng)[: adg.num_nodes])
        agg_in = config.element_dim
        weights = []
        lstms = []
        for k in range(1, config.hops + 1):
            w_in = d if config.aggregator == "lstm" else agg_in
            weights.append(Parameter(f"{prefix}.w{k}", neural.glorot_init((d, w_in), rng)))
            if config.aggregator == "lstm":
                lstms.append(LstmParams.create(f"{prefix}.lstm{k}", agg_in, d, rng))
        return cls(base=base, hop_weights=weights, hop_lstms=lstms)

    def parameters(self) -> list[Parameter]:
        out = [self.base] + list(self.hop_weights)
        for cell in self.hop_lstms:
            out.extend(cell.parameters())
        return out


def virtualize_group(
    members: Sequence[Tensor], kind: str, cap: Optional[int] = None
) -> Tensor:
    """Collapse one same-tag neighbor group into a single virtual feature.

    mean: arithmetic mean.  concat: concatenation in the given (canonical
    node-id) order, zero-padded up to ``cap`` members.
    """
    if not members:
        raise ValueError("cannot virtualize an empty group")
    if kind == "mean":
        return neural.mean_of(members)
    if kind == "concat":
        if cap is None or cap < 1:
            raise ValueError("concat virtualization requires a positive cap")
        if len(members) > cap:
            raise ValueError(f"group of {len(members)} exceeds the concat cap {cap}")
        d = members[0].data.shape[0]
        parts = list(members)
        if len(members) < cap:
            parts.append(neural.zeros((cap - len(members)) * d))
        return neural.concat(parts)
    raise ValueError(f"unknown virtualization kind {kind!r}")


def node_groups(
    adg: Adg, node_id: int, config: EmbedderConfig
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Neighbor groups of a node in canonical order, as the groups before the
    node and the groups after it in invocation order, honoring the direction
    and label switches.

    Directed+labelled: provider groups per incoming tag (tags lexicographic)
    before the node, consumer groups per outgoing tag after it.  Without
    labels, each side forms a single group.  Without direction there are no
    sides: both merge into one undirected neighborhood (still split per tag
    when labels are on), all after the node.  Members are node-id ascending;
    empty groups are dropped.
    """
    fwd = adg.forward_members(node_id)
    bwd = adg.backward_members(node_id)
    if config.use_edge_direction:
        if config.use_edge_labels:
            return [fwd[tag] for tag in sorted(fwd)], [bwd[tag] for tag in sorted(bwd)]
        all_fwd = tuple(sorted({u for ids in fwd.values() for u in ids}))
        all_bwd = tuple(sorted({u for ids in bwd.values() for u in ids}))
        return [all_fwd] if all_fwd else [], [all_bwd] if all_bwd else []
    groups: list[tuple[int, ...]] = []
    if config.use_edge_labels:
        for tag in sorted(set(fwd) | set(bwd)):
            merged = sorted(set(fwd.get(tag, ())) | set(bwd.get(tag, ())))
            groups.append(tuple(merged))
    else:
        merged = sorted(
            {u for ids in fwd.values() for u in ids}
            | {u for ids in bwd.values() for u in ids}
        )
        if merged:
            groups.append(tuple(merged))
    return [], groups


def build_ordered_set(
    adg: Adg,
    node_id: int,
    prev_embeddings: Mapping[int, Tensor],
    config: EmbedderConfig,
) -> list[Tensor]:
    """Ordered feature sequence for one node's hop update in invocation
    order: one virtualized feature per provider group, the node's own
    previous embedding, then one per consumer group.  Without edge direction
    there are no sides, so the node comes first.

    Under concat virtualization the self element is zero-padded to the group
    width so the sequence stays dimension-uniform.
    """
    before, after = node_groups(adg, node_id, config)
    self_vec = prev_embeddings[node_id]
    if config.virtualization == "concat":
        self_vec = virtualize_group([self_vec], "concat", config.concat_cap)
    sequence = [
        virtualize_group(
            [prev_embeddings[u] for u in members], config.virtualization, config.concat_cap
        )
        for members in before + after
    ]
    sequence.insert(len(before), self_vec)
    return sequence


def aggregate(
    sequence: Sequence[Tensor],
    aggregator: str,
    lstm_params: Optional[LstmParams] = None,
) -> Tensor:
    """Reduce an ordered feature sequence to one vector.

    lstm: final hidden state of a single-layer recurrent pass in sequence
    order (order-sensitive).  mean / pooling: arithmetic mean / elementwise
    max (order-insensitive).
    """
    if not sequence:
        raise ValueError("cannot aggregate an empty sequence")
    if aggregator == "mean":
        return neural.mean_of(sequence)
    if aggregator == "pooling":
        return neural.max_of(sequence)
    if aggregator == "lstm":
        if lstm_params is None:
            raise ValueError("lstm aggregation requires cell parameters")
        h = neural.zeros(lstm_params.hidden_dim)
        c = neural.zeros(lstm_params.hidden_dim)
        for v in sequence:
            h, c = neural.lstm_cell(v, h, c, lstm_params)
        return h
    raise ValueError(f"unknown aggregator {aggregator!r}")


def _activation(name: str):
    return neural.tanh if name == "tanh" else neural.relu


def embed_tensors(
    adg: Adg,
    params: EmbedderParams,
    config: EmbedderConfig,
    needed: Optional[Sequence[int]] = None,
) -> dict[int, Tensor]:
    """Differentiable hop-K embeddings for ``needed`` nodes (default: all).

    Hop-(k-1) values are memoized per node, so only the K-hop neighborhoods
    of the requested nodes are computed; updates are synchronous by
    construction.
    """
    config.validate()
    if params.base.data.shape != (adg.num_nodes, config.dim):
        raise neural.ShapeError(
            f"base features {params.base.data.shape} do not match "
            f"({adg.num_nodes}, {config.dim})"
        )
    if len(params.hop_weights) != config.hops:
        raise neural.ShapeError("one hop weight matrix per hop is required")
    act = _activation(config.activation)
    use_lstm = config.aggregator == "lstm"
    groups_cache: dict[int, list[tuple[int, ...]]] = {}
    memo: dict[tuple[int, int], Tensor] = {}

    def groups_of(m: int) -> list[tuple[int, ...]]:
        got = groups_cache.get(m)
        if got is None:
            before, after = node_groups(adg, m, config)
            got = groups_cache[m] = before + after
        return got

    def level(k: int, m: int) -> Tensor:
        key = (k, m)
        got = memo.get(key)
        if got is not None:
            return got
        if k == 0:
            t = neural.row(params.base, m)
        else:
            prev = {m: level(k - 1, m)}
            for members in groups_of(m):
                for u in members:
                    if u not in prev:
                        prev[u] = level(k - 1, u)
            sequence = build_ordered_set(adg, m, prev, config)
            agg = aggregate(
                sequence,
                config.aggregator,
                params.hop_lstms[k - 1] if use_lstm else None,
            )
            t = act(neural.matmul(params.hop_weights[k - 1], agg))
        memo[key] = t
        return t

    targets = list(range(adg.num_nodes)) if needed is None else sorted(set(needed))
    for m in targets:
        adg.node(m)
    return {m: level(config.hops, m) for m in targets}


def embed_all(
    adg: Adg, params: EmbedderParams, config: EmbedderConfig
) -> dict[int, np.ndarray]:
    """Hop-K embedding vectors of every node as plain arrays."""
    tensors = embed_tensors(adg, params, config)
    return {m: t.data.copy() for m, t in tensors.items()}


def dump_embeddings(embeddings: Mapping[int, np.ndarray]) -> str:
    """Versioned text table of node id -> vector in canonical node order."""
    ids = sorted(embeddings)
    dim = len(embeddings[ids[0]]) if ids else 0
    lines = [EMBEDDING_HEADER, f"nodes {len(ids)} dim {dim}"]
    for m in ids:
        vec = " ".join(repr(float(x)) for x in embeddings[m])
        lines.append(f"{m} {vec}")
    return "\n".join(lines) + "\n"


def load_embeddings(text: str) -> dict[int, np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0] != EMBEDDING_HEADER:
        raise ValueError(f"missing {EMBEDDING_HEADER!r} header")
    head = lines[1].split() if len(lines) > 1 else []
    if len(head) != 4 or head[0] != "nodes" or head[2] != "dim":
        raise ValueError("malformed embedding table header")
    count, dim = int(head[1]), int(head[3])
    out: dict[int, np.ndarray] = {}
    for line in lines[2 : 2 + count]:
        parts = line.split()
        vec = np.array([float(x) for x in parts[1:]])
        if vec.shape != (dim,):
            raise ValueError("embedding row width does not match the header")
        out[int(parts[0])] = vec
    if len(out) != count:
        raise ValueError("embedding table is truncated")
    return out

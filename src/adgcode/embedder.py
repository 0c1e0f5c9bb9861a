"""Graph node embedding by tag-grouped neighbor virtualization.

Every node starts from a learned base feature row.  Per hop, each node's
same-tag neighbor groups are virtualized (mean or padded concatenation) into
single features, arranged into an ordered sequence reflecting invocation
order (providers, then the node, then consumers), reduced by an aggregator
(order-sensitive LSTM, or order-insensitive mean/max-pooling), and pushed
through a per-hop affine map plus nonlinearity.  Hop updates are synchronous:
hop-k vectors read only hop-(k-1) vectors.  Each hop runs as a few array ops
over every node it needs: one gather and segment reduction per
virtualization, one segment reduction or one batched LSTM pass per
aggregation (``neural.lstm_runs``), one affine map.
"""

from __future__ import annotations

import functools
import numbers
import typing
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import neural
from .graph import Adg
from .neural import LstmParams, Parameter, Tensor

AGGREGATORS = ("mean", "pooling", "lstm")
VIRTUALIZATIONS = ("mean", "concat")
ACTIVATIONS = ("tanh", "relu")


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    return typing.get_type_hints(cls)


def check_field_types(config) -> None:
    """Raise TypeError for a field annotated ``bool`` that holds a non-bool,
    an ``int`` (or ``Optional[int]``) field that holds a bool or a non-integer,
    or a ``float`` field that holds a bool or a non-number."""
    for name, kind in _field_types(type(config)).items():
        value = getattr(config, name)
        if kind is bool:
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be true or false, got {value!r}")
        elif kind is int or (kind == Optional[int] and value is not None):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        elif kind is float:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")


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
        check_field_types(self)
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


def _activation(name: str):
    return neural.tanh if name == "tanh" else neural.relu


def _virtualize(z: Tensor, groups: Sequence[Sequence[int]], config: EmbedderConfig) -> Tensor:
    """One virtual feature row per group of row indices into ``z``.

    mean: the rows' arithmetic mean.  concat: the rows in group order, then
    zeros up to ``concat_cap`` rows, joined into one [cap * d] row.
    """
    sizes = [len(g) for g in groups]
    if config.virtualization == "mean":
        flat = [u for g in groups for u in g]
        return neural.segment_reduce(neural.take_rows(z, flat), sizes, "mean")
    cap = config.concat_cap
    if max(sizes) > cap:
        raise ValueError(f"group of {max(sizes)} exceeds the concat cap {cap}")
    slots = []
    for j in range(cap):
        rows = [g[j] if j < len(g) else 0 for g in groups]
        present = neural.constant([[float(j < n)] for n in sizes])
        slots.append(neural.mul(neural.take_rows(z, rows), present))
    return neural.concat(slots)


def embed_tensors(
    adg: Adg,
    params: EmbedderParams,
    config: EmbedderConfig,
    needed: Optional[Sequence[int]] = None,
) -> Tensor:
    """Differentiable hop-K embeddings for ``needed`` nodes (default: all) as
    the rows of one [n, dim] tensor, row i for the i-th smallest requested id.

    Only the K-hop neighborhoods of the requested nodes are computed.  Each
    hop is a few array ops over every node it needs, reading only the
    previous hop's rows, so updates are synchronous.
    """
    config.validate()
    if params.base.data.shape != (adg.num_nodes, config.dim):
        raise neural.ShapeError(
            f"base features {params.base.data.shape} do not match "
            f"({adg.num_nodes}, {config.dim})"
        )
    if len(params.hop_weights) != config.hops:
        raise neural.ShapeError("one hop weight matrix per hop is required")
    targets = list(range(adg.num_nodes)) if needed is None else sorted(set(needed))
    for m in targets:
        adg.node(m)
    if not targets:
        return neural.zeros((0, config.dim))
    # Closure, top hop down: hop k needs its own nodes plus every member of
    # their groups at hop k-1.  Each node's sequence is its groups before it,
    # itself as a group of one, then its groups after it.
    levels = [targets]
    plans = []
    for _ in range(config.hops):
        groups: list[tuple[int, ...]] = []
        lengths = []
        for m in levels[-1]:
            before, after = node_groups(adg, m, config)
            sequence = before + [(m,)] + after
            groups.extend(sequence)
            lengths.append(len(sequence))
        plans.append((groups, lengths))
        levels.append(sorted({u for g in groups for u in g}))
    levels.reverse()
    plans.reverse()

    act = _activation(config.activation)
    z = neural.take_rows(params.base, levels[0])
    for k, (groups, lengths) in enumerate(plans):
        row_of = {m: i for i, m in enumerate(levels[k])}
        seq = _virtualize(z, [[row_of[u] for u in g] for g in groups], config)
        if config.aggregator == "lstm":
            _, (agg, _) = neural.lstm_runs(seq, lengths, params.hop_lstms[k])
        elif config.aggregator == "mean":
            agg = neural.segment_reduce(seq, lengths, "mean")
        else:
            agg = neural.segment_reduce(seq, lengths, "max")
        z = act(neural.linear(agg, params.hop_weights[k]))
    return z


def embed_all(
    adg: Adg, params: EmbedderParams, config: EmbedderConfig
) -> dict[int, np.ndarray]:
    """Hop-K embedding vectors of every node as plain arrays."""
    z = embed_tensors(adg, params, config)
    return {m: z.data[m].copy() for m in range(adg.num_nodes)}

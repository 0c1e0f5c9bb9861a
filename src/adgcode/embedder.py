"""Graph node embedding by tag-grouped neighbor virtualization.

Every node starts from a learned base feature row.  Per hop, each node's
same-tag neighbor groups are virtualized (mean or padded concatenation) into
single features, arranged into an ordered sequence reflecting invocation
order (providers, then the node, then consumers), reduced by an aggregator
(order-sensitive LSTM, or order-insensitive mean/max-pooling), and pushed
through a per-hop affine map plus nonlinearity.  Hop updates are synchronous:
hop-k vectors read only hop-(k-1) vectors.  Each hop runs as a few array ops
over every node it needs: one sort of the graph's edge rows to plan its
groups, one gather and segment reduction per virtualization, one segment
reduction or one batched LSTM pass per aggregation (``neural.lstm_runs``,
which steps every sequence as often as the longest and takes each node's
state after its own last element), one affine map.  The settings,
``EmbedderConfig``, live in ``config`` and check themselves when built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import neural
from .config import ConcatCapError, EmbedderConfig
from .graph import Adg, GraphError
from .neural import LstmParams, Parameter, Tensor


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
        rng: Optional[np.random.Generator],
    ) -> "EmbedderParams":
        d = config.dim
        base = Parameter("emb.base", neural.glorot_init((max(adg.num_nodes, 1), d), rng)[: adg.num_nodes])
        agg_in = config.element_dim
        weights = []
        lstms = []
        for k in range(1, config.hops + 1):
            w_in = d if config.aggregator == "lstm" else agg_in
            weights.append(Parameter(f"emb.w{k}", neural.glorot_init((d, w_in), rng)))
            if config.aggregator == "lstm":
                lstms.append(LstmParams.create(f"emb.lstm{k}", agg_in, d, rng))
        return cls(base=base, hop_weights=weights, hop_lstms=lstms)

    def parameters(self) -> list[Parameter]:
        out = [self.base] + list(self.hop_weights)
        for cell in self.hop_lstms:
            out.extend(cell.parameters())
        return out


def hop_groups(
    adg: Adg, nodes: np.ndarray, config: EmbedderConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ordered sequences of ``nodes`` (ids ascending) as one plan: every
    group's members in sequence order, node after node, then each group's
    size and each node's number of groups.

    A node's sequence is its provider groups per incoming tag, itself, then
    its consumer groups per outgoing tag; tags in name order, members
    ascending.  Without labels each side is one group; without direction
    both sides merge after the node.  An edge gives the rows (tail, before,
    tag, head) and (head, after, tag, tail), each node the row (m, self, 0,
    m).  Each requested owner's row packs into the int64 key
    ``((owner*3 + side)*T + tag)*n + member`` for n nodes and T types, and
    one sort of the distinct keys lays out the groups.  The key needs
    ``n²·3·T < 2⁶³``; a larger graph raises :class:`GraphError`.
    """
    n, types = adg.num_nodes, max(adg.provides.shape[1], 1)
    if n * n * 3 * types >= 2**63:
        raise GraphError(f"{n} nodes and {types} types overflow the hop plan's int64 key")
    heads, tags, tails = adg.edge_arrays
    before = 0 if config.use_edge_direction else 2
    owners = np.concatenate((tails, heads, nodes))
    sides = np.repeat([before, 2, 1], [heads.size, heads.size, nodes.size])
    tags = np.concatenate((tags, tags, np.zeros_like(nodes))) if config.use_edge_labels else 0
    keys = ((owners * 3 + sides) * types + tags) * n + np.concatenate((heads, tails, nodes))
    requested = np.zeros(n, dtype=bool)
    requested[nodes] = True
    # Equal keys are equal rows: without direction or labels a member can
    # repeat within its group, and keeping one of them is the plan.
    keys = np.sort(keys[requested[owners]])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    groups = keys // n
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    per_node = np.bincount(groups[starts] // (3 * types), minlength=n)[nodes]
    return keys % n, np.diff(starts, append=keys.size), per_node


def _activation(name: str):
    return neural.tanh if name == "tanh" else neural.relu


def _virtualize(z: Tensor, rows: np.ndarray, sizes: np.ndarray, config: EmbedderConfig) -> Tensor:
    """One virtual feature row per group, for groups given as consecutive
    runs of ``sizes[i]`` row indices into ``z``.

    mean: the rows' arithmetic mean.  concat: the rows in group order, then
    zero rows up to ``concat_cap`` rows, joined into one [cap * d] row.
    """
    if config.virtualization == "mean":
        return neural.segment_reduce(neural.take_rows(z, rows), sizes, "mean")
    cap = config.concat_cap
    if sizes.max() > cap:
        raise ConcatCapError(
            f"embedder concat_cap {cap} is smaller than a neighbour group of {sizes.max()} nodes"
        )
    padded = neural.concat([z, neural.zeros((1, z.data.shape[1]))], axis=0)  # last row: zeros
    slots = np.full((sizes.size, cap), z.data.shape[0], dtype=np.intp)
    slots[np.arange(cap) < sizes[:, None]] = rows  # group after group, each in order
    return neural.concat([neural.take_rows(padded, slots[:, j]) for j in range(cap)])


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
    if params.base.data.shape != (adg.num_nodes, config.dim):
        raise neural.ShapeError(
            f"base features {params.base.data.shape} do not match "
            f"({adg.num_nodes}, {config.dim})"
        )
    if len(params.hop_weights) != config.hops:
        raise neural.ShapeError("one hop weight matrix per hop is required")
    targets = list(range(adg.num_nodes)) if needed is None else sorted(set(needed))
    if not targets:
        return neural.zeros((0, config.dim))
    adg.node(targets[0])  # ids ascending, so the two ends bound the rest
    adg.node(targets[-1])
    # Closure, top hop down: hop k needs its own nodes plus every member of
    # their groups at hop k-1.
    levels = [np.asarray(targets, dtype=np.intp)]
    plans = []
    for _ in range(config.hops):
        plans.append(hop_groups(adg, levels[-1], config))
        levels.append(np.flatnonzero(np.bincount(plans[-1][0], minlength=adg.num_nodes)))
    levels.reverse()
    plans.reverse()

    act = _activation(config.activation)
    z = neural.take_rows(params.base, levels[0])
    for k, (members, sizes, lengths) in enumerate(plans):
        seq = _virtualize(z, np.searchsorted(levels[k], members), sizes, config)
        if config.aggregator == "lstm":
            hs, _ = neural.lstm_runs(seq, lengths, params.hop_lstms[k])
            agg = neural.last_steps(hs, lengths)
        elif config.aggregator == "mean":
            agg = neural.segment_reduce(seq, lengths, "mean")
        else:
            agg = neural.segment_reduce(seq, lengths, "max")
        z = act(neural.linear(agg, params.hop_weights[k]))
    return z


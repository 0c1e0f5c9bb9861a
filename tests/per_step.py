"""The per-step tape reference for the program's recurrences.

The program runs its recurrences over arrays: training as sweep ops
(``neural.lstm_runs``, ``neural.attention_lstm_sweep``), decoding one
``neural.attention_lstm_step`` at a time.  The tests compare them with the
same arithmetic built one tape op per step: the fused LSTM cell
(``lstm_cell``), multiplicative attention (``attention``, with ``matmul``
for its context), and two loops over them, ``masked_lstm_runs`` and
``per_step_decoder``.  It also holds the two tape ops that only the tests
build: ``add``, which ``masked_lstm_runs`` holds ended runs with, and
``vsum``, the scalar of the finite-difference losses; and the two helpers
that only the tests call: ``gradient_check``, the finite-difference check
of backprop, and ``embed_all``, every node's embedding as a plain array.
Imported by the tests the way ``conftest`` is.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from adgcode import neural
from adgcode.config import EmbedderConfig
from adgcode.embedder import EmbedderParams, embed_tensors
from adgcode.graph import Adg
from adgcode.neural import (
    LstmParams,
    Parameter,
    ShapeError,
    Tensor,
    _accum,
    _attend,
    _attend_backward,
    _c_backward,
    _cell_forward,
    _check_attention,
    _h_backward,
)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return Tensor(out_data, parents=(a, b), bw=bw)


def vsum(a: Tensor) -> Tensor:
    """Sum of all entries as a scalar."""
    out_data = np.sum(a.data)

    def bw(g):
        _accum(a, np.broadcast_to(g, a.data.shape))

    return Tensor(np.asarray(out_data), parents=(a,), bw=bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul needs [n, k] @ [k, m], got {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return Tensor(out_data, parents=(a, b), bw=bw)


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, params: LstmParams) -> tuple[Tensor, Tensor]:
    """One LSTM step for N independent [N, d] rows over z = [h_prev, x]
    (``_cell_forward``); returns (h, c).

    The step is one fused op with two tape nodes.  ``h``'s backward leaves
    the output gate's gradient for ``c``'s, which runs after it and turns
    the four gate gradients, taken in closed form from the saved gate
    values, into the gradients of z and of the parameters; if nothing
    reaches ``h``, the output gate's gradient is zero."""
    hidden = params.hidden_dim
    if x.data.ndim != 2 or x.data.shape[1] != params.input_dim:
        raise ShapeError(f"lstm_cell input shape {x.data.shape}, expected [N, {params.input_dim}]")
    state = (x.data.shape[0], hidden)
    if h_prev.data.shape != state or c_prev.data.shape != state:
        raise ShapeError("lstm_cell state shapes do not match the cell size")
    z = np.concatenate([h_prev.data, x.data], axis=1)
    h_data, c_data, gates = _cell_forward(z, c_prev.data, params)
    d_o = [None]  # the output gate's pre-activation gradient, left by h's backward

    def c_bw(dc):
        d_z, dc_prev = _c_backward(dc, d_o[0], z, c_prev.data, gates, params)
        _accum(c_prev, dc_prev)
        _accum(h_prev, d_z[:, :hidden])
        _accum(x, d_z[:, hidden:])

    c = Tensor(c_data, parents=(x, h_prev, c_prev, *params.parameters()), bw=c_bw)

    def h_bw(dh):
        d_o[0], dc = _h_backward(dh, gates)
        _accum(c, dc)

    return Tensor(h_data, parents=(c,), bw=h_bw), c


def attention(
    memory: Tensor, query: Tensor, w: Tensor, mask: Tensor | None = None
) -> tuple[Tensor, Tensor]:
    """Multiplicative attention over the [M, h] ``memory`` for each row s of
    the [N, h] ``query``: scores h_m . (W s), plus the additive [N, M]
    ``mask`` (0 to keep, -inf to hide a state) when given, stabilized
    softmax weights over M (a score of -inf gets weight 0; each row needs
    one finite score), and the convex-combination context rows.  The
    weights are one tape node, the mask taking no gradient, and the context
    a second."""
    _check_attention(memory.data, query.data, w.data)
    projected, alpha_data = _attend(memory.data, query.data, w.data, None if mask is None else mask.data)

    def bw(g):
        d_memory, d_query, d_w = _attend_backward(
            g, alpha_data, projected, memory.data, query.data, w.data
        )
        _accum(memory, d_memory)
        _accum(query, d_query)
        _accum(w, d_w)

    alphas = Tensor(alpha_data, parents=(query, w, memory), bw=bw)
    return alphas, matmul(alphas, memory)


def _run_after_run(lengths):
    """For runs of ``lengths`` stepped together, the place t·runs + i of run
    i's step t in a step-major stack, run after run."""
    return [t * len(lengths) + i for i, n in enumerate(lengths) for t in range(n)]


def masked_lstm_runs(seq, lengths, cell):
    """A reference for ``neural.lstm_runs``: a run that has ended holds its
    state through 0/1 masks on every step, and each run's states at its own
    steps are gathered run after run from the step-major stacks."""
    counts = np.asarray(lengths)
    starts = np.cumsum(counts) - counts
    h = c = neural.zeros((len(counts), cell.hidden_dim))
    hs, cs = [], []
    for t in range(int(counts.max())):
        live = counts > t
        x = neural.take_rows(seq, np.where(live, starts + t, starts))
        h_new, c_new = lstm_cell(x, h, c, cell)
        step = neural.constant(live[:, None].astype(np.float64))
        hold = neural.constant((~live)[:, None].astype(np.float64))
        h = add(neural.mul(h_new, step), neural.mul(h, hold))
        c = add(neural.mul(c_new, step), neural.mul(c, hold))
        hs.append(h)
        cs.append(c)
    order = _run_after_run(counts)
    return tuple(neural.take_rows(neural.concat(s, axis=0), order) for s in (hs, cs))


def per_step_decoder(table, rows, lengths, memory, mask, state, w, cell):
    """A reference for ``neural.attention_lstm_sweep``, with its arguments:
    per decoder step, one ``take_rows`` gather of each run's next query row
    of table[rows] (an ended run's last), ``attention`` over ``memory`` with
    the additive ``mask``, and one ``lstm_cell`` step on [query; context];
    each run's [h; context] rows at its own steps are gathered run after run
    from the rows of every step, joined step after step."""
    counts = np.asarray(lengths)
    starts = np.cumsum(counts) - counts
    h, c = state
    key_mask = neural.constant(mask)
    features = []
    for t in range(int(counts.max())):
        _, context = attention(memory, h, w, key_mask)
        query = neural.take_rows(table, rows[starts + np.minimum(t, counts - 1)])
        h, c = lstm_cell(neural.concat([query, context]), h, c, cell)
        features.append(neural.concat([h, context]))
    return neural.take_rows(neural.concat(features, axis=0), _run_after_run(counts))


def gradient_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    step: float = 1e-5,
    floor: float = 1e-3,
) -> float:
    """Worst relative disagreement between backprop and central differences.

    ``loss_fn`` must rebuild the forward computation from the current
    parameter values on every call.  The error for one entry is
    |analytic - numeric| / max(|analytic|, |numeric|, floor); the floor turns
    the comparison absolute once both magnitudes are tiny.
    """
    neural.zero_grads(params)
    loss_fn().backward()
    analytic = {p.name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params}
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        got = analytic[p.name].reshape(-1)
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + step
            up = float(loss_fn().data)
            flat[idx] = orig - step
            down = float(loss_fn().data)
            flat[idx] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(got[idx] - numeric) / max(abs(got[idx]), abs(numeric), floor)
            worst = max(worst, err)
    return worst


def embed_all(
    adg: Adg, params: EmbedderParams, config: EmbedderConfig
) -> dict[int, np.ndarray]:
    """Hop-K embedding vectors of every node as plain arrays."""
    z = embed_tensors(adg, params, config)
    return {m: z.data[m].copy() for m in range(adg.num_nodes)}

"""Minimal reverse-mode autodiff over float64 numpy arrays, plus the layers
this model family needs: windowed ReLU feature layers, LSTM runs, a masked
multiplicative attention decoder, stabilized softmax/weighted cross-entropy,
inverted-dropout masks, Glorot initialization, Adam with an
inverse-square-root warmup schedule.

Training's two recurrences are sweep ops, each one op on the tape whatever
its length: ``lstm_runs`` (tape nodes: the h and c stacks) and
``attention_lstm_sweep``, a teacher-forced attention decoder (one tape
node).  Like ``window_relu_stack`` and ``segment_reduce``, both take their
input rows one run after another with the runs' ``lengths`` and return one
row per input row in that order.  One plan (``_steps``) steps the runs of
either sweep together, as often as the longest, so the padding to the
longest run stays inside the sweep.  The decoder step lives once, over arrays
(``attention_lstm_step``): the sweep runs it per step, and beam search runs
it one step at a time.  The gate arithmetic also lives once (``_cell_forward``,
``_h_backward``, ``_c_backward``), for both sweeps; a sweep's backward runs
the per-step closed-form products from the last step to the first and adds
into each gradient in the order a tape of per-step ops would, so its
results equal that tape's bit for bit.

Tensors form a tape through parent links; ``backward()`` runs an iterative
topological sweep.  A tape backpropagates once: as each node's closure runs,
backward frees it (with the arrays it saved), the node's parent links and,
off the leaves, its gradient, so a step's activations die with its backward
and not when the next step's loss replaces it.  A later backward that
reaches a freed node raises ``RuntimeError``, where it would otherwise drop
the gradient below that node.  Inside ``no_grad()`` ops record no tape:
decoding runs there, since nothing backpropagates through it.  The layers take N
independent rows of shape [N, d] only: training runs each batch as one
pass over such rows (with the loss and the order of dropout draws of one
pair at a time), beam search its live hypotheses, the embedder every node
of a hop.  All randomness comes from explicitly passed numpy
Generators.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Within this context (or a function decorated with ``@no_grad()``),
    op results keep no parents or backward closure, so no tape is built.  An
    explicit ``requires_grad=True`` still holds: a ``Parameter`` made here
    stays trainable.  The previous setting returns on exit, also on error.
    The setting is one per process, not per thread."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _freed(_g: np.ndarray) -> None:
    """The backward closure of a tape node that a backward already ran."""
    raise RuntimeError("backward through a tape that was already backpropagated and freed")


class Tensor:
    """A float64 array plus tape bookkeeping for reverse-mode gradients."""

    __slots__ = ("data", "grad", "parents", "bw", "requires_grad")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        bw: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or (
            _grad_enabled and any(p.requires_grad for p in parents)
        )
        if self.requires_grad:
            self.parents = parents
            self.bw = bw
        else:  # prune the tape below non-differentiable results
            self.parents = ()
            self.bw = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self) -> None:
        if self.data.shape != ():
            raise ShapeError("backward() requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))
        self.grad = np.ones(())
        for node in reversed(order):
            if node.bw is not None:
                node.bw(node.grad)
                node.bw, node.parents, node.grad = _freed, (), None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True)
        self.name = name


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.data.shape != g.shape:  # broadcast scalar operand
        g = np.sum(g).reshape(t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def _records(parents: Iterable[Tensor]) -> bool:
    """Whether an op over ``parents`` builds a tape node, so that its forward
    must keep what its backward reads."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _plus(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """``a + b`` where None stands for a gradient that nothing added to."""
    if a is None:
        return b
    return a if b is None else a + b


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; scalars broadcast against vectors."""
    out_data = a.data * b.data

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return Tensor(out_data, parents=(a, b), bw=bw)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w.T + b`` for [N, d] rows ``x`` as one tape node; the bias
    gradient sums over rows."""
    if w.data.ndim != 2 or x.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"linear needs [N, d] @ [o, d].T, got {x.data.shape} and {w.data.shape}")
    out_data = x.data @ w.data.T
    if b is not None:
        out_data = out_data + b.data
    parents = (x, w) if b is None else (x, w, b)

    def bw(g):
        _accum(x, g @ w.data)
        _accum(w, g.T @ x.data)
        if b is not None:
            _accum(b, g.sum(axis=0))

    return Tensor(out_data, parents=parents, bw=bw)


def concat(ts: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Join 2-D tensors side by side (``axis=1``) or one under another
    (``axis=0``); the other axis must agree."""
    if not ts:
        raise ValueError("concat of an empty sequence")
    other = ts[0].data.shape[1 - axis]
    for t in ts:
        if t.data.ndim != 2 or t.data.shape[1 - axis] != other:
            raise ShapeError(f"concat along axis {axis} needs 2-D tensors of equal axis {1 - axis}")
    out_data = np.concatenate([t.data for t in ts], axis=axis)

    def bw(g):
        off = 0
        for t in ts:
            end = off + t.data.shape[axis]
            _accum(t, g[off:end] if axis == 0 else g[:, off:end])
            off = end

    return Tensor(out_data, parents=tuple(ts), bw=bw)


def take_rows(t: Tensor, idx: Sequence[int]) -> Tensor:
    """Rows ``idx`` of ``t`` (repeats allowed); gradients scatter-add back."""
    index = np.asarray(idx, dtype=np.intp)
    out_data = t.data[index]

    def bw(g):
        grad = np.zeros_like(t.data)
        np.add.at(grad, index, g)
        _accum(t, grad)

    return Tensor(out_data, parents=(t,), bw=bw)


def _runs(lengths: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive run lengths that cover ``n`` rows, and each run's first row."""
    counts = np.asarray(lengths, dtype=np.intp)
    if counts.ndim != 1 or counts.size == 0 or np.any(counts < 1) or counts.sum() != n:
        raise ValueError(f"run lengths must be positive and cover the {n} rows")
    return counts, np.cumsum(counts) - counts


def _steps(lengths: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """How a sweep steps the runs of ``lengths`` that cover ``n`` rows: all
    runs as the rows of one state, as often as the longest run.  Returns the
    [steps, runs] row each run reads at each step (an ended run its own last
    row again) and, for each of the ``n`` rows, run i's step t, its place
    i·steps + t in the [runs, steps] grid of the steps' outputs."""
    counts, starts = _runs(lengths, n)
    step = np.arange(counts.max())
    return starts + np.minimum(step[:, None], counts - 1), np.flatnonzero(step < counts[:, None])


def _on_grid(g: np.ndarray, grid: np.ndarray, runs: int, steps: int) -> np.ndarray:
    """The gradient ``g`` of a sweep's rows on its [runs, steps] grid (see
    ``_steps``), zero at the steps of ended runs."""
    out = np.zeros((runs, steps, g.shape[1]))
    out.reshape(-1, g.shape[1])[grid] = g
    return out


def segment_reduce(x: Tensor, sizes: Sequence[int], kind: str) -> Tensor:
    """Mean or elementwise max over runs of consecutive rows of a 2-D ``x``:
    row i of the result reduces the ``sizes[i]`` rows after the previous
    runs.  Max ties send the gradient to the earliest row of the run."""
    if x.data.ndim != 2:
        raise ShapeError(f"segment_reduce needs a 2-D tensor, got {x.data.shape}")
    n = x.data.shape[0]
    counts, starts = _runs(sizes, n)
    if kind == "mean":
        inv = (1.0 / counts)[:, None]
        out_data = np.add.reduceat(x.data, starts, axis=0) * inv

        def bw(g):
            _accum(x, np.repeat(g * inv, counts, axis=0))

    elif kind == "max":
        out_data = np.maximum.reduceat(x.data, starts, axis=0)
        hit = x.data == np.repeat(out_data, counts, axis=0)
        rows = np.where(hit, np.arange(n)[:, None], n)
        first = np.minimum.reduceat(rows, starts, axis=0)

        def bw(g):
            grad = np.zeros_like(x.data)
            np.put_along_axis(grad, first, g, axis=0)
            _accum(x, grad)

    else:
        raise ValueError(f"unknown segment reduction {kind!r}")
    return Tensor(out_data, parents=(x,), bw=bw)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out_data * out_data))

    return Tensor(out_data, parents=(a,), bw=bw)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def bw(g):
        _accum(a, g * (a.data > 0.0))

    return Tensor(out_data, parents=(a,), bw=bw)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Stabilized log-softmax over the last axis of a non-empty array: the
    maximum is subtracted before exponentiating."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def softmax_xent(
    logits: Tensor, targets: Sequence[int], weights: Sequence[float] | None = None
) -> Tensor:
    """Fused stabilized softmax + negative log-likelihood of ``targets[i]``
    under row i of the [N, V] ``logits``, summed over rows with ``weights``
    (default 1); the gradient of row i is
    ``weights[i] * (softmax(logits[i]) - onehot(targets[i]))``."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_xent needs [N, V] logits, got {logits.data.shape}")
    n, width = logits.data.shape
    target = np.asarray(targets, dtype=np.intp)
    if target.shape != (n,) or np.any(target < 0) or np.any(target >= width):
        raise ValueError(f"targets must be one in [0, {width}) per row of the {n} rows")
    weight = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    rows = np.arange(n)
    log_probs = log_softmax(logits.data)
    probs = np.exp(log_probs)

    def bw(g):
        scale = g * weight
        d = probs * scale[:, None]
        d[rows, target] -= scale
        _accum(logits, d)

    return Tensor(np.asarray(-(weight @ log_probs[rows, target])), parents=(logits,), bw=bw)


def dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout factors: 0 with probability ``p``, else 1/(1-p)."""
    return (rng.random(shape) >= p) / (1.0 - p)


def glorot_init(shape: tuple[int, int], rng: Optional[np.random.Generator]) -> np.ndarray:
    """Uniform Glorot sample on +/- sqrt(6 / (fan_in + fan_out)) for 2-D shapes.

    With ``rng`` None it draws nothing and returns zeros of that shape, for a
    parameter whose value is set next (a loaded checkpoint's).
    """
    if len(shape) != 2:
        raise ValueError(f"glorot_init needs a 2-D shape, got {shape}")
    if shape[0] <= 0 or shape[1] <= 0:
        raise ValueError(f"glorot_init dimensions must be positive, got {shape}")
    if rng is None:
        return np.zeros(shape)
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def lrate(step_num: int, d_model: int, warmup_steps: int) -> float:
    """Inverse-square-root schedule with linear warmup:
    ``d_model^-0.5 * min(step^-0.5, step * warmup^-1.5)``."""
    if step_num < 1:
        raise ValueError(f"step_num must be >= 1, got {step_num}")
    if d_model < 1 or warmup_steps < 1:
        raise ValueError("d_model and warmup_steps must be positive")
    return d_model**-0.5 * min(step_num**-0.5, step_num * warmup_steps**-1.5)


class LstmParams(NamedTuple):
    """Gate weights/biases of one LSTM cell; each W maps [h_prev, x]."""

    w_i: Parameter
    w_f: Parameter
    w_o: Parameter
    w_c: Parameter
    b_i: Parameter
    b_f: Parameter
    b_o: Parameter
    b_c: Parameter

    @classmethod
    def create(
        cls, prefix: str, input_dim: int, hidden_dim: int, rng: Optional[np.random.Generator]
    ) -> "LstmParams":
        def w(gate: str) -> Parameter:
            return Parameter(f"{prefix}.w_{gate}", glorot_init((hidden_dim, hidden_dim + input_dim), rng))

        def b(gate: str) -> Parameter:
            return Parameter(f"{prefix}.b_{gate}", np.zeros(hidden_dim))

        return cls(w("i"), w("f"), w("o"), w("c"), b("i"), b("f"), b("o"), b("c"))

    @property
    def hidden_dim(self) -> int:
        return self.w_i.data.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_i.data.shape[1] - self.w_i.data.shape[0]

    def parameters(self) -> list[Parameter]:
        return [self.w_i, self.w_f, self.w_o, self.w_c, self.b_i, self.b_f, self.b_o, self.b_c]


def _cell_forward(
    z: np.ndarray, c_prev: np.ndarray, p: LstmParams
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One LSTM step over arrays from z = [h_prev, x]: sigmoid input/forget/
    output gates and tanh candidate, each gate its own ``z @ w.T + b``.
    Returns h, c and the gate values the backward reads (i, f, o, g, tanh c)."""
    with np.errstate(over="ignore"):
        i, f, o = (
            1.0 / (1.0 + np.exp(-(z @ w.data.T + b.data)))
            for w, b in ((p.w_i, p.b_i), (p.w_f, p.b_f), (p.w_o, p.b_o))
        )
    g = np.tanh(z @ p.w_c.data.T + p.b_c.data)
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return o * tanh_c, c, (i, f, o, g, tanh_c)


def _h_backward(dh: np.ndarray, gates: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """From h's gradient: the output gate's pre-activation gradient and h's
    share of c's gradient."""
    _, _, o, _, tanh_c = gates
    return dh * tanh_c * o * (1.0 - o), dh * o * (1.0 - tanh_c * tanh_c)


def _c_backward(
    dc: np.ndarray,
    d_o: np.ndarray | None,
    z: np.ndarray,
    c_prev: np.ndarray,
    gates: tuple[np.ndarray, ...],
    p: LstmParams,
) -> tuple[np.ndarray, np.ndarray]:
    """The rest of one step's backward in closed form, from c's whole
    gradient and the output gate's (None if nothing reached h): adds each
    gate's weight and bias gradient into ``p`` and returns the gradients of
    z = [h_prev, x] and of c_prev."""
    i, f, _, g, _ = gates
    d_f = dc * c_prev * f * (1.0 - f)
    d_i = dc * g * i * (1.0 - i)
    d_g = dc * i * (1.0 - g * g)
    d_z = None
    # z's gradient sums the gates in the order of the unfused tape: o, f, i, c
    for d, w, b in (
        (d_o, p.w_o, p.b_o), (d_f, p.w_f, p.b_f), (d_i, p.w_i, p.b_i), (d_g, p.w_c, p.b_c),
    ):
        if d is None:
            continue
        d_z = d @ w.data if d_z is None else d_z + d @ w.data
        _accum(w, d.T @ z)
        _accum(b, np.add.reduce(d, axis=0))
    return d_z, dc * f


def lstm_runs(seq: Tensor, lengths: Sequence[int], cell: LstmParams) -> tuple[Tensor, Tensor]:
    """Run ``cell`` from a zero state over each run of ``lengths[i]``
    consecutive rows of ``seq``, the runs as the rows of one [runs, h]
    state.  Returns the [N, h] stacks of hidden and cell states, one row per
    row of ``seq`` in its order: row j is its run's state after reading row
    j.  Every run steps as often as the longest (an ended run reads its last
    row again), and nothing returns those steps; ``last_steps`` takes each
    run's final state from either stack.

    The sweep is one op with two tape nodes: the h stack, whose one parent
    is the c stack.  The forward steps the cell over arrays and keeps each
    step's gate values.  The h stack's backward leaves its gradient for the
    c stack's, which runs the per-step closed-form products from the last
    step to the first and adds into every gradient in the order a tape of
    per-step cells does."""
    if seq.data.ndim != 2 or seq.data.shape[1] != cell.input_dim:
        raise ShapeError(f"lstm_runs input shape {seq.data.shape}, expected [N, {cell.input_dim}]")
    reads, grid = _steps(lengths, seq.data.shape[0])
    (steps, n), hidden = reads.shape, cell.hidden_dim
    params = cell.parameters()
    keep = _records([seq, *params])
    hs, cs = np.empty((n, steps, hidden)), np.empty((n, steps, hidden))
    h = c = np.zeros((n, hidden))
    saved = []  # per step: z = [h_prev, x], c_prev and the gate values
    for t in range(steps):
        z = np.concatenate([h, seq.data[reads[t]]], axis=1)
        h, c_next, gates = _cell_forward(z, c, cell)
        if keep:
            saved.append((z, c, gates))
        c = c_next
        hs[:, t] = h
        cs[:, t] = c
    d_hs = [None]  # the h stack's gradient, left by its backward

    def c_bw(d_cs):
        d_h, d_c = (None if d is None else _on_grid(d, grid, n, steps) for d in (d_hs[0], d_cs))
        d_x = np.empty((steps * n, cell.input_dim))
        dh_next = dc_next = None
        for t in range(steps - 1, -1, -1):
            z, c_prev, gates = saved[t]
            dh = _plus(None if d_h is None else d_h[:, t], dh_next)
            d_o = dc = None
            if dh is not None:
                d_o, dc = _h_backward(dh, gates)
            dc = _plus(_plus(None if d_c is None else d_c[:, t], dc), dc_next)
            d_z, dc_next = _c_backward(dc, d_o, z, c_prev, gates, cell)
            dh_next = d_z[:, :hidden]
            d_x[(steps - 1 - t) * n : (steps - t) * n] = d_z[:, hidden:]
        if seq.requires_grad:
            grad = np.zeros_like(seq.data)
            # last step first: the order of the tape's gathers
            np.add.at(grad, reads[::-1].reshape(-1), d_x)
            _accum(seq, grad)

    c_stack = Tensor(cs.reshape(-1, hidden)[grid], parents=(seq, *params), bw=c_bw)

    def h_bw(d):
        d_hs[0] = d

    return Tensor(hs.reshape(-1, hidden)[grid], parents=(c_stack,), bw=h_bw), c_stack


def last_steps(stack: Tensor, lengths: Sequence[int]) -> Tensor:
    """Row i of the result is the last row of run i, from a stack of rows
    one run after another (``lstm_runs``' states: run i's final state)."""
    return take_rows(stack, np.cumsum(np.asarray(lengths, dtype=np.intp)) - 1)


def window_relu_stack(
    x: Tensor, lengths: Sequence[int], weights: Sequence[Parameter], window: int
) -> Tensor:
    """L stacked layers mapping row t of each run of ``lengths[i]``
    consecutive rows of ``x`` to ReLU(W_l . [x_{t-s} .. x_{t+s}]), with zero
    rows outside the run; each layer is one gathered ``linear``.  Zero layers
    is the identity."""
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    n = x.data.shape[0]
    counts, starts = _runs(lengths, n)
    first = np.repeat(starts, counts)
    end = first + np.repeat(counts, counts)
    rows = np.arange(n)
    for w in weights:
        d_in = x.data.shape[1]
        if w.data.ndim != 2 or w.data.shape[1] != (2 * window + 1) * d_in:
            raise ShapeError(
                f"stack weight {w.data.shape} incompatible with window {window} over dim {d_in}"
            )
        padded = concat([x, zeros((1, d_in))], axis=0)  # row n is the zero row
        ctx = [
            take_rows(padded, np.where((rows + off >= first) & (rows + off < end), rows + off, n))
            for off in range(-window, window + 1)
        ]
        x = relu(linear(concat(ctx), w))
    return x


def _attend(
    memory: np.ndarray, query: np.ndarray, w: np.ndarray, mask: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Attention over arrays: the projected queries ``query @ w.T`` and the
    [N, M] softmax weights of their scores against ``memory``, plus the
    additive ``mask`` when given, stabilized by each row's maximum."""
    projected = query @ w.T
    scores = projected @ memory.T
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return projected, e / np.sum(e, axis=-1, keepdims=True)


def _attend_backward(
    d_alpha: np.ndarray,
    alpha: np.ndarray,
    projected: np.ndarray,
    memory: np.ndarray,
    query: np.ndarray,
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients of memory, query and W from the weights' gradient."""
    d_scores = alpha * (d_alpha - np.sum(d_alpha * alpha, axis=-1, keepdims=True))
    d_projected = d_scores @ memory
    return d_scores.T @ projected, d_projected @ w, d_projected.T @ query


def _check_attention(memory: np.ndarray, query: np.ndarray, w: np.ndarray) -> None:
    if memory.ndim != 2 or memory.shape[0] == 0:
        raise ValueError("attention requires a [M, h] memory with at least one state")
    if query.ndim != 2 or w.shape != (memory.shape[1], query.shape[1]):
        raise ShapeError(
            f"attention needs [N, d] queries and a [h, d] W, got {query.shape} and {w.shape}"
        )


def attention_lstm_step(
    x: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
    memory: np.ndarray,
    mask: np.ndarray | None,
    w: np.ndarray,
    cell: LstmParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """One step of the attention decoder over arrays, for N rows: attend
    over the [M, h] ``memory`` with the hidden state ``h`` (scores h_m . (W
    h), plus the additive [N, M] ``mask`` when given: 0 keeps a state, -inf
    hides it, and each row needs one finite score), then feed z = [h; x;
    context] through ``cell`` from ``c``.
    Returns the new h and c, the context rows, and what a backward reads:
    the projected queries, the attention weights, z and the gate values."""
    projected, alpha = _attend(memory, h, w, mask)
    context = alpha @ memory
    z = np.concatenate([h, x, context], axis=1)
    h_next, c_next, gates = _cell_forward(z, c, cell)
    return h_next, c_next, context, (projected, alpha, z, gates)


def attention_lstm_sweep(
    table: Tensor,
    rows: np.ndarray,
    lengths: Sequence[int],
    memory: Tensor,
    mask: np.ndarray | None,
    state: tuple[Tensor, Tensor],
    w: Tensor,
    cell: LstmParams,
) -> Tensor:
    """A teacher-forced attention decoder over runs of ``lengths[i]``
    consecutive query rows, table[rows], as one op: the runs are the N rows
    of one state, starting from ``state``, and each step is
    ``attention_lstm_step`` with each run's next query row (an ended run
    reads its last row again).  Returns the [len(rows), h + d_m] stack of
    [h; context] rows, one per query row in its order: row j is its run's
    step on query row j.

    The forward keeps each step's attention and gate values.  The backward
    runs each step's closed-form products from the last step to the first,
    and adds into every gradient in the order a tape of per-step ops (a
    gather of the query rows, the attention weights and context, the joined
    cell input, the cell; the tests' ``per_step_decoder``) does."""
    h0, c0 = state
    if rows.ndim != 1:
        raise ShapeError(f"attention_lstm_sweep needs one table row per query, got {rows.shape}")
    reads, grid = _steps(lengths, rows.size)
    queries, (steps, n) = rows[reads], reads.shape  # the table row of each run at each step
    hidden, width = cell.hidden_dim, table.data.shape[1]
    _check_attention(memory.data, h0.data, w.data)
    if width + memory.data.shape[1] != cell.input_dim:
        raise ShapeError("query and context widths do not add up to the cell's input")
    if h0.data.shape != (n, hidden) or c0.data.shape != (n, hidden):
        raise ShapeError("attention_lstm_sweep state shapes do not match the cell size")
    mem = memory.data
    parents = (table, memory, w, h0, c0, *cell.parameters())
    keep = _records(parents)
    out = np.empty((n, steps, hidden + mem.shape[1]))
    h, c = h0.data, c0.data
    saved = []  # per step: h_prev, c_prev, the attention's values, z and the gate values
    for s in range(steps):
        h_next, c_next, context, kept = attention_lstm_step(
            table.data[queries[s]], h, c, mem, mask, w.data, cell
        )
        if keep:
            saved.append((h, c, *kept))
        h, c = h_next, c_next
        out[:, s, :hidden] = h
        out[:, s, hidden:] = context

    def bw(g):
        g = _on_grid(g, grid, n, steps)
        dh_cell = dh_att = dc_next = None  # step s+1's gradients of h_s (via cell, attention) and c_s
        for s in range(steps - 1, -1, -1):
            h_prev, c_prev, projected, alpha, z, gates = saved[s]
            g_s = g[:, s]
            dh = g_s[:, :hidden]
            if dh_cell is not None:
                dh = dh + dh_cell + dh_att
            d_o, dc = _h_backward(dh, gates)
            if dc_next is not None:
                dc = dc_next + dc
            d_z, dc_next = _c_backward(dc, d_o, z, c_prev, gates, cell)
            dh_cell = d_z[:, :hidden]
            d_context = g_s[:, hidden:] + d_z[:, hidden + width :]
            grad = np.zeros_like(table.data)
            np.add.at(grad, queries[s], d_z[:, hidden : hidden + width])
            _accum(table, grad)
            _accum(memory, alpha.T @ d_context)
            d_memory, dh_att, d_w = _attend_backward(
                d_context @ mem.T, alpha, projected, mem, h_prev, w.data
            )
            _accum(memory, d_memory)
            _accum(w, d_w)
        _accum(c0, dc_next)
        _accum(h0, dh_cell)
        _accum(h0, dh_att)

    return Tensor(out.reshape(steps * n, -1)[grid], parents=parents, bw=bw)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a fixed parameter list, with the standard
    setting ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    ``step(lr)`` applies one update using each parameter's accumulated
    gradient (absent gradients count as zero).  It updates the moments and
    each parameter's array in place, so nothing may keep a parameter's array
    across a step expecting its old values.
    """

    def __init__(self, params: Iterable[Parameter]):
        self.params = list(params)
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, lr: float) -> None:
        self.step_count += 1
        b1c = 1.0 - ADAM_BETA1**self.step_count
        b2c = 1.0 - ADAM_BETA2**self.step_count
        for p in self.params:
            g = p.grad if p.grad is not None else 0.0
            m, v = self.m[p.name], self.v[p.name]
            # p - lr * (m / b1c) / (sqrt(v / b2c) + eps), op for op
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            delta = m / b1c
            delta *= lr
            denom = v / b2c
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            delta /= denom
            p.data -= delta


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad = None


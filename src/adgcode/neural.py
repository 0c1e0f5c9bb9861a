"""Minimal reverse-mode autodiff over float64 numpy arrays, plus the layers
this model family needs: a fused LSTM cell (one op, tape nodes h and c), an
LSTM sweep that steps sequences of unequal length together as often as the
longest and reads each at its own steps, windowed ReLU feature layers,
masked multiplicative attention, stabilized softmax/weighted cross-entropy,
inverted-dropout masks, Glorot initialization, Adam with an
inverse-square-root warmup schedule.

Tensors form a tape through parent links; ``backward()`` runs an iterative
topological sweep.  Inside ``no_grad()`` ops record no tape: decoding runs
there, since nothing backpropagates through it.  The layers take N
independent rows of shape [N, d] only: training runs each batch as one
padded pass over such rows (with the loss and the order of dropout draws of
one pair at a time), beam search its live hypotheses, the embedder every
node of a hop.  All randomness comes from explicitly passed numpy
Generators.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return Tensor(out_data, parents=(a, b), bw=bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; scalars broadcast against vectors."""
    out_data = a.data * b.data

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return Tensor(out_data, parents=(a, b), bw=bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul needs [n, k] @ [k, m], got {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

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


def vsum(a: Tensor) -> Tensor:
    """Sum of all entries as a scalar."""
    out_data = np.sum(a.data)

    def bw(g):
        _accum(a, np.broadcast_to(g, a.data.shape))

    return Tensor(np.asarray(out_data), parents=(a,), bw=bw)


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


def glorot_init(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Uniform Glorot sample on +/- sqrt(6 / (fan_in + fan_out)) for 2-D shapes."""
    if len(shape) != 2:
        raise ValueError(f"glorot_init needs a 2-D shape, got {shape}")
    if shape[0] <= 0 or shape[1] <= 0:
        raise ValueError(f"glorot_init dimensions must be positive, got {shape}")
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


@dataclass
class LstmParams:
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
    def create(cls, prefix: str, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> "LstmParams":
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


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, params: LstmParams) -> tuple[Tensor, Tensor]:
    """One LSTM step for N independent [N, d] rows: sigmoid input/forget/
    output gates and tanh candidate over z = [h_prev, x], each gate its own
    ``z @ w.T + b``; returns (h, c).

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
    p = params
    z = np.concatenate([h_prev.data, x.data], axis=1)
    with np.errstate(over="ignore"):
        i, f, o = (
            1.0 / (1.0 + np.exp(-(z @ w.data.T + b.data)))
            for w, b in ((p.w_i, p.b_i), (p.w_f, p.b_f), (p.w_o, p.b_o))
        )
    g = np.tanh(z @ p.w_c.data.T + p.b_c.data)
    c_data = f * c_prev.data + i * g
    tanh_c = np.tanh(c_data)
    d_o = [None]  # the output gate's pre-activation gradient, left by h's backward

    def c_bw(dc):
        d_f = dc * c_prev.data * f * (1.0 - f)
        d_i = dc * g * i * (1.0 - i)
        d_g = dc * i * (1.0 - g * g)
        d_z = None
        # z's gradient sums the gates in the order of the unfused tape: o, f, i, c
        for d, w, b in (
            (d_o[0], p.w_o, p.b_o), (d_f, p.w_f, p.b_f), (d_i, p.w_i, p.b_i), (d_g, p.w_c, p.b_c),
        ):
            if d is None:
                continue
            d_z = d @ w.data if d_z is None else d_z + d @ w.data
            _accum(w, d.T @ z)
            _accum(b, np.add.reduce(d, axis=0))
        _accum(c_prev, dc * f)
        _accum(h_prev, d_z[:, :hidden])
        _accum(x, d_z[:, hidden:])

    c = Tensor(c_data, parents=(x, h_prev, c_prev, *p.parameters()), bw=c_bw)

    def h_bw(dh):
        d_o[0] = dh * tanh_c * o * (1.0 - o)
        _accum(c, dh * o * (1.0 - tanh_c * tanh_c))

    return Tensor(o * tanh_c, parents=(c,), bw=h_bw), c


def lstm_runs(
    seq: Tensor, lengths: Sequence[int], cell: LstmParams
) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """Run ``cell`` from a zero state over each run of ``lengths[i]``
    consecutive rows of ``seq``, the n runs as the rows of one [n, h] state.
    Every row steps as often as the longest run (an ended run repeats its
    last row, and nothing reads those steps).  Returns the step-major
    [steps·n, h] stack of hidden states (row t·n + i is run i after step t)
    and each run's (h, c) after its own last step."""
    counts, starts = _runs(lengths, seq.data.shape[0])
    h = c = zeros((counts.size, cell.hidden_dim))
    hs, cs = [], []
    for t in range(int(counts.max())):
        h, c = lstm_cell(take_rows(seq, starts + np.minimum(t, counts - 1)), h, c, cell)
        hs.append(h)
        cs.append(c)
    last = (counts - 1) * counts.size + np.arange(counts.size)
    stack = concat(hs, axis=0)
    return stack, (take_rows(stack, last), take_rows(concat(cs, axis=0), last))


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
    if memory.data.ndim != 2 or memory.data.shape[0] == 0:
        raise ValueError("attention requires a [M, h] memory with at least one state")
    if query.data.ndim != 2 or w.data.shape != (memory.data.shape[1], query.data.shape[1]):
        raise ShapeError(
            f"attention needs [N, d] queries and a [h, d] W, got {query.data.shape} and {w.data.shape}"
        )
    projected = query.data @ w.data.T
    scores = projected @ memory.data.T
    if mask is not None:
        scores = scores + mask.data
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    alpha_data = e / np.sum(e, axis=-1, keepdims=True)

    def bw(g):
        d_scores = alpha_data * (g - np.sum(g * alpha_data, axis=-1, keepdims=True))
        d_projected = d_scores @ memory.data
        _accum(memory, d_scores.T @ projected)
        _accum(query, d_projected @ w.data)
        _accum(w, d_projected.T @ query.data)

    alphas = Tensor(alpha_data, parents=(query, w, memory), bw=bw)
    return alphas, matmul(alphas, memory)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a fixed parameter list, with the standard
    setting ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    ``step(lr)`` applies one update using each parameter's accumulated
    gradient (absent gradients count as zero).
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
            m = self.m[p.name] = ADAM_BETA1 * self.m[p.name] + (1.0 - ADAM_BETA1) * g
            v = self.v[p.name] = ADAM_BETA2 * self.v[p.name] + (1.0 - ADAM_BETA2) * (g * g)
            p.data = p.data - lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad = None


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
    zero_grads(params)
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

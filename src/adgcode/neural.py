"""Minimal reverse-mode autodiff over float64 numpy arrays, plus the layers
this model family needs: LSTM cell, windowed ReLU feature layers,
multiplicative attention, stabilized softmax/cross-entropy, inverted dropout,
Glorot initialization, Adam with an inverse-square-root warmup schedule.

Tensors form a tape through parent links; ``backward()`` runs an iterative
topological sweep.  All randomness comes from explicitly passed numpy
Generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent."""


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
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
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


def scale(a: Tensor, k: float) -> Tensor:
    out_data = a.data * k

    def bw(g):
        _accum(a, g * k)

    return Tensor(out_data, parents=(a,), bw=bw)


def add_n(ts: Sequence[Tensor]) -> Tensor:
    """Sum of same-shaped tensors as a single tape node."""
    if not ts:
        raise ValueError("add_n of an empty sequence")
    out_data = ts[0].data.copy()
    for t in ts[1:]:
        out_data += t.data

    def bw(g):
        for t in ts:
            _accum(t, g)

    return Tensor(out_data, parents=tuple(ts), bw=bw)


def mean_of(ts: Sequence[Tensor]) -> Tensor:
    return scale(add_n(ts), 1.0 / len(ts))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix @ vector or matrix @ matrix."""
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul needs 2-D @ 1/2-D, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    if b.data.ndim == 1:

        def bw(g):
            _accum(a, np.outer(g, b.data))
            _accum(b, a.data.T @ g)

    else:

        def bw(g):
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)

    return Tensor(out_data, parents=(a, b), bw=bw)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape or a.data.ndim != 1:
        raise ShapeError(f"dot needs equal 1-D shapes, got {a.data.shape} and {b.data.shape}")
    out_data = np.dot(a.data, b.data)

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return Tensor(out_data, parents=(a, b), bw=bw)


def concat(ts: Sequence[Tensor]) -> Tensor:
    if not ts:
        raise ValueError("concat of an empty sequence")
    for t in ts:
        if t.data.ndim != 1:
            raise ShapeError("concat handles 1-D tensors only")
    out_data = np.concatenate([t.data for t in ts])
    sizes = [t.data.shape[0] for t in ts]

    def bw(g):
        off = 0
        for t, n in zip(ts, sizes):
            _accum(t, g[off : off + n])
            off += n

    return Tensor(out_data, parents=tuple(ts), bw=bw)


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


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return Tensor(out_data, parents=(a,), bw=bw)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def bw(g):
        _accum(a, g * (a.data > 0.0))

    return Tensor(out_data, parents=(a,), bw=bw)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first operand."""
    mask = a.data >= b.data
    out_data = np.where(mask, a.data, b.data)

    def bw(g):
        _accum(a, g * mask)
        _accum(b, g * ~mask)

    return Tensor(out_data, parents=(a, b), bw=bw)


def max_of(ts: Sequence[Tensor]) -> Tensor:
    """Elementwise max over a sequence (ties go to the earliest member)."""
    if not ts:
        raise ValueError("max_of of an empty sequence")
    out = ts[0]
    for t in ts[1:]:
        out = maximum(out, t)
    return out


def row(table: Tensor, index: int) -> Tensor:
    """Row lookup into a 2-D table with scatter-add gradients."""
    if table.data.ndim != 2:
        raise ShapeError("row lookup needs a 2-D table")
    out_data = table.data[index]

    def bw(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        table.grad[index] += g

    return Tensor(out_data, parents=(table,), bw=bw)


def stack_scalars(ts: Sequence[Tensor]) -> Tensor:
    out_data = np.array([t.data for t in ts])

    def bw(g):
        for i, t in enumerate(ts):
            _accum(t, g[i].reshape(()))

    return Tensor(out_data, parents=tuple(ts), bw=bw)


def softmax(a: Tensor) -> Tensor:
    """Numerically stabilized softmax over a 1-D tensor."""
    if a.data.ndim != 1 or a.data.shape[0] == 0:
        raise ShapeError("softmax needs a non-empty 1-D tensor")
    e = np.exp(a.data - np.max(a.data))
    out_data = e / np.sum(e)

    def bw(g):
        _accum(a, out_data * (g - np.dot(g, out_data)))

    return Tensor(out_data, parents=(a,), bw=bw)


def weighted_sum(weights: Tensor, vectors: Sequence[Tensor]) -> Tensor:
    """Sum_i weights[i] * vectors[i] as a single tape node."""
    if weights.data.shape != (len(vectors),):
        raise ShapeError("one weight per vector required")
    stacked = np.stack([v.data for v in vectors])
    out_data = stacked.T @ weights.data

    def bw(g):
        _accum(weights, stacked @ g)
        w = weights.data
        for i, v in enumerate(vectors):
            _accum(v, g * w[i])

    return Tensor(out_data, parents=(weights,) + tuple(vectors), bw=bw)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Stabilized log-softmax of a non-empty 1-D array: the maximum is
    subtracted before exponentiating."""
    shifted = x - np.max(x)
    return shifted - math.log(np.sum(np.exp(shifted)))


def softmax_xent(logits: Tensor, target: int) -> Tensor:
    """Fused stabilized softmax + negative log-likelihood of ``target``; the
    gradient is ``softmax(logits) - onehot(target)``."""
    n = logits.data.shape[0]
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for {n} logits")
    log_probs = log_softmax(logits.data)
    probs = np.exp(log_probs)

    def bw(g):
        d = probs * g
        d[target] -= g
        _accum(logits, d)

    return Tensor(np.asarray(-log_probs[target]), parents=(logits,), bw=bw)


def dropout(x: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: evaluation mode is the identity; training mode zeroes
    entries with probability ``p`` and scales survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout requires an explicit rng")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return mul(x, constant(mask))


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
    """One LSTM step: sigmoid input/forget/output gates and tanh candidate
    over [h_prev, x]; returns (h, c)."""
    hidden = params.hidden_dim
    if x.data.shape != (params.input_dim,):
        raise ShapeError(f"lstm_cell input shape {x.data.shape}, expected ({params.input_dim},)")
    if h_prev.data.shape != (hidden,) or c_prev.data.shape != (hidden,):
        raise ShapeError("lstm_cell state shapes do not match the cell size")
    z = concat([h_prev, x])
    i = sigmoid(add(matmul(params.w_i, z), params.b_i))
    f = sigmoid(add(matmul(params.w_f, z), params.b_f))
    o = sigmoid(add(matmul(params.w_o, z), params.b_o))
    c_tilde = tanh(add(matmul(params.w_c, z), params.b_c))
    c = add(mul(f, c_prev), mul(i, c_tilde))
    h = mul(o, tanh(c))
    return h, c


def window_relu_stack(
    xs: Sequence[Tensor], weights: Sequence[Parameter], window: int
) -> list[Tensor]:
    """L stacked layers mapping position t to ReLU(W_l . [x_{t-s} .. x_{t+s}])
    with zero padding outside the sequence; zero layers is the identity."""
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    current = list(xs)
    for w in weights:
        d_in = current[0].data.shape[0]
        span = 2 * window + 1
        if w.data.ndim != 2 or w.data.shape[1] != span * d_in:
            raise ShapeError(
                f"stack weight {w.data.shape} incompatible with window {window} over dim {d_in}"
            )
        pad = zeros(d_in)
        nxt: list[Tensor] = []
        for t in range(len(current)):
            ctx = [
                current[t + off] if 0 <= t + off < len(current) else pad
                for off in range(-window, window + 1)
            ]
            nxt.append(relu(matmul(w, concat(ctx))))
        current = nxt
    return current


def attention(
    encoder_states: Sequence[Tensor], decoder_state: Tensor, w: Tensor
) -> tuple[Tensor, Tensor]:
    """Multiplicative attention: scores h_t . (W s), softmax weights, and the
    convex-combination context vector."""
    if len(encoder_states) == 0:
        raise ValueError("attention requires at least one encoder state")
    projected = matmul(w, decoder_state)
    scores = stack_scalars([dot(h, projected) for h in encoder_states])
    alphas = softmax(scores)
    context = weighted_sum(alphas, list(encoder_states))
    return alphas, context


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    ``step(lr)`` applies one update using each parameter's accumulated
    gradient (absent gradients count as zero).  Defaults follow the standard
    setting: beta1=0.9, beta2=0.999, eps=1e-8.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, lr: float) -> None:
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        for p in self.params:
            g = p.grad if p.grad is not None else 0.0
            m = self.m[p.name] = self.beta1 * self.m[p.name] + (1.0 - self.beta1) * g
            v = self.v[p.name] = self.beta2 * self.v[p.name] + (1.0 - self.beta2) * (g * g)
            p.data = p.data - lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


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

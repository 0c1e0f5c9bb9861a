"""Autodiff core and layer tests.

Gradients are validated against central finite differences; the stabilized
softmax/cross-entropy is validated against an arbitrary-precision (mpmath)
evaluation.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from adgcode import neural
from adgcode.neural import (
    Adam,
    LstmParams,
    Parameter,
    ShapeError,
    attention,
    dropout,
    glorot_init,
    gradient_check,
    lrate,
    lstm_cell,
    window_relu_stack,
)

RNG = np.random.default_rng


def tensor_param(name, rng, shape):
    return Parameter(name, rng.standard_normal(shape))


class TestTensorOps:
    """Finite-difference checks for every differentiable primitive."""

    def test_elementwise_and_reductions(self):
        rng = RNG(0)
        a = tensor_param("a", rng, (5,))
        b = tensor_param("b", rng, (5,))
        s = tensor_param("s", rng, ())
        weights = neural.constant(rng.standard_normal(5))

        cases = {
            "add": lambda: neural.vsum(neural.mul(neural.add(a, b), weights)),
            "mul": lambda: neural.vsum(neural.mul(neural.mul(a, b), weights)),
            "scale": lambda: neural.vsum(neural.scale(a, 3.7)),
            "scalar_broadcast": lambda: neural.vsum(neural.mul(s, a)),
            "tanh": lambda: neural.vsum(neural.mul(neural.tanh(a), weights)),
            "sigmoid": lambda: neural.vsum(neural.mul(neural.sigmoid(a), weights)),
            "relu": lambda: neural.vsum(neural.mul(neural.relu(a), weights)),
            "maximum": lambda: neural.vsum(neural.maximum(a, b)),
            "dot": lambda: neural.dot(a, b),
            "concat": lambda: neural.vsum(neural.concat([a, b])),
            "add_n": lambda: neural.vsum(neural.add_n([a, b, a])),
            "max_of": lambda: neural.vsum(neural.max_of([a, b])),
            "softmax": lambda: neural.vsum(neural.mul(neural.softmax(a), weights)),
            "xent": lambda: neural.softmax_xent(a, 2),
        }
        for name, fn in cases.items():
            err = gradient_check(fn, [a, b, s])
            assert err < 1e-4, f"{name}: worst relative error {err}"

    def test_matmul_and_lookup(self):
        rng = RNG(1)
        w = tensor_param("w", rng, (4, 6))
        x = tensor_param("x", rng, (6,))
        table = tensor_param("table", rng, (5, 3))
        weights = neural.constant(rng.standard_normal(4))
        w3 = neural.constant(rng.standard_normal(3))

        err = gradient_check(
            lambda: neural.vsum(neural.mul(neural.matmul(w, x), weights)), [w, x]
        )
        assert err < 1e-4
        err = gradient_check(
            lambda: neural.vsum(
                neural.mul(neural.add(neural.row(table, 1), neural.row(table, 3)), w3)
            ),
            [table],
        )
        assert err < 1e-4

    def test_weighted_sum_and_stack(self):
        rng = RNG(2)
        ws = tensor_param("ws", rng, (3,))
        vs = [tensor_param(f"v{i}", rng, (4,)) for i in range(3)]
        probe = neural.constant(rng.standard_normal(4))
        err = gradient_check(
            lambda: neural.vsum(neural.mul(neural.weighted_sum(neural.softmax(ws), vs), probe)),
            [ws] + vs,
        )
        assert err < 1e-4
        scalars = [neural.dot(vs[0], vs[1]), neural.dot(vs[1], vs[2])]
        err = gradient_check(
            lambda: neural.vsum(
                neural.stack_scalars([neural.dot(vs[0], vs[1]), neural.dot(vs[1], vs[2])])
            ),
            vs,
        )
        assert err < 1e-4

    def test_backward_requires_scalar(self):
        t = Parameter("t", np.ones(3))
        with pytest.raises(ShapeError):
            t.backward()

    def test_shape_errors(self):
        a = neural.constant(np.ones((2, 3)))
        b = neural.constant(np.ones(4))
        with pytest.raises(ShapeError):
            neural.matmul(a, b)
        with pytest.raises(ShapeError):
            neural.dot(neural.constant(np.ones(2)), neural.constant(np.ones(3)))

    def test_gradient_accumulates_over_shared_use(self):
        a = Parameter("a", np.array([2.0]))
        loss = neural.vsum(neural.mul(a, a))  # d/da a^2 = 2a
        loss.backward()
        assert np.allclose(a.grad, [4.0])


class TestLstmCell:
    def test_all_zero_params_zero_state(self):
        rng = RNG(3)
        p = LstmParams.create("z", 4, 4, rng)
        for w in p.parameters():
            w.data = np.zeros_like(w.data)
        h, c = lstm_cell(neural.constant(np.ones(4)), neural.zeros(4), neural.zeros(4), p)
        assert np.allclose(h.data, 0.0)
        assert np.allclose(c.data, 0.0)

    def test_zero_weights_unit_memory(self):
        # gates all sigmoid(0)=0.5, candidate tanh(0)=0, so c = 0.5*c_prev
        rng = RNG(4)
        p = LstmParams.create("z", 1, 1, rng)
        for w in p.parameters():
            w.data = np.zeros_like(w.data)
        h, c = lstm_cell(
            neural.constant(np.array([0.7])),
            neural.zeros(1),
            neural.constant(np.array([1.0])),
            p,
        )
        assert np.allclose(c.data, 0.5)
        assert np.allclose(h.data, 0.5 * math.tanh(0.5))

    def test_gradients_vs_finite_differences(self):
        rng = RNG(5)
        p = LstmParams.create("cell", 8, 8, rng)
        x = tensor_param("x", rng, (8,))
        h0 = tensor_param("h0", rng, (8,))
        c0 = tensor_param("c0", rng, (8,))
        probe = neural.constant(rng.standard_normal(8))

        def loss():
            h, c = lstm_cell(x, h0, c0, p)
            return neural.vsum(neural.mul(neural.add(h, c), probe))

        err = gradient_check(loss, p.parameters() + [x, h0, c0])
        assert err < 1e-4

    def test_shape_mismatch(self):
        rng = RNG(6)
        p = LstmParams.create("cell", 4, 4, rng)
        with pytest.raises(ShapeError):
            lstm_cell(neural.zeros(3), neural.zeros(4), neural.zeros(4), p)
        with pytest.raises(ShapeError):
            lstm_cell(neural.zeros(4), neural.zeros(5), neural.zeros(4), p)


class TestWindowReluStack:
    def test_zero_layers_identity(self):
        xs = [neural.constant(np.array([1.0, -2.0])), neural.constant(np.array([3.0, 4.0]))]
        out = window_relu_stack(xs, [], 1)
        assert out is not xs  # new list, same tensors
        assert all(o is x for o, x in zip(out, xs))

    def test_window_zero_identity_weight_is_relu(self):
        w = Parameter("w", np.eye(3))
        xs = [neural.constant(np.array([1.0, -2.0, 0.5]))]
        out = window_relu_stack(xs, [w], 0)
        assert np.allclose(out[0].data, [1.0, 0.0, 0.5])

    def test_zero_padding_at_edges(self):
        # single position with window 1 sees [0, x, 0]
        d = 2
        w = Parameter("w", np.hstack([np.zeros((d, d)), np.eye(d), np.zeros((d, d))]))
        xs = [neural.constant(np.array([2.0, -1.0]))]
        out = window_relu_stack(xs, [w], 1)
        assert np.allclose(out[0].data, [2.0, 0.0])

    def test_gradients_vs_finite_differences(self):
        rng = RNG(7)
        d = 4
        w = Parameter("w", glorot_init((d, 3 * d), rng))
        xs = [tensor_param(f"x{i}", rng, (d,)) for i in range(3)]
        probe = neural.constant(rng.standard_normal(d))

        def loss():
            out = window_relu_stack(xs, [w], 1)
            return neural.vsum(neural.mul(neural.add_n(out), probe))

        err = gradient_check(loss, [w] + xs)
        assert err < 1e-4

    def test_bad_weight_shape(self):
        w = Parameter("w", np.eye(3))
        with pytest.raises(ShapeError):
            window_relu_stack([neural.zeros(3)], [w], 1)


class TestAttention:
    def test_single_state(self):
        rng = RNG(8)
        h = neural.constant(rng.standard_normal(4))
        s = neural.constant(rng.standard_normal(4))
        w = neural.constant(rng.standard_normal((4, 4)))
        alphas, ctx = attention([h], s, w)
        assert np.allclose(alphas.data, [1.0])
        assert np.allclose(ctx.data, h.data)

    def test_identical_states_uniform_weights(self):
        rng = RNG(9)
        h = neural.constant(rng.standard_normal(4))
        states = [h, h, h, h]
        s = neural.constant(rng.standard_normal(4))
        w = neural.constant(rng.standard_normal((4, 4)))
        alphas, _ = attention(states, s, w)
        assert np.allclose(alphas.data, 0.25)

    def test_matches_direct_formula(self):
        rng = RNG(10)
        hs_data = [rng.standard_normal(5) for _ in range(4)]
        s_data = rng.standard_normal(5)
        w_data = rng.standard_normal((5, 5))
        alphas, ctx = attention(
            [neural.constant(h) for h in hs_data],
            neural.constant(s_data),
            neural.constant(w_data),
        )
        scores = np.array([h @ (w_data @ s_data) for h in hs_data])
        e = np.exp(scores - scores.max())
        expect_alpha = e / e.sum()
        expect_ctx = sum(a * h for a, h in zip(expect_alpha, hs_data))
        assert np.allclose(alphas.data, expect_alpha, atol=1e-12)
        assert np.allclose(ctx.data, expect_ctx, atol=1e-12)

    def test_weights_are_distribution(self):
        rng = RNG(11)
        states = [neural.constant(rng.standard_normal(6)) for _ in range(5)]
        alphas, ctx = attention(
            states, neural.constant(rng.standard_normal(6)),
            neural.constant(rng.standard_normal((6, 6))),
        )
        assert abs(float(np.sum(alphas.data)) - 1.0) < 1e-12
        assert np.all(alphas.data > 0.0)
        # context lies in the componentwise convex hull of the states
        stacked = np.stack([s.data for s in states])
        assert np.all(ctx.data <= stacked.max(axis=0) + 1e-12)
        assert np.all(ctx.data >= stacked.min(axis=0) - 1e-12)

    def test_gradients_vs_finite_differences(self):
        rng = RNG(12)
        states = [tensor_param(f"h{i}", rng, (4,)) for i in range(4)]
        s = tensor_param("s", rng, (4,))
        w = tensor_param("w", rng, (4, 4))
        probe = neural.constant(rng.standard_normal(4))

        def loss():
            _, ctx = attention(states, s, w)
            return neural.vsum(neural.mul(ctx, probe))

        err = gradient_check(loss, states + [s, w])
        assert err < 1e-4

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError):
            attention([], neural.zeros(3), neural.constant(np.eye(3)))


def xent(logits, target):
    """Loss (from ``.data``) and logit gradient (from ``backward()``) of
    ``softmax_xent``."""
    x = Parameter("logits", np.asarray(logits, dtype=np.float64))
    loss = neural.softmax_xent(x, target)
    loss.backward()
    return float(loss.data), x.grad


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_log_r(self):
        for r in (2, 5, 12):
            loss, _ = xent(np.zeros(r), 0)
            assert abs(loss - math.log(r)) < 1e-12

    def test_extreme_logits_stable(self):
        loss, grad = xent(np.array([1000.0, 0.0]), 0)
        assert math.isfinite(loss) and loss < 1e-12
        assert np.all(np.isfinite(grad))

    def test_matches_mpmath_oracle(self):
        rng = RNG(13)
        with mpmath.workdps(50):
            for _ in range(20):
                logits = rng.standard_normal(12) * 5
                target = int(rng.integers(0, 12))
                loss, grad = xent(logits, target)
                exps = [mpmath.e ** mpmath.mpf(x) for x in logits]
                total = mpmath.fsum(exps)
                expect_loss = -mpmath.log(exps[target] / total)
                assert abs(loss - float(expect_loss)) < 1e-12
                for j in range(12):
                    p_j = float(exps[j] / total)
                    expect_g = p_j - (1.0 if j == target else 0.0)
                    assert abs(grad[j] - expect_g) < 1e-12

    def test_probabilities_sum_to_one(self):
        rng = RNG(14)
        logits = rng.standard_normal(9)
        _, grad = xent(logits, 4)
        # grad = p - onehot, so sum(grad) = 1 - 1 = 0
        assert abs(float(np.sum(grad))) < 1e-12
        probs = grad.copy()
        probs[4] += 1.0
        assert np.all(probs > 0.0)
        assert abs(float(np.sum(probs)) - 1.0) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            neural.softmax_xent(neural.constant(np.zeros(3)), 3)
        with pytest.raises(ValueError):
            neural.softmax_xent(neural.constant(np.zeros(3)), -1)
        with pytest.raises(ValueError):
            neural.softmax_xent(neural.constant(np.zeros(0)), 0)


class TestLrate:
    def test_peak_value(self):
        expect = 256.0**-0.5 * 4000.0**-0.5
        assert abs(lrate(4000, 256, 4000) - expect) < 1e-12
        assert abs(expect - 9.882117688026186e-4) < 1e-12

    def test_first_step_value(self):
        expect = 256.0**-0.5 * 1.0 * 4000.0**-1.5
        assert abs(lrate(1, 256, 4000) - expect) < 1e-15
        assert abs(expect - 2.4705294220065464e-07) < 1e-18

    def test_monotone_up_then_down(self):
        warm = 50
        values = [lrate(s, 64, warm) for s in range(1, 4 * warm)]
        for i in range(warm - 1):
            assert values[i] < values[i + 1]
        for i in range(warm, len(values) - 1):
            assert values[i] > values[i + 1]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lrate(0, 256, 4000)
        with pytest.raises(ValueError):
            lrate(1, 0, 4000)
        with pytest.raises(ValueError):
            lrate(1, 256, 0)


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        opt = Adam([p])
        before = p.data.copy()
        p.grad = np.zeros_like(p.data)
        opt.step(0.1)
        assert np.allclose(p.data, before)

    def test_single_step_hand_computed(self):
        # g=1: m=0.1, v=0.001; bias-corrected m^=1, v^=1 -> delta = lr/(1+eps)
        p = Parameter("p", np.array([0.0]))
        opt = Adam([p])
        p.grad = np.array([1.0])
        opt.step(0.01)
        expect = -0.01 * 1.0 / (1.0 + 1e-8)
        assert abs(p.data[0] - expect) < 1e-15

    def test_quadratic_descent(self):
        p = Parameter("p", np.array([3.0, -2.0]))
        opt = Adam([p])
        initial = float(np.sum(p.data**2))
        for step in range(1, 101):
            p.grad = 2.0 * p.data
            opt.step(0.05)
        final = float(np.sum(p.data**2))
        assert final < initial

    def test_missing_grad_treated_as_zero(self):
        p = Parameter("p", np.array([1.0]))
        opt = Adam([p])
        p.grad = None
        opt.step(0.1)
        assert np.allclose(p.data, [1.0])


class TestDropout:
    def test_p_zero_identity(self):
        x = neural.constant(np.ones(10))
        rng = RNG(15)
        assert dropout(x, 0.0, True, rng) is x
        assert dropout(x, 0.0, False) is x

    def test_eval_mode_identity(self):
        x = neural.constant(np.ones(10))
        assert dropout(x, 0.5, False) is x

    def test_invalid_probability(self):
        x = neural.constant(np.ones(3))
        with pytest.raises(ValueError):
            dropout(x, 1.0, True, RNG(0))
        with pytest.raises(ValueError):
            dropout(x, -0.1, True, RNG(0))

    def test_mean_preserved_on_large_sample(self):
        rng = RNG(16)
        x = neural.constant(np.full(1_000_000, 3.0))
        y = dropout(x, 0.1, True, rng)
        assert abs(float(np.mean(y.data)) - 3.0) / 3.0 < 0.01

    def test_seeded_reproducibility(self):
        x = neural.constant(np.ones(100))
        a = dropout(x, 0.3, True, RNG(99)).data
        b = dropout(x, 0.3, True, RNG(99)).data
        assert np.array_equal(a, b)


class TestGlorotInit:
    def test_seeded_determinism(self):
        a = glorot_init((10, 20), RNG(5))
        b = glorot_init((10, 20), RNG(5))
        assert np.array_equal(a, b)

    def test_support_bound(self):
        t = glorot_init((30, 50), RNG(6))
        bound = math.sqrt(6.0 / 80.0)
        assert np.all(np.abs(t) <= bound)

    def test_variance(self):
        t = glorot_init((100, 100), RNG(7))
        expect = 2.0 / 200.0
        assert abs(float(np.var(t)) - expect) / expect < 0.10

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            glorot_init((0, 5), RNG(0))
        with pytest.raises(ValueError):
            glorot_init((3,), RNG(0))

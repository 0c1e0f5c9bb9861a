"""Autodiff core and layer tests.

Gradients are validated against central finite differences; the stabilized
softmax/cross-entropy is validated against an arbitrary-precision (mpmath)
evaluation.
"""

from __future__ import annotations

import contextlib
import math
import weakref

import mpmath
import numpy as np
import pytest

from adgcode import neural
from adgcode.model import ModelConfig
from adgcode.neural import (
    Adam,
    LstmParams,
    Parameter,
    ShapeError,
    dropout_mask,
    glorot_init,
    lrate,
    window_relu_stack,
)

from per_step import (
    add, attention, gradient_check, lstm_cell, masked_lstm_runs, matmul, per_step_decoder, vsum,
)

RNG = np.random.default_rng


def tensor_param(name, rng, shape):
    return Parameter(name, rng.standard_normal(shape))


class TestTensorOps:
    """Finite-difference checks for every differentiable primitive."""

    def test_elementwise_and_reductions(self):
        rng = RNG(0)
        a = tensor_param("a", rng, (1, 5))
        b = tensor_param("b", rng, (1, 5))
        s = tensor_param("s", rng, ())
        weights = neural.constant(rng.standard_normal((1, 5)))

        def aba():
            return neural.concat([a, b, a], axis=0)

        cases = {
            "add": lambda: vsum(neural.mul(add(a, b), weights)),
            "mul": lambda: vsum(neural.mul(neural.mul(a, b), weights)),
            "scalar_broadcast": lambda: vsum(neural.mul(s, a)),
            "tanh": lambda: vsum(neural.mul(neural.tanh(a), weights)),
            "relu": lambda: vsum(neural.mul(neural.relu(a), weights)),
            "concat": lambda: vsum(neural.concat([a, b])),
            "segment_mean": lambda: vsum(
                neural.mul(neural.segment_reduce(aba(), [1, 2], "mean"), weights)
            ),
            "segment_max": lambda: vsum(
                neural.mul(neural.segment_reduce(aba(), [2, 1], "max"), weights)
            ),
            # rows 0 and 2 are the same parameter, so they tie wherever b < a
            "segment_max_tie": lambda: vsum(
                neural.mul(neural.segment_reduce(aba(), [3], "max"), weights)
            ),
            "xent": lambda: neural.softmax_xent(a, [2]),
        }
        for name, fn in cases.items():
            err = gradient_check(fn, [a, b, s])
            assert err < 1e-4, f"{name}: worst relative error {err}"

    def test_matmul_and_lookup(self):
        rng = RNG(1)
        w = tensor_param("w", rng, (4, 6))
        x = tensor_param("x", rng, (6, 2))
        table = tensor_param("table", rng, (5, 3))
        weights = neural.constant(rng.standard_normal((4, 2)))
        w3 = neural.constant(rng.standard_normal((1, 3)))

        err = gradient_check(
            lambda: vsum(neural.mul(matmul(w, x), weights)), [w, x]
        )
        assert err < 1e-4
        v = tensor_param("v", rng, (3, 4))
        probe = neural.constant(rng.standard_normal((3, 6)))
        err = gradient_check(
            lambda: vsum(neural.mul(matmul(v, w), probe)), [v, w]
        )
        assert err < 1e-4
        err = gradient_check(
            lambda: vsum(
                neural.mul(add(neural.take_rows(table, [1]), neural.take_rows(table, [3])), w3)
            ),
            [table],
        )
        assert err < 1e-4

    def test_stack_and_take_rows(self):
        rng = RNG(2)
        # rows of several tensors joined one under another
        vs = [tensor_param(f"v{i}", rng, (i + 1, 4)) for i in range(3)]
        probe = neural.constant(rng.standard_normal((6, 4)))
        err = gradient_check(lambda: vsum(neural.mul(neural.concat(vs, axis=0), probe)), vs)
        assert err < 1e-4
        # repeated and dropped rows: gradients scatter-add, unused rows get zero
        table = tensor_param("table", rng, (4, 3))
        rows = [2, 0, 2, 2]
        probe = neural.constant(rng.standard_normal((4, 3)))
        err = gradient_check(
            lambda: vsum(neural.mul(neural.take_rows(table, rows), probe)), [table]
        )
        assert err < 1e-4
        assert np.array_equal(neural.take_rows(table, rows).data, table.data[rows])
        neural.zero_grads([table])
        vsum(neural.take_rows(table, rows)).backward()
        assert np.array_equal(table.grad[:, 0], [1.0, 0.0, 3.0, 0.0])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_linear(self, rows):
        rng = RNG(17)
        x = tensor_param("x", rng, (rows, 6))
        w = tensor_param("w", rng, (4, 6))
        b = tensor_param("b", rng, (4,))
        probe = neural.constant(rng.standard_normal((rows, 4)))
        for bias in (b, None):
            err = gradient_check(
                lambda: vsum(neural.mul(neural.linear(x, w, bias), probe)), [x, w, b]
            )
            assert err < 1e-4
        expect = x.data @ w.data.T + b.data
        assert np.allclose(neural.linear(x, w, b).data, expect, atol=1e-12)
        # rows of the batched form agree with one-row calls
        for i in range(rows):
            one = neural.linear(neural.constant(x.data[i : i + 1]), w, b).data
            assert np.allclose(neural.linear(x, w, b).data[i], one[0], atol=1e-12)

    def test_concat_last_axis(self):
        rng = RNG(18)
        a = tensor_param("a", rng, (3, 2))
        b = tensor_param("b", rng, (3, 4))
        probe = neural.constant(rng.standard_normal((3, 6)))
        err = gradient_check(lambda: vsum(neural.mul(neural.concat([a, b]), probe)), [a, b])
        assert err < 1e-4
        assert np.array_equal(neural.concat([a, b]).data, np.hstack([a.data, b.data]))
        with pytest.raises(ShapeError):
            neural.concat([a, neural.constant(np.ones((2, 4)))])
        with pytest.raises(ShapeError):
            neural.concat([a, b], axis=0)

    def test_backward_requires_scalar(self):
        t = Parameter("t", np.ones(3))
        with pytest.raises(ShapeError):
            t.backward()

    def test_shape_errors(self):
        a = neural.constant(np.ones((2, 3)))
        b = neural.constant(np.ones(4))
        with pytest.raises(ShapeError):
            matmul(a, b)
        # layers take [N, d] rows only
        with pytest.raises(ShapeError):
            neural.linear(neural.constant(np.ones(3)), a)
        with pytest.raises(ShapeError):
            attention(a, neural.constant(np.ones(3)), neural.constant(np.ones((3, 3))))

    def test_gradient_accumulates_over_shared_use(self):
        a = Parameter("a", np.array([2.0]))
        loss = vsum(neural.mul(a, a))  # d/da a^2 = 2a
        loss.backward()
        assert np.allclose(a.grad, [4.0])


class TestNoGrad:
    @staticmethod
    def _layer_outputs(rng):
        """Tape layers, the per-step cell and attention among them, applied
        to trainable operands."""
        x = tensor_param("x", rng, (2, 3))
        w = tensor_param("w", rng, (4, 3))
        b = tensor_param("b", rng, (4,))
        cell = LstmParams.create("cell", 4, 3, rng)
        h0, c0 = neural.zeros((2, 3)), neural.zeros((2, 3))
        y = neural.relu(neural.linear(x, w, b))
        h, c = lstm_cell(y, h0, c0, cell)
        weights, context = attention(h, h, tensor_param("att", rng, (3, 3)))
        loss = neural.softmax_xent(neural.concat([h, context]), [0, 1], [0.5, 0.5])
        return [y, h, c, weights, context, neural.take_rows(h, [1, 0, 1]), loss]

    def test_no_tape_inside(self, monkeypatch):
        made = []
        init = neural.Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(neural.Tensor, "__init__", recording_init)
        with neural.no_grad():
            outs = self._layer_outputs(RNG(40))
        built = [t for t in made if not isinstance(t, Parameter)]
        assert len(built) > len(outs)
        for t in built:
            assert not t.requires_grad and t.parents == () and t.bw is None
        # the same layers outside the context keep their tape
        for t in self._layer_outputs(RNG(40)):
            assert t.requires_grad and t.parents and t.bw is not None

    def test_parameter_made_inside_stays_trainable(self):
        with neural.no_grad():
            a = Parameter("a", np.array([3.0]))
            assert a.requires_grad
            assert not neural.mul(a, a).requires_grad
        loss = vsum(neural.mul(a, a))
        loss.backward()
        assert np.array_equal(a.grad, [6.0])

    def test_nested_contexts_restore_in_order(self):
        a = Parameter("a", np.ones(2))
        with neural.no_grad():
            with neural.no_grad():
                assert not neural.mul(a, a).requires_grad
            assert not neural.mul(a, a).requires_grad
        assert neural.mul(a, a).requires_grad

    def test_restored_after_exception(self):
        a = Parameter("a", np.ones(2))
        with pytest.raises(RuntimeError):
            with neural.no_grad():
                raise RuntimeError("inside")
        assert neural.mul(a, a).requires_grad

        @neural.no_grad()
        def failing():
            raise ShapeError("inside a decorated call")

        with pytest.raises(ShapeError):
            failing()
        loss = vsum(neural.mul(a, a))
        loss.backward()
        assert np.array_equal(a.grad, [2.0, 2.0])


class TestLstmCell:
    def test_all_zero_params_zero_state(self):
        rng = RNG(3)
        p = LstmParams.create("z", 4, 4, rng)
        for w in p.parameters():
            w.data = np.zeros_like(w.data)
        h, c = lstm_cell(neural.constant(np.ones((1, 4))), neural.zeros((1, 4)), neural.zeros((1, 4)), p)
        assert np.allclose(h.data, 0.0)
        assert np.allclose(c.data, 0.0)

    def test_zero_weights_unit_memory(self):
        # gates all sigmoid(0)=0.5, candidate tanh(0)=0, so c = 0.5*c_prev
        rng = RNG(4)
        p = LstmParams.create("z", 1, 1, rng)
        for w in p.parameters():
            w.data = np.zeros_like(w.data)
        h, c = lstm_cell(
            neural.constant(np.array([[0.7]])),
            neural.zeros((1, 1)),
            neural.constant(np.array([[1.0]])),
            p,
        )
        assert np.allclose(c.data, 0.5)
        assert np.allclose(h.data, 0.5 * math.tanh(0.5))

    def test_gradients_vs_finite_differences(self):
        rng = RNG(5)
        p = LstmParams.create("cell", 8, 8, rng)
        x = tensor_param("x", rng, (1, 8))
        h0 = tensor_param("h0", rng, (1, 8))
        c0 = tensor_param("c0", rng, (1, 8))
        probe = neural.constant(rng.standard_normal((1, 8)))

        def loss():
            h, c = lstm_cell(x, h0, c0, p)
            return vsum(neural.mul(add(h, c), probe))

        err = gradient_check(loss, p.parameters() + [x, h0, c0])
        assert err < 1e-4

    @pytest.mark.parametrize("target", ["h", "c", "both"])
    def test_fused_gradients_on_three_rows(self, target):
        rng = RNG(50)
        p = LstmParams.create("cell", 5, 4, rng)
        for b in (p.b_i, p.b_f, p.b_o, p.b_c):
            b.data = rng.standard_normal(b.data.shape)
        x = tensor_param("x", rng, (3, 5))
        h0 = tensor_param("h0", rng, (3, 4))
        c0 = tensor_param("c0", rng, (3, 4))
        probe_h, probe_c = (neural.constant(rng.standard_normal((3, 4))) for _ in range(2))

        def loss():
            h, c = lstm_cell(x, h0, c0, p)
            terms = {"h": [neural.mul(h, probe_h)], "c": [neural.mul(c, probe_c)]}
            parts = terms["h"] + terms["c"] if target == "both" else terms[target]
            return vsum(parts[0] if len(parts) == 1 else add(*parts))

        err = gradient_check(loss, p.parameters() + [x, h0, c0])
        assert err < 1e-4
        if target == "c":  # nothing reaches h, so the output gate gets no gradient
            for w in (p.w_o, p.b_o):
                assert w.grad is None or not np.any(w.grad)

    def test_lstm_runs_gradients_with_ended_runs(self):
        # runs of 4, 1 and 4 rows: the middle run ends after one step while
        # the others go on; the loss reads each run's own steps and its
        # final state
        rng = RNG(51)
        p = LstmParams.create("cell", 3, 4, rng)
        seq = tensor_param("seq", rng, (9, 3))
        lengths = np.array([4, 1, 4])
        probes = [neural.constant(rng.standard_normal(shape)) for shape in ((9, 4), (3, 4), (3, 4))]

        def loss():
            hs, cs = neural.lstm_runs(seq, lengths, p)
            h, c = neural.last_steps(hs, lengths), neural.last_steps(cs, lengths)
            outs = [vsum(neural.mul(t, probe)) for t, probe in zip((hs, h, c), probes)]
            return add(add(outs[0], outs[1]), outs[2])

        hs, _ = neural.lstm_runs(seq, lengths, p)
        h = neural.last_steps(hs, lengths)
        assert np.array_equal(h.data, hs.data[np.cumsum(lengths) - 1])
        err = gradient_check(loss, p.parameters() + [seq])
        assert err < 1e-4

    def test_lstm_runs_tensors_per_step_do_not_depend_on_ended_runs(self, monkeypatch):
        made = []
        init = neural.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(neural.Tensor, "__init__", counting_init)
        rng = RNG(52)
        p = LstmParams.create("cell", 3, 4, rng)
        counts = []
        for lengths in ([3, 3, 3], [3, 1, 2], [1, 3, 1], [2, 2, 3]):  # three steps each
            seq = tensor_param("seq", rng, (sum(lengths), 3))
            before = len(made)
            neural.lstm_runs(seq, lengths, p)
            counts.append(len(made) - before)
        assert len(set(counts)) == 1, counts

    def test_forward_bit_identical_to_per_gate_reference(self):
        rng = RNG(52)
        p = LstmParams.create("cell", 6, 5, rng)
        for b in (p.b_i, p.b_f, p.b_o, p.b_c):
            b.data = rng.standard_normal(b.data.shape)
        x, h0, c0 = (rng.standard_normal((4, d)) for d in (6, 5, 5))
        h, c = lstm_cell(neural.constant(x), neural.constant(h0), neural.constant(c0), p)

        z = np.concatenate([h0, x], axis=1)
        i, f, o = (
            1.0 / (1.0 + np.exp(-(z @ w.data.T + b.data)))
            for w, b in ((p.w_i, p.b_i), (p.w_f, p.b_f), (p.w_o, p.b_o))
        )
        g = np.tanh(z @ p.w_c.data.T + p.b_c.data)
        c_ref = f * c0 + i * g
        assert np.array_equal(c.data, c_ref)
        assert np.array_equal(h.data, o * np.tanh(c_ref))

    def test_shape_mismatch(self):
        rng = RNG(6)
        p = LstmParams.create("cell", 4, 4, rng)
        with pytest.raises(ShapeError):
            lstm_cell(neural.zeros((1, 3)), neural.zeros((1, 4)), neural.zeros((1, 4)), p)
        with pytest.raises(ShapeError):
            lstm_cell(neural.zeros((1, 4)), neural.zeros((1, 5)), neural.zeros((1, 4)), p)
        with pytest.raises(ShapeError):
            lstm_cell(neural.zeros(4), neural.zeros(4), neural.zeros(4), p)


class TestWindowReluStack:
    def test_zero_layers_identity(self):
        x = neural.constant(np.array([[1.0, -2.0], [3.0, 4.0]]))
        assert window_relu_stack(x, [2], [], 1) is x

    def test_window_zero_identity_weight_is_relu(self):
        w = Parameter("w", np.eye(3))
        x = neural.constant(np.array([[1.0, -2.0, 0.5]]))
        out = window_relu_stack(x, [1], [w], 0)
        assert np.allclose(out.data, [[1.0, 0.0, 0.5]])

    def test_zero_padding_at_edges(self):
        # single position with window 1 sees [0, x, 0]; so does each row of a
        # run of one next to other runs
        d = 2
        w = Parameter("w", np.hstack([np.zeros((d, d)), np.eye(d), np.zeros((d, d))]))
        x = neural.constant(np.array([[2.0, -1.0]]))
        assert np.allclose(window_relu_stack(x, [1], [w], 1).data, [[2.0, 0.0]])
        left = Parameter("w", np.hstack([np.eye(d), np.zeros((d, 2 * d))]))
        rows = neural.constant(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        out = window_relu_stack(rows, [1, 2], [left], 1)
        assert np.allclose(out.data, [[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])

    def test_gradients_vs_finite_differences(self):
        rng = RNG(7)
        d = 4
        w = Parameter("w", glorot_init((d, 3 * d), rng))
        x = tensor_param("x", rng, (5, d))
        probe = neural.constant(rng.standard_normal((5, d)))

        def loss():
            out = window_relu_stack(x, [3, 2], [w], 1)
            return vsum(neural.mul(out, probe))

        err = gradient_check(loss, [w, x])
        assert err < 1e-4

    def test_bad_weight_shape(self):
        w = Parameter("w", np.eye(3))
        with pytest.raises(ShapeError):
            window_relu_stack(neural.zeros((1, 3)), [1], [w], 1)
        with pytest.raises(ValueError):
            window_relu_stack(neural.zeros((2, 3)), [1], [w], 0)


class TestAttention:
    def test_single_state(self):
        rng = RNG(8)
        h = neural.constant(rng.standard_normal((1, 4)))
        s = neural.constant(rng.standard_normal((1, 4)))
        w = neural.constant(rng.standard_normal((4, 4)))
        alphas, ctx = attention(h, s, w)
        assert np.allclose(alphas.data, [[1.0]])
        assert np.allclose(ctx.data, h.data)

    def test_identical_states_uniform_weights(self):
        rng = RNG(9)
        h = neural.constant(rng.standard_normal((1, 4)))
        states = [h, h, h, h]
        s = neural.constant(rng.standard_normal((1, 4)))
        w = neural.constant(rng.standard_normal((4, 4)))
        alphas, _ = attention(neural.concat(states, axis=0), s, w)
        assert np.allclose(alphas.data, 0.25)

    def test_matches_direct_formula(self):
        rng = RNG(10)
        hs_data = [rng.standard_normal(5) for _ in range(4)]
        s_data = rng.standard_normal(5)
        w_data = rng.standard_normal((5, 5))
        alphas, ctx = attention(
            neural.constant(np.stack(hs_data)),
            neural.constant(s_data[None, :]),
            neural.constant(w_data),
        )
        scores = np.array([h @ (w_data @ s_data) for h in hs_data])
        e = np.exp(scores - scores.max())
        expect_alpha = e / e.sum()
        expect_ctx = sum(a * h for a, h in zip(expect_alpha, hs_data))
        assert np.allclose(alphas.data[0], expect_alpha, atol=1e-12)
        assert np.allclose(ctx.data[0], expect_ctx, atol=1e-12)

    def test_weights_are_distribution(self):
        rng = RNG(11)
        states = [neural.constant(rng.standard_normal((1, 6))) for _ in range(5)]
        alphas, ctx = attention(
            neural.concat(states, axis=0), neural.constant(rng.standard_normal((1, 6))),
            neural.constant(rng.standard_normal((6, 6))),
        )
        assert abs(float(np.sum(alphas.data)) - 1.0) < 1e-12
        assert np.all(alphas.data > 0.0)
        # context lies in the componentwise convex hull of the states
        stacked = np.concatenate([s.data for s in states])
        assert np.all(ctx.data <= stacked.max(axis=0) + 1e-12)
        assert np.all(ctx.data >= stacked.min(axis=0) - 1e-12)

    def test_gradients_vs_finite_differences(self):
        rng = RNG(12)
        states = [tensor_param(f"h{i}", rng, (1, 4)) for i in range(4)]
        s = tensor_param("s", rng, (1, 4))
        w = tensor_param("w", rng, (4, 4))
        probe = neural.constant(rng.standard_normal((1, 4)))

        def loss():
            _, ctx = attention(neural.concat(states, axis=0), s, w)
            return vsum(neural.mul(ctx, probe))

        err = gradient_check(loss, states + [s, w])
        assert err < 1e-4

    def test_batched_query_gradients_and_rows(self):
        rng = RNG(19)
        memory = tensor_param("memory", rng, (5, 4))
        queries = tensor_param("queries", rng, (3, 4))
        w = tensor_param("w", rng, (4, 4))
        probe = neural.constant(rng.standard_normal((3, 4)))
        alpha_probe = neural.constant(rng.standard_normal((3, 5)))

        def loss():
            alphas, ctx = attention(memory, queries, w)
            return add(
                vsum(neural.mul(ctx, probe)), vsum(neural.mul(alphas, alpha_probe))
            )

        err = gradient_check(loss, [memory, queries, w])
        assert err < 1e-4
        alphas, ctx = attention(memory, queries, w)
        assert alphas.data.shape == (3, 5) and ctx.data.shape == (3, 4)
        for i in range(3):
            one_alpha, one_ctx = attention(memory, neural.constant(queries.data[i : i + 1]), w)
            assert np.allclose(alphas.data[i], one_alpha.data[0], atol=1e-12)
            assert np.allclose(ctx.data[i], one_ctx.data[0], atol=1e-12)

    def test_mask_hides_other_states(self):
        # row i of the query sees only its own block of the stacked memory,
        # exactly as if that block were the whole memory
        rng = RNG(20)
        memory = tensor_param("memory", rng, (5, 4))
        queries = tensor_param("queries", rng, (2, 4))
        w = tensor_param("w", rng, (4, 4))
        blocks = [(0, 3), (3, 5)]
        mask = np.full((2, 5), -np.inf)
        for i, (lo, hi) in enumerate(blocks):
            mask[i, lo:hi] = 0.0
        probe = neural.constant(rng.standard_normal((2, 4)))

        def loss():
            _, ctx = attention(memory, queries, w, neural.constant(mask))
            return vsum(neural.mul(ctx, probe))

        assert gradient_check(loss, [memory, queries, w]) < 1e-4
        alphas, ctx = attention(memory, queries, w, neural.constant(mask))
        for i, (lo, hi) in enumerate(blocks):
            own = neural.constant(memory.data[lo:hi])
            one_alpha, one_ctx = attention(own, neural.constant(queries.data[i : i + 1]), w)
            assert np.all(np.delete(alphas.data[i], np.s_[lo:hi]) == 0.0)
            assert np.allclose(alphas.data[i, lo:hi], one_alpha.data[0], atol=1e-12)
            assert np.allclose(ctx.data[i], one_ctx.data[0], atol=1e-12)

    def test_forward_bit_identical_to_reference(self):
        # numpy in the order of the unfused ops: two products, the mask, a
        # max-shifted softmax, the context product
        rng = RNG(21)
        memory, queries, w = (rng.standard_normal(s) for s in ((5, 4), (3, 4), (4, 4)))
        hidden = (rng.random((3, 5)) < 0.3) & (np.arange(5) > 0)  # state 0 stays visible
        mask = np.where(hidden, -np.inf, 0.0)
        alphas, ctx = attention(*(neural.constant(a) for a in (memory, queries, w, mask)))
        scores = (queries @ w.T) @ memory.T + mask
        e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
        expect = e / np.sum(e, axis=-1, keepdims=True)
        assert np.array_equal(alphas.data, expect)
        assert np.array_equal(ctx.data, expect @ memory)

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError):
            attention(neural.constant(np.zeros((0, 3))), neural.zeros((1, 3)), neural.constant(np.eye(3)))


class TestAttentionLstmSweep:
    """The decoder sweep against the per-step reference ``per_step_decoder``
    and against finite differences."""

    STEP_ROWS = np.array([[0, 2, 2], [5, 1, 2], [3, 3, 0], [4, 4, 4]])  # [steps, N], repeats in a step
    # the same table rows run after run: decoder row i's queries are column i
    ROWS, LENGTHS = STEP_ROWS.T.reshape(-1), [4, 4, 4]

    @staticmethod
    def _operands(rng):
        table = tensor_param("table", rng, (6, 3))
        memory = tensor_param("memory", rng, (5, 4))
        w = tensor_param("att.w", rng, (4, 4))
        cell = LstmParams.create("dec.lstm", 3 + 4, 4, rng)
        for b in (cell.b_i, cell.b_f, cell.b_o, cell.b_c):
            b.data = rng.standard_normal(b.data.shape)
        h0, c0 = tensor_param("enc.h", rng, (3, 4)), tensor_param("enc.c", rng, (3, 4))
        # each row sees its own memory states, as one description's
        mask = np.where(np.arange(5) < np.array([[2], [4], [5]]), 0.0, -np.inf)
        return table, memory, w, cell, (h0, c0), mask

    def test_bit_equal_to_per_step_ops(self):
        rng = RNG(60)
        table, memory, w, cell, state, mask = self._operands(rng)
        leaves = [table, memory, w, *state, *cell.parameters()]
        probe = neural.constant(rng.standard_normal((12, 8)))
        results = []
        for sweep in (neural.attention_lstm_sweep, per_step_decoder):
            neural.zero_grads(leaves)
            out = sweep(table, self.ROWS, self.LENGTHS, memory, mask, state, w, cell)
            vsum(neural.mul(out, probe)).backward()
            results.append((out.data, [t.grad for t in leaves]))
        (out, grads), (ref_out, ref_grads) = results
        assert out.shape == (12, 8)
        assert np.array_equal(out, ref_out)
        for t, g, r in zip(leaves, grads, ref_grads):
            assert g.tobytes() == r.tobytes(), t.name

    def test_gradients_vs_finite_differences(self):
        rng = RNG(61)
        table, memory, w, cell, state, mask = self._operands(rng)
        probe = neural.constant(rng.standard_normal((12, 8)))

        def loss():
            out = neural.attention_lstm_sweep(
                table, self.ROWS, self.LENGTHS, memory, mask, state, w, cell
            )
            return vsum(neural.mul(out, probe))

        err = gradient_check(loss, [table, memory, w, *state, *cell.parameters()])
        assert err < 1e-4

    def test_shape_mismatch(self):
        rng = RNG(62)
        table, memory, w, cell, (h0, c0), mask = self._operands(rng)
        with pytest.raises(ShapeError):  # a [steps, N] grid, not one row per query
            neural.attention_lstm_sweep(
                table, self.STEP_ROWS, self.LENGTHS, memory, mask, (h0, c0), w, cell
            )
        with pytest.raises(ShapeError):  # state rows do not match the runs
            neural.attention_lstm_sweep(
                table, self.STEP_ROWS[:, :2].T.reshape(-1), [4, 4], memory, mask, (h0, c0), w, cell
            )
        with pytest.raises(ShapeError):  # query and context do not fill the cell's input
            wide = LstmParams.create("wide", 3 + 5, 4, rng)
            neural.attention_lstm_sweep(
                table, self.ROWS, self.LENGTHS, memory, mask, (h0, c0), w, wide
            )


def test_sweeps_keep_no_step_arrays_without_grad(monkeypatch):
    """Under ``no_grad`` neither sweep keeps a step's gate values once it
    returns; with the tape on, the backward holds every step's."""
    kept = []
    forward = neural._cell_forward

    def recording(z, c_prev, p):
        h, c, gates = forward(z, c_prev, p)
        kept.append(weakref.ref(gates[0]))
        return h, c, gates

    monkeypatch.setattr(neural, "_cell_forward", recording)
    rng = RNG(63)
    table, memory, w, cell, state, mask = TestAttentionLstmSweep._operands(rng)
    runs_cell = LstmParams.create("runs", 3, 4, rng)
    seq = tensor_param("seq", rng, (7, 3))
    for grad in (True, False):
        kept.clear()
        with contextlib.nullcontext() if grad else neural.no_grad():
            outs = [
                neural.lstm_runs(seq, [4, 1, 2], runs_cell),
                neural.attention_lstm_sweep(
                    table, TestAttentionLstmSweep.ROWS, TestAttentionLstmSweep.LENGTHS,
                    memory, mask, state, w, cell,
                ),
            ]
        assert len(kept) == 4 + 4
        assert sum(ref() is not None for ref in kept) == (len(kept) if grad else 0)
        del outs


def test_sweeps_return_one_row_per_input_row_run_after_run():
    """Over runs of unsorted lengths, ``lstm_runs`` (h and c) and
    ``attention_lstm_sweep`` each return one row per input row, run after
    run: row j is bit for bit the per-step reference's row for the same run
    and step, and no row lies past a run's end."""
    rng = RNG(67)
    table, memory, w, cell, state, mask = TestAttentionLstmSweep._operands(rng)
    runs_cell = LstmParams.create("runs", 3, 4, rng)
    seq = tensor_param("seq", rng, (7, 3))
    rows = np.array([0, 5, 3, 4, 2, 1, 1])  # the decoder's query rows, run after run
    lengths = np.array([4, 1, 2])
    hs, cs = neural.lstm_runs(seq, lengths, runs_cell)
    out = neural.attention_lstm_sweep(table, rows, lengths, memory, mask, state, w, cell)
    assert hs.shape == cs.shape == (7, 4) and out.shape == (7, 8)
    ref_hs, ref_cs = masked_lstm_runs(seq, lengths, runs_cell)
    ref_out = per_step_decoder(table, rows, lengths, memory, mask, state, w, cell)
    for got, ref in ((hs, ref_hs), (cs, ref_cs), (out, ref_out)):
        assert got.data.tobytes() == ref.data.tobytes()
    # the same per-step ops, one step at a time: run i's step t is row starts[i] + t
    starts = np.cumsum(lengths) - lengths
    h = c = neural.zeros((3, 4))
    dh, dc = state
    seen = []
    for t in range(int(lengths.max())):
        at = starts + np.minimum(t, lengths - 1)
        h, c = lstm_cell(neural.take_rows(seq, at), h, c, runs_cell)
        _, context = attention(memory, dh, w, neural.constant(mask))
        dh, dc = lstm_cell(neural.concat([neural.take_rows(table, rows[at]), context]), dh, dc, cell)
        for i in np.flatnonzero(t < lengths):
            j = starts[i] + t
            seen.append(j)
            assert hs.data[j].tobytes() == h.data[i].tobytes(), (i, t)
            assert cs.data[j].tobytes() == c.data[i].tobytes(), (i, t)
            assert out.data[j, :4].tobytes() == dh.data[i].tobytes(), (i, t)
            assert out.data[j, 4:].tobytes() == context.data[i].tobytes(), (i, t)
    assert sorted(seen) == list(range(7))


class TestFreedTape:
    """``backward()`` frees the tape it has run: each node's closure (with
    the arrays it saved), its parent links and, off the leaves, its
    gradient."""

    def test_backward_frees_step_arrays(self, monkeypatch):
        kept = []
        forward = neural._cell_forward

        def recording(z, c_prev, p):
            h, c, gates = forward(z, c_prev, p)
            kept.append(weakref.ref(gates[0]))
            return h, c, gates

        monkeypatch.setattr(neural, "_cell_forward", recording)
        rng = RNG(64)
        table, memory, w, cell, state, mask = TestAttentionLstmSweep._operands(rng)
        runs_cell = LstmParams.create("runs", 3, 4, rng)
        seq = tensor_param("seq", rng, (7, 3))
        hs, cs = neural.lstm_runs(seq, [4, 1, 2], runs_cell)
        out = neural.attention_lstm_sweep(
            table, TestAttentionLstmSweep.ROWS, TestAttentionLstmSweep.LENGTHS,
            memory, mask, state, w, cell,
        )
        loss = add(add(vsum(hs), vsum(cs)), vsum(out))
        assert len(kept) == 4 + 4 and all(ref() is not None for ref in kept)
        loss.backward()
        assert [ref() for ref in kept] == [None] * len(kept)
        assert loss.grad is None and hs.grad is None and out.grad is None
        assert hs.parents == () and loss.parents == ()
        leaves = [seq, table, memory, w, *state, *runs_cell.parameters(), *cell.parameters()]
        assert all(t.grad is not None for t in leaves)

    def test_second_backward_raises(self):
        rng = RNG(65)
        x = tensor_param("x", rng, (2, 3))
        loss = vsum(neural.tanh(x))
        loss.backward()
        grad = x.grad.copy()
        with pytest.raises(RuntimeError):
            loss.backward()
        assert np.array_equal(x.grad, grad)

    def test_backward_through_freed_tensor_raises(self):
        rng = RNG(66)
        x = tensor_param("x", rng, (2, 3))
        shared = neural.tanh(x)
        vsum(shared).backward()
        with pytest.raises(RuntimeError):
            vsum(neural.relu(shared)).backward()


def xent(logits, target):
    """Loss (from ``.data``) and logit gradient (from ``backward()``) of
    ``softmax_xent``."""
    x = Parameter("logits", np.asarray(logits, dtype=np.float64)[None, :])
    loss = neural.softmax_xent(x, [target])
    loss.backward()
    return float(loss.data), x.grad[0]


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

    def test_weighted_rows_sum(self):
        # the loss of [N, V] rows is the weighted sum of the one-row losses,
        # and each row's gradient is its one-row gradient times its weight
        rng = RNG(21)
        logits = rng.standard_normal((3, 7))
        targets, weights = [4, 0, 4], [0.5, 0.25, 2.0]
        x = Parameter("logits", logits)
        loss = neural.softmax_xent(x, targets, weights)
        loss.backward()
        rows = [xent(logits[i], targets[i]) for i in range(3)]
        assert abs(float(loss.data) - sum(w * l for w, (l, _) in zip(weights, rows))) < 1e-12
        for i, (w, (_, grad)) in enumerate(zip(weights, rows)):
            assert np.allclose(x.grad[i], w * grad, rtol=0.0, atol=1e-15)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            neural.softmax_xent(neural.constant(np.zeros((1, 3))), [3])
        with pytest.raises(ValueError):
            neural.softmax_xent(neural.constant(np.zeros((1, 3))), [-1])
        with pytest.raises(ValueError):
            neural.softmax_xent(neural.constant(np.zeros((1, 0))), [0])
        with pytest.raises(ValueError):
            neural.softmax_xent(neural.constant(np.zeros((2, 3))), [0])


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
    """Inverted-dropout factors as ``ModelConfig.dropout`` draws them in training."""

    def test_p_zero_identity(self):
        assert np.array_equal(dropout_mask((4, 10), 0.0, RNG(15)), np.ones((4, 10)))

    def test_invalid_probability(self):
        # the bound lives in the config that supplies p
        for p in (1.0, -0.1):
            with pytest.raises(ValueError, match="dropout"):
                ModelConfig(dropout=p)

    def test_mean_preserved_on_large_sample(self):
        mask = dropout_mask(1_000_000, 0.1, RNG(16))
        assert set(np.unique(mask).tolist()) == {0.0, 1.0 / 0.9}
        assert abs(float(np.mean(3.0 * mask)) - 3.0) / 3.0 < 0.01

    def test_seeded_reproducibility(self):
        a = dropout_mask(100, 0.3, RNG(99))
        b = dropout_mask(100, 0.3, RNG(99))
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

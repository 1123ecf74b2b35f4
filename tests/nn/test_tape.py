"""Tape-level tests: adjoints under an explicit incoming gradient, and the
ownership rules of in-place gradient accumulation.

The chain-rule tests call ``backward`` with a random incoming gradient
and compare every parent's grad with a hand-written numpy adjoint.  The
aliasing tests pin the cases in-place accumulation must not break: one
array reaching several grads, read-only broadcast grads, in-place
clipping, and grads that span several ``backward`` calls.
"""

import numpy as np
import pytest

from repro.nn import Parameter, Tensor, clip_grad_norm


def leaf(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def incoming(rng, out):
    return rng.standard_normal(out.shape)


def add_at_adjoint(shape, index, g):
    """The scatter adjoint of ``x[index]``: ``np.add.at`` into zeros."""
    full = np.zeros(shape)
    np.add.at(full, index, g)
    return full


class TestChainRuleBroadcasting:
    # (y's shape, hand-written reduction of a (5, 4, 3) gradient onto it)
    CASES = [
        ((5, 4, 3), lambda g: g),
        ((3,), lambda g: g.sum(axis=(0, 1))),
        ((4, 1), lambda g: g.sum(axis=0).sum(axis=1, keepdims=True)),
        ((5, 1, 1), lambda g: g.sum(axis=(1, 2), keepdims=True)),
        ((), lambda g: g.sum()),
    ]

    @pytest.mark.parametrize("y_shape,reduce", CASES)
    def test_add(self, rng, y_shape, reduce):
        x, y = leaf(rng, (5, 4, 3)), leaf(rng, y_shape)
        out = x + y
        g = incoming(rng, out)
        out.backward(g)
        assert np.array_equal(x.grad, g)
        assert np.allclose(y.grad, reduce(g), rtol=1e-12, atol=1e-12)
        assert y.grad.shape == y_shape

    @pytest.mark.parametrize("y_shape,reduce", CASES)
    def test_mul(self, rng, y_shape, reduce):
        x, y = leaf(rng, (5, 4, 3)), leaf(rng, y_shape)
        out = x * y
        g = incoming(rng, out)
        out.backward(g)
        assert np.array_equal(x.grad, g * y.data)
        assert np.allclose(y.grad, reduce(g * x.data), rtol=1e-12,
                           atol=1e-12)

    def test_batched_matmul(self, rng):
        a, b = leaf(rng, (5, 6, 4)), leaf(rng, (4, 3))
        out = a @ b
        g = incoming(rng, out)
        out.backward(g)
        assert np.allclose(a.grad, g @ b.data.T, rtol=1e-12)
        assert np.allclose(b.grad, np.einsum("bik,bij->kj", a.data, g),
                           rtol=1e-12)

    def test_vector_matrix_matmul(self, rng):
        a, b = leaf(rng, (4,)), leaf(rng, (4, 3))
        out = a @ b
        g = incoming(rng, out)
        out.backward(g)
        assert np.allclose(a.grad, b.data @ g, rtol=1e-12)
        assert np.allclose(b.grad, np.outer(a.data, g), rtol=1e-12)

    def test_matrix_vector_matmul(self, rng):
        a, b = leaf(rng, (5, 4)), leaf(rng, (4,))
        out = a @ b
        g = incoming(rng, out)
        out.backward(g)
        assert np.allclose(a.grad, np.outer(g, b.data), rtol=1e-12)
        assert np.allclose(b.grad, a.data.T @ g, rtol=1e-12)


class TestChainRuleBasicSlices:
    INDICES = [
        np.s_[1:4],
        np.s_[1:4, ::2],
        np.s_[2],
        np.s_[np.int64(2)],
        np.s_[..., 3],
        np.s_[None, 1:3],
        np.s_[-1, 5],
        np.s_[::-2, 1:7:3],
    ]

    @pytest.mark.parametrize("index", INDICES)
    def test_region_adjoint_matches_add_at(self, rng, index):
        x = leaf(rng, (6, 8))
        out = x[index]
        g = incoming(rng, out)
        out.backward(g)
        assert np.array_equal(x.grad, add_at_adjoint(x.shape, index, g))

    def test_overlapping_slices_accumulate(self, rng):
        x = leaf(rng, (6, 8))
        a, b = x[0:4], x[2:6]
        ga, gb = rng.standard_normal(a.shape), rng.standard_normal(b.shape)
        ((a * Tensor(ga)).sum() + (b * Tensor(gb)).sum()).backward()
        expected = add_at_adjoint(x.shape, np.s_[0:4], ga)
        expected += add_at_adjoint(x.shape, np.s_[2:6], gb)
        assert np.allclose(x.grad, expected, rtol=1e-12, atol=0)

    def test_lstm_gate_slices_into_a_non_leaf(self, rng):
        """The four gate slices of one (N, 4h) pre-activation — a non-leaf,
        so the regions land in a buffer the tape allocates — against the
        ``np.add.at`` adjoint, bit for bit."""
        n, h = 7, 5
        x, w = leaf(rng, (n, 3)), leaf(rng, (3, 4 * h))
        gates = x @ w
        slices = [np.s_[:, k * h:(k + 1) * h] for k in range(4)]
        acts = [gates[slices[0]].sigmoid(), gates[slices[1]].sigmoid(),
                gates[slices[2]].tanh(), gates[slices[3]].sigmoid()]
        weights = [rng.standard_normal((n, h)) for _ in range(4)]
        loss = None
        for act, weight in zip(acts, weights):
            term = (act * Tensor(weight)).sum()
            loss = term if loss is None else loss + term
        loss.backward()

        # Each gate's adjoint in the tape's own evaluation order.
        adjoints = [weight * a.data * (1.0 - a.data)
                    for weight, a in zip(weights, acts)]
        adjoints[2] = weights[2] * (1.0 - acts[2].data ** 2)
        reference = np.zeros((n, 4 * h))
        for index, adjoint in zip(slices, adjoints):
            np.add.at(reference, index, adjoint)
        assert np.array_equal(w.grad, x.data.T @ reference)
        assert np.array_equal(x.grad, reference @ w.data.T)

    def test_advanced_index_keeps_scatter(self, rng):
        x = leaf(rng, (6, 8))
        index = (np.array([0, 2, 0]), np.s_[1:3])
        out = x[index]
        g = incoming(rng, out)
        out.backward(g)
        assert np.array_equal(x.grad, add_at_adjoint(x.shape, index, g))

    def test_bool_index_is_not_basic(self, rng):
        x = leaf(rng, (3,))
        out = x[True]
        g = incoming(rng, out)
        out.backward(g)
        assert np.array_equal(x.grad, g[0])


class TestAliasing:
    def test_self_add_on_a_leaf(self, rng):
        x = leaf(rng, (4, 3))
        g = rng.standard_normal((4, 3))
        (x + x).backward(g)
        assert np.array_equal(x.grad, g + g)
        assert x.grad is not g

    def test_shared_incoming_grad_is_clipped_once_per_parameter(self, rng):
        a, b = Parameter(np.zeros(5)), Parameter(np.zeros(5))
        g = rng.standard_normal(5)
        seed = g.copy()
        (a + b).backward(g)
        norm = clip_grad_norm([a, b], max_norm=0.5)
        scale = 0.5 / norm
        assert norm == pytest.approx(np.sqrt(2.0 * (seed * seed).sum()))
        assert np.array_equal(a.grad, seed * scale)
        assert np.array_equal(b.grad, seed * scale)
        assert np.array_equal(g, seed)  # the caller's seed is untouched

    def test_read_only_sum_grad_reaching_a_parameter(self):
        p = Parameter(np.arange(12.0).reshape(3, 4))
        p.reshape(12).sum().backward()
        assert p.grad.flags.writeable
        clip_grad_norm([p], max_norm=1.0)
        assert np.allclose(p.grad, np.full((3, 4), 1.0 / np.sqrt(12.0)))

    @pytest.mark.parametrize("region_first", [True, False])
    def test_region_into_a_read_only_grad(self, rng, region_first):
        x = leaf(rng, (4, 3))
        h = x * 1.0
        whole, region = h.sum(), h[1:3].sum()
        (region + whole if region_first else whole + region).backward()
        expected = np.ones((4, 3))
        expected[1:3] += 1.0
        assert np.array_equal(x.grad, expected)

    def test_non_leaf_grads_are_freed(self, rng):
        x = leaf(rng, (4, 3))
        h = x * 2.0
        loss = (h * h).sum()
        loss.backward()
        assert h.grad is None and loss.grad is None
        assert np.allclose(x.grad, 8.0 * x.data)

    def test_non_leaf_reused_by_a_later_graph(self, rng):
        x = leaf(rng, (4, 3))
        h = x * 2.0
        h.sum().backward()
        (h * 3.0).sum().backward()
        assert np.array_equal(x.grad, np.full((4, 3), 2.0 + 6.0))

    def test_leaf_grads_accumulate_over_two_graphs(self, rng):
        x = leaf(rng, (4, 3))
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        (x * Tensor(a)).sum().backward()
        (x * Tensor(b)).sum().backward()
        assert np.array_equal(x.grad, a + b)

    def test_assigned_grad_is_borrowed_after_zero_grad(self):
        p = Parameter(np.zeros(3))
        (p * 1.0).sum().backward()
        p.zero_grad()
        external = np.full(3, 5.0)
        p.grad = external
        (p * 1.0).sum().backward()
        assert np.array_equal(p.grad, np.full(3, 6.0))
        assert np.array_equal(external, np.full(3, 5.0))

    def test_max_ties_split_under_float32(self):
        from repro.nn.policy import ExecutionPolicy, use_policy

        with use_policy(ExecutionPolicy(dtype="float32")):
            x = Tensor(np.array([[1.0, 3.0, 3.0]]), requires_grad=True)
            x.max(axis=1).sum().backward()
        assert x.grad.dtype == np.float32
        assert np.array_equal(x.grad, np.array([[0.0, 0.5, 0.5]], np.float32))

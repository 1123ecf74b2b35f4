"""Tests for optimizers: convergence, weight decay, clipping, skip rules."""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, SGD, Tensor, clip_grad_norm


def quadratic_step(opt, p, target):
    loss = ((p - Tensor(target)) ** 2).sum()
    opt.zero_grad()
    loss.backward()
    opt.step()
    return loss.item()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            last = quadratic_step(opt, p, np.zeros(2))
        assert last < 1e-6

    def test_momentum_accelerates(self):
        losses = {}
        for momentum in (0.0, 0.9):
            p = Parameter(np.array([10.0]))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(30):
                losses[momentum] = quadratic_step(opt, p, np.zeros(1))
        assert losses[0.9] < losses[0.0]

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        loss = Tensor(0.0) * p  # zero gradient path
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert p.data[0] < 1.0

    def test_skips_frozen_params(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        (p * 2.0).backward()
        p.requires_grad = False
        opt.step()
        assert p.data[0] == 1.0

    def test_skips_gradless_params(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()  # no grad -> no change, no crash
        assert p.data[0] == 1.0

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0, 2.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(200):
            last = quadratic_step(opt, p, np.array([1.0, 1.0, 1.0]))
        assert last < 1e-6
        assert np.allclose(p.data, 1.0, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # Bias correction makes the first Adam step ~lr regardless of grad scale.
        p = Parameter(np.array([100.0]))
        opt = Adam([p], lr=0.5)
        quadratic_step(opt, p, np.zeros(1))
        assert abs((100.0 - p.data[0]) - 0.5) < 1e-6

    def test_decoupled_weight_decay(self):
        p = Parameter(np.array([2.0]))
        opt = Adam([p], lr=0.1, weight_decay=0.1)
        (p * Tensor(0.0)).backward()
        opt.step()
        assert p.data[0] < 2.0

    def test_state_tracks_multiple_params(self):
        a, b = Parameter(np.array([1.0])), Parameter(np.array([2.0]))
        opt = Adam([a, b], lr=0.1)
        loss = (a * a).sum() + (b * b).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert a.data[0] < 1.0 and b.data[0] < 2.0


class ReferenceAdam:
    """Adam as a per-parameter loop with one moment pair per parameter."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.params, self.lr, self.eps = params, lr, eps
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1, bias2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None or not p.requires_grad:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update


class TestFlatAdamMatchesReferenceLoop:
    SHAPES = [(3, 4), (), (5,), (2, 3, 2), (1,)]

    def run_both(self, live_schedule, weight_decay=0.0, frozen=()):
        rng = np.random.default_rng(7)
        init = [rng.standard_normal(shape) for shape in self.SHAPES]
        flat = [Parameter(x.copy()) for x in init]
        loop = [Parameter(x.copy()) for x in init]
        for i in frozen:
            flat[i].requires_grad = loop[i].requires_grad = False
        opt = Adam(flat, lr=0.05, weight_decay=weight_decay)
        ref = ReferenceAdam(loop, lr=0.05, weight_decay=weight_decay)
        for live in live_schedule:
            for i, shape in enumerate(self.SHAPES):
                g = rng.standard_normal(shape) if i in live else None
                flat[i].grad = None if g is None else g.copy()
                loop[i].grad = g
            opt.step()
            ref.step()
        return opt, ref, flat, loop

    def assert_same(self, opt, ref, flat, loop):
        for a, b in zip(flat, loop):
            assert np.array_equal(a.data, b.data)
        m = np.concatenate([x.ravel() for x in ref.m])
        v = np.concatenate([x.ravel() for x in ref.v])
        assert np.array_equal(opt._m, m) and np.array_equal(opt._v, v)

    def test_all_parameters_live(self):
        everyone = set(range(len(self.SHAPES)))
        self.assert_same(*self.run_both([everyone] * 6))

    def test_partial_live_sets_leave_moments_untouched(self):
        schedule = [{0, 2}, {1, 3, 4}, set(), {0, 1, 2, 3, 4}, {4}, {0, 3}]
        self.assert_same(*self.run_both(schedule))

    def test_weight_decay(self):
        schedule = [{0, 1, 2, 3, 4}, {0, 2, 4}, {1, 3}] * 2
        self.assert_same(*self.run_both(schedule, weight_decay=0.01))

    def test_frozen_parameter_with_a_grad_is_skipped(self):
        everyone = set(range(len(self.SHAPES)))
        opt, ref, flat, loop = self.run_both([everyone] * 3, frozen=(1,))
        self.assert_same(opt, ref, flat, loop)
        assert opt._m[12] == 0.0  # the frozen scalar's moment


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        norm = clip_grad_norm([p], max_norm=10.0)
        assert abs(norm - 0.5) < 1e-12
        assert p.grad[0] == 0.5

    def test_clips_to_max_norm(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])  # norm 5
        clip_grad_norm([p], max_norm=1.0)
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-9

    def test_handles_missing_grads(self):
        p = Parameter(np.zeros(2))
        assert clip_grad_norm([p], 1.0) == 0.0

    def test_global_norm_across_params(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        norm = clip_grad_norm([a, b], max_norm=5.0)
        assert abs(norm - 5.0) < 1e-9

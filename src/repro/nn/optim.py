"""Optimizers: SGD and Adam with decoupled weight decay and grad clipping.

The paper fine-tunes with Adam at learning rate 1e-3 (Sec. IV-A4); the
bi-level search additionally keeps a second Adam instance for the controller
parameters ``alpha`` (Sec. III-C).
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: list[Parameter], lr: float):
        self.params = [p for p in params]
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params, lr: float = 1e-2, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None or not p.requires_grad:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction and decoupled weight decay.

    The moments are one flat buffer each.  A step runs its elementwise
    math once over the concatenated grads of the live parameters (those
    holding a grad), then subtracts each parameter's slice of the update;
    parameters without a grad keep their moments untouched.
    """

    def __init__(self, params, lr: float = 1e-3, betas: tuple = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._sizes = np.array([p.data.size for p in self.params])
        dtype = np.result_type(*(p.data.dtype for p in self.params))
        self._m = np.zeros(int(self._sizes.sum()), dtype=dtype)
        self._v = np.zeros_like(self._m)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        live = [p.grad is not None and p.requires_grad for p in self.params]
        params = [p for p, on in zip(self.params, live) if on]
        if not params:
            return
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        g = np.concatenate([p.grad for p in params], axis=None)
        partial = len(params) < len(self.params)
        if partial:
            mask = np.repeat(live, self._sizes)
            m, v = self._m[mask], self._v[mask]
        else:
            m, v = self._m, self._v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        if partial:
            self._m[mask] = m
            self._v[mask] = v
        update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        if self.weight_decay:
            update += self.weight_decay * np.concatenate(
                [p.data for p in params], axis=None)
        update *= self.lr
        offset = 0
        for p in params:
            size = p.data.size
            p.data -= update[offset:offset + size].reshape(p.data.shape)
            offset += size


def clip_grad_norm(params, max_norm: float) -> float:
    """Clip the global L2 norm of gradients in-place; returns the pre-clip norm."""
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm

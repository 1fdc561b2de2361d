"""Plain SGD and Adam over parameter vectors.

The recurrent layers train with SGD and the fully-connected head with Adam,
each on its slice (`recurrent`, `head`) of a member's `flat` vector and of
its gradient. Both update elementwise in the parameters' dtype, so a slice
takes the bits its arrays would alone, and Adam keeps its moments in it.
"""

from __future__ import annotations

import numpy as np


class Sgd:
    def __init__(self, lr: float):
        self.lr = float(lr)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        params -= self.lr * grads


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, lr: float):
        self.lr = float(lr)
        self.t = 0
        self.m = self.v = None  # the moments, made by the first step

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        # in place: the same products and sums, in the same order
        m, v = self.m, self.v
        m *= BETA1
        m += (1 - BETA1) * grads
        v *= BETA2
        v += (1 - BETA2) * grads * grads
        m_hat = m / (1 - BETA1 ** self.t)
        v_hat = v / (1 - BETA2 ** self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

"""Plain SGD and Adam over named parameter dicts.

The recurrent layers train with SGD and the fully-connected head with Adam,
so each optimizer instance owns a disjoint subset of parameter names.
"""

from __future__ import annotations

import numpy as np


class Sgd:
    def __init__(self, lr: float):
        self.lr = float(lr)

    def step(self, params: dict, grads: dict, keys) -> None:
        for key in keys:
            params[key] -= self.lr * grads[key]


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict, keys) -> None:
        self.t += 1
        for key in keys:
            g = grads[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(g)
                self.v[key] = np.zeros_like(g)
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * g * g
            m_hat = self.m[key] / (1 - self.beta1 ** self.t)
            v_hat = self.v[key] / (1 - self.beta2 ** self.t)
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

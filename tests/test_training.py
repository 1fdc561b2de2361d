import io
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from necplus.errors import DimensionError, TrainingFailureError
from necplus.neural import (NetStack, TrainConfig, TrainState, network, train,
                            train_epochs)
from necplus.neural.optimizers import BETA1, BETA2, EPS, Adam, Sgd
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
                         horizon=6, seed=20).astype(np.float64)
        rng = np.random.default_rng(21)
        for value in model.params.values():  # biases away from zero too
            value += rng.normal(scale=0.3, size=value.shape)
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


@pytest.fixture
def built_buffers(monkeypatch):
    """A list that receives every StepBuffers and reverse part the kernels
    build, in order."""
    built = []

    class Recorded:
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    for name in ("StepBuffers", "_ReverseBuffers"):
        cls = getattr(network, name)
        monkeypatch.setattr(network, name, type(name, (Recorded, cls), {}))
    return built


def buffer_arrays(buffers):
    """Every array a StepBuffers or reverse part holds, views included."""
    found, stack = [], list(vars(buffers).values())
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return found


class TestBuffers:
    # 20 windows in batches of 8: two full batches and a partial one of 4
    # an epoch, each shape on its own buffers, reused over 3 epochs
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("head", ["normal", "classifier"])
    def test_reused_buffers_train_as_fresh_ones_bit_for_bit(
            self, monkeypatch, built_buffers, head, n_layers, dtype):
        samples = make_windows(20, 12, 3, 2, seed=50)
        val = make_windows(6, 12, 3, 2, seed=51)
        cfg = TrainConfig(batch_size=8, lr_recurrent=1e-2, lr_fc=1e-2,
                          max_epochs=3, early_stop_patience=3, seed=52)

        def run():
            model = NetStack(head, input_dim=2, width=5, n_layers=n_layers,
                             horizon=3, seed=53).astype(dtype)
            return train(model, samples, val, cfg)

        got, got_log = run()
        assert len(built_buffers) == 4  # two shapes, each with its reverse part
        fresh = NetStack.loss_and_grads
        monkeypatch.setattr(NetStack, "loss_and_grads",
                            lambda self, *args, buffers, **kwargs:
                            fresh(self, *args, **kwargs))
        want, want_log = run()
        # the run's two unused StepBuffers, then a pair for every batch
        assert len(built_buffers) == 4 + 2 + 2 * 3 * 3
        assert got_log == want_log
        for key, value in want.params.items():
            assert got.params[key].dtype == dtype
            assert got.params[key].tobytes() == value.tobytes(), key

    @pytest.mark.parametrize("n, shapes", [(24, 1), (20, 2)])
    def test_a_run_builds_buffers_once_per_batch_shape(self, built_buffers, n,
                                                        shapes):
        samples = make_windows(n, 6, 3, 2, seed=54)
        val = make_windows(4, 6, 3, 2, seed=55)
        cfg = TrainConfig(batch_size=8, max_epochs=4, early_stop_patience=4,
                          seed=56)
        model = NetStack("extreme", input_dim=2, width=4, n_layers=2,
                         horizon=3, seed=57)
        state = train_epochs(TrainState.start(model, cfg), samples, val)
        assert state.adam.t == 4 * -(-n // 8)
        step_buffers = [b for b in built_buffers
                        if isinstance(b, network.StepBuffers)]
        assert sorted(b.shape for b in step_buffers) == sorted(
            {(min(8, n - start), 6, 2) for start in range(0, n, 8)})
        assert len(built_buffers) == 2 * shapes
        # and each chunk's views once, however many batches walk it
        for reverse in built_buffers:
            if isinstance(reverse, network._ReverseBuffers):
                assert len(reverse.chunks) == len(reverse.starts)

    def test_buffers_of_another_shape_are_refused(self):
        model = NetStack("normal", input_dim=2, width=4, n_layers=2,
                         horizon=3, seed=58)
        x = np.random.default_rng(59).normal(size=(4, 6, 2))
        for buffers in (model.step_buffers(1, 6), model.step_buffers(4, 5),
                        model.astype(np.float64).step_buffers(4, 6)):
            with pytest.raises(DimensionError):
                model.loss_and_grads(x, np.zeros((4, 3)), np.zeros((4, 3), bool),
                                     buffers=buffers)


def copy_windows(windows):
    """An equal batch in new arrays, as a process that redraws it holds."""
    return Windows(input=windows.input.copy(), target=windows.target.copy(),
                   target_mask=windows.target_mask.copy(),
                   origins=windows.origins.copy())


class TestResume:
    # lr 0 never improves on epoch 0, so such a run stops after exactly
    # `patience` more epochs: before, at or after each split below
    @pytest.mark.parametrize("lr, patience", [(1e-2, 10), (0.0, 2)])
    @pytest.mark.parametrize("max_epochs", [1, 2, 3, 8])
    @pytest.mark.parametrize("by_train", [False, True], ids=["epochs", "train"])
    def test_pieces_equal_one_run(self, lr, patience, max_epochs, by_train):
        samples = make_windows(24, 6, 3, 2, seed=30)
        val = make_windows(6, 6, 3, 2, seed=31)
        cfg = TrainConfig(batch_size=8, lr_recurrent=lr, lr_fc=lr,
                          max_epochs=max_epochs, early_stop_patience=patience,
                          seed=32)

        def model():
            return NetStack("classifier", input_dim=2, width=4, n_layers=2,
                            horizon=3, seed=33)

        want, want_log = train(model(), samples, val, cfg)
        for split in range(max_epochs + 1):
            head = train_epochs(TrainState.start(model(), cfg), samples, val, split)
            assert head.epoch == min(split, len(want_log.val_losses))
            # handed on through a pipe, to go on from redrawn samples
            state = pickle.loads(pickle.dumps(head))
            args = copy_windows(samples), copy_windows(val)
            if by_train:  # the call a whole run makes, on from the state
                got_model, got_log = train(state.model, *args, state.cfg, state)
            else:
                got_model, got_log = train_epochs(state, *args).model, state.log
            assert state.done
            assert got_model is state.model
            assert got_log == want_log, split
            assert list(got_model.params) == list(want.params)
            for key, value in want.params.items():
                assert got_model.params[key].tobytes() == value.tobytes(), (split, key)

    def test_state_pickles_without_the_windows(self, built_buffers):
        samples = make_windows(24, 6, 3, 2, seed=34)
        val = make_windows(6, 6, 3, 2, seed=35)
        cfg = TrainConfig(batch_size=8, max_epochs=4, seed=36)
        model = NetStack("normal", input_dim=2, width=4, n_layers=1,
                         horizon=3, seed=37)
        state = train_epochs(TrainState.start(model, cfg), samples, val, 2)
        # nor the kernels' buffers, which live as long as the training call
        assert len(built_buffers) == 2
        windows = {id(w) for w in (samples, val, *built_buffers)}
        arrays = {id(a) for w in (samples, val) for a in (
            w.input, w.target, w.target_mask, w.origins)}
        arrays |= {id(a) for b in built_buffers for a in buffer_arrays(b)}

        class Checked(pickle.Pickler):
            def reducer_override(self, obj):
                assert id(obj) not in windows | arrays, type(obj)
                return NotImplemented

        Checked(io.BytesIO()).dump(state)
        assert state.adam.t == 2 * 3  # three batches an epoch
        assert state.adam.m.shape == state.adam.v.shape == model.flat[model.head].shape

    def test_a_done_run_trains_no_further(self):
        samples = make_windows(16, 6, 3, 2, seed=38)
        val = make_windows(4, 6, 3, 2, seed=39)
        cfg = TrainConfig(batch_size=8, max_epochs=2, seed=40)
        model = NetStack("normal", input_dim=2, width=4, n_layers=1,
                         horizon=3, seed=41)
        state = train_epochs(TrainState.start(model, cfg), samples, val)
        params = {k: v.copy() for k, v in state.model.params.items()}
        t = state.adam.t
        assert train_epochs(state, samples, val, 5) is state
        assert state.epoch == 2 and state.adam.t == t
        for key, value in params.items():
            assert state.model.params[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_equals_the_textbook_step(dtype):
    # the moments update in place: the same products and sums, in the same
    # order, as forming new moment arrays, so the same bits
    rng = np.random.default_rng(42)
    params = rng.normal(size=30).astype(dtype)
    want = params.copy()
    m, v = np.zeros_like(want), np.zeros_like(want)
    adam = Adam(5e-4)
    for t in range(1, 301):
        # blocks of a (6, 4) weight's and a (6,) bias's gradient, each of
        # its own scale
        grads = np.concatenate([
            rng.normal(scale=10.0 ** rng.integers(-6, 2), size=n).astype(dtype)
            for n in (24, 6)])
        adam.step(params, grads)
        m = BETA1 * m + (1 - BETA1) * grads
        v = BETA2 * v + (1 - BETA2) * grads * grads
        m_hat = m / (1 - BETA1 ** t)
        v_hat = v / (1 - BETA2 ** t)
        want -= 5e-4 * m_hat / (np.sqrt(v_hat) + EPS)
        assert params.dtype == dtype
        assert params.tobytes() == want.tobytes(), t
        assert adam.m.tobytes() == m.tobytes(), t
        assert adam.v.tobytes() == v.tobytes(), t


def per_key_sgd(lr, params, grads, keys):
    """`Sgd.step` over a dict of parameter arrays, one key at a time, as it
    was before the parameters became one vector: frozen here."""
    for key in keys:
        params[key] -= lr * grads[key]


class PerKeyAdam:
    """`Adam` over a dict of parameter arrays, one key at a time with a
    moment array each, as it was before the parameters became one vector:
    frozen here."""

    def __init__(self, lr):
        self.lr, self.t, self.m, self.v = float(lr), 0, {}, {}

    def step(self, params, grads, keys):
        self.t += 1
        for key in keys:
            g = grads[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(params[key])
                self.v[key] = np.zeros_like(params[key])
            m, v = self.m[key], self.v[key]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            m_hat = m / (1 - BETA1 ** self.t)
            v_hat = v / (1 - BETA2 ** self.t)
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("horizon", [6, 72], ids=["desk", "paper"])
def test_vector_optimizers_equal_the_per_key_loops(dtype, horizon):
    # N at desk and paper shapes (W = 16, two layers): 232 and 11 736 head
    # parameters in 6 arrays, 3 328 recurrent ones in 6 more. Each step
    # draws every array's gradient at its own scale
    model = NetStack("normal", input_dim=2, width=16, n_layers=2,
                     horizon=horizon, seed=60).astype(dtype)
    recurrent = [key for key in model.params if key.startswith("lstm")]
    head = [key for key in model.params if key.startswith("fc")]
    assert list(model.params) == recurrent + head
    per_key = {key: value.copy() for key, value in model.params.items()}
    sgd, adam, frozen_adam = Sgd(1e-3), Adam(5e-4), PerKeyAdam(5e-4)
    rng = np.random.default_rng(61)
    for _ in range(200):
        grad = np.concatenate([
            rng.normal(scale=10.0 ** rng.integers(-6, 2), size=value.size)
            for value in model.params.values()]).astype(dtype)
        grads = model.views(grad)
        sgd.step(model.flat[model.recurrent], grad[model.recurrent])
        adam.step(model.flat[model.head], grad[model.head])
        per_key_sgd(1e-3, per_key, grads, recurrent)
        frozen_adam.step(per_key, grads, head)
    for key, value in per_key.items():
        assert model.params[key].dtype == dtype
        assert model.params[key].tobytes() == value.tobytes(), key
    for moment, frozen in ((adam.m, frozen_adam.m), (adam.v, frozen_adam.v)):
        assert moment.dtype == dtype
        assert moment.tobytes() == b"".join(frozen[key].tobytes() for key in head)


class TestParameterVector:
    @pytest.mark.parametrize("head", ["normal", "classifier"])
    def test_params_are_read_only_views_of_flat(self, head):
        model = NetStack(head, input_dim=2, width=4, n_layers=2, horizon=3,
                         seed=62)
        assert model.flat.shape == (sum(
            math.prod(shape) for shape in model.param_shapes().values()),)
        assert [(key, value.shape) for key, value in model.params.items()] == list(
            model.param_shapes().items())
        assert b"".join(value.tobytes() for value in model.params.values()) == (
            model.flat.tobytes())
        for value in model.params.values():
            assert np.shares_memory(value, model.flat)
        with pytest.raises(TypeError):
            model.params["fc0_b"] = np.zeros(3, np.float32)
        # the recurrent slice is the LSTM layers', the head's the rest
        index = model.views(np.arange(model.flat.size))
        assert model.recurrent.start == 0 and model.head.stop == model.flat.size
        assert model.recurrent.stop == model.head.start == index["fc0_w"].flat[0]

    @pytest.mark.parametrize("via", ["NetStack", "TrainState"])
    def test_a_pickled_stack_keeps_its_views(self, via):
        model = NetStack("normal", input_dim=2, width=4, n_layers=2,
                         horizon=3, seed=63)
        samples = make_windows(16, 6, 3, 2, seed=64)
        if via == "TrainState":
            cfg = TrainConfig(batch_size=8, max_epochs=4, seed=65)
            state = train_epochs(TrainState.start(model, cfg), samples,
                                 samples[:4], 1)
            back = pickle.loads(pickle.dumps(state))
            assert back.best_params.tobytes() == state.best_params.tobytes()
            assert back.adam.m.tobytes() == state.adam.m.tobytes()
            back = back.model
        else:
            back = pickle.loads(pickle.dumps(model))
        assert back.flat.tobytes() == model.flat.tobytes()
        for key, value in back.params.items():
            assert np.shares_memory(value, back.flat), key
        with pytest.raises(TypeError):
            back.params["lstm0_b"] = np.zeros(16, np.float32)
        args = samples.input, samples.target, samples.target_mask
        loss, grad = back.loss_and_grads(*args)
        want_loss, want_grad = model.loss_and_grads(*args)
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes()
        back.params["lstm0_b"][...] += 0.5
        changed = back.views(back.flat != model.flat)
        for key, value in changed.items():
            assert value.all() if key == "lstm0_b" else not value.any(), key
        new_loss, new_grad = back.loss_and_grads(*args)
        assert new_loss != loss
        assert new_grad.tobytes() != grad.tobytes()

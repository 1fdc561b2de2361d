import warnings

import numpy as np
import pytest

from necplus.errors import CheckpointError, DimensionError
from necplus.neural import (
    NetStack,
    gradient_check,
    load_checkpoint,
    lstm_backward,
    lstm_forward,
    network,
    save_checkpoint,
)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# -- reference: the per-step LSTM the vectorized kernel must reproduce -------


def _reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_lstm_forward(w_x, w_h, b, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != w_x.shape[1]:
        raise DimensionError(
            f"input shape {x.shape} incompatible with weight shape {w_x.shape}")
    batch, steps, _ = x.shape
    width = w_h.shape[1]
    h = np.zeros((batch, width))
    c = np.zeros((batch, width))
    hidden = np.empty((batch, steps, width))
    cache = []
    for t in range(steps):
        z = x[:, t] @ w_x.T + h @ w_h.T + b
        gi = _reference_sigmoid(z[:, :width])
        gf = _reference_sigmoid(z[:, width:2 * width])
        gg = np.tanh(z[:, 2 * width:3 * width])
        go = _reference_sigmoid(z[:, 3 * width:])
        c_new = gf * c + gi * gg
        tc = np.tanh(c_new)
        h = go * tc
        hidden[:, t] = h
        cache.append((gi, gf, gg, go, c, tc))
        c = c_new
    return hidden, cache


def reference_lstm_backward(w_x, w_h, x, hidden, cache, d_hidden):
    batch, steps, _ = x.shape
    width = w_h.shape[1]
    d_wx = np.zeros_like(w_x)
    d_wh = np.zeros_like(w_h)
    d_b = np.zeros(4 * width)
    d_x = np.zeros_like(x)
    dh_next = np.zeros((batch, width))
    dc_next = np.zeros((batch, width))
    for t in reversed(range(steps)):
        gi, gf, gg, go, c_prev, tc = cache[t]
        dh = d_hidden[:, t] + dh_next
        do = dh * tc
        dc = dh * go * (1.0 - tc * tc) + dc_next
        di = dc * gg
        df = dc * c_prev
        dg = dc * gi
        dc_next = dc * gf
        dz = np.concatenate([
            di * gi * (1.0 - gi),
            df * gf * (1.0 - gf),
            dg * (1.0 - gg * gg),
            do * go * (1.0 - go),
        ], axis=1)
        h_prev = hidden[:, t - 1] if t > 0 else np.zeros((batch, width))
        d_wx += dz.T @ x[:, t]
        d_wh += dz.T @ h_prev
        d_b += dz.sum(axis=0)
        d_x[:, t] = dz @ w_x
        dh_next = dz @ w_h
    return d_wx, d_wh, d_b, d_x


def _layer_inputs(steps=48, batch=5, d_in=3, width=6, seed=20):
    """Weights at the NetStack init scale, a nonzero bias, random inputs."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(width)
    w_x = rng.uniform(-bound, bound, size=(4 * width, d_in))
    w_h = rng.uniform(-bound, bound, size=(4 * width, width))
    b = rng.uniform(-bound, bound, size=4 * width)
    x = rng.normal(size=(batch, steps, d_in))
    d_hidden = rng.normal(size=(batch, steps, width))
    return w_x, w_h, b, x, d_hidden


class TestAgainstReference:
    def test_single_layer(self):
        w_x, w_h, b, x, d_hidden = _layer_inputs()
        hidden, cache = lstm_forward(w_x, w_h, b, x)
        ref_hidden, ref_cache = reference_lstm_forward(w_x, w_h, b, x)
        np.testing.assert_allclose(hidden, ref_hidden, rtol=1e-12)
        grads = lstm_backward(w_x, w_h, x, hidden, cache, d_hidden)
        ref_grads = reference_lstm_backward(w_x, w_h, x, ref_hidden, ref_cache,
                                            d_hidden)
        for name, got, want in zip(("d_wx", "d_wh", "d_b", "d_x"), grads,
                                   ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=name)

    @pytest.mark.parametrize("head,loss_kind", [
        ("normal", "masked_mse"), ("classifier", "classifier")])
    def test_stack(self, head, loss_kind, monkeypatch):
        rng = np.random.default_rng(21)
        model = NetStack(head, input_dim=3, width=6, n_layers=2, horizon=4,
                         seed=22)
        x = rng.normal(size=(5, 48, 3))
        target = rng.normal(size=(5, 4))
        mask = rng.uniform(size=(5, 4)) < 0.5
        out = model.forward(x)
        loss, grads = model.loss_and_grads(x, target, mask, loss_kind)
        monkeypatch.setattr(network, "lstm_forward", reference_lstm_forward)
        monkeypatch.setattr(network, "lstm_backward", reference_lstm_backward)
        np.testing.assert_allclose(out, model.forward(x), rtol=1e-12)
        ref_loss, ref_grads = model.loss_and_grads(x, target, mask, loss_kind)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for key in grads:
            np.testing.assert_allclose(grads[key], ref_grads[key], rtol=1e-12,
                                       err_msg=key)


class TestLstmForward:
    def test_zero_weights_zero_hidden(self):
        w_x = np.zeros((8, 3))
        w_h = np.zeros((8, 2))
        b = np.zeros(8)
        hidden, _ = lstm_forward(w_x, w_h, b, np.ones((4, 5, 3)))
        np.testing.assert_array_equal(hidden, np.zeros((4, 5, 2)))

    def test_single_cell_hand_computed(self):
        # scalar cell, one step: gate order is input, forget, candidate, output
        w_x = np.array([[0.5], [0.25], [1.0], [-0.5]])
        w_h = np.zeros((4, 1))
        b = np.array([0.1, -0.1, 0.2, 0.3])
        x = np.array([[[2.0]]])
        hidden, _ = lstm_forward(w_x, w_h, b, x)
        gi = sigmoid(0.5 * 2 + 0.1)
        gf = sigmoid(0.25 * 2 - 0.1)
        gg = np.tanh(1.0 * 2 + 0.2)
        go = sigmoid(-0.5 * 2 + 0.3)
        c = gf * 0.0 + gi * gg
        expected = go * np.tanh(c)
        assert hidden[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(0)
        w_x = rng.normal(size=(12, 2))
        w_h = rng.normal(size=(12, 3))
        b = rng.normal(size=12)
        x = rng.normal(size=(5, 7, 2))
        hidden, _ = lstm_forward(w_x, w_h, b, x)
        perm = np.array([3, 1, 4, 0, 2])
        hidden_perm, _ = lstm_forward(w_x, w_h, b, x[perm])
        np.testing.assert_array_equal(hidden[perm], hidden_perm)

    def test_saturated_gates_are_exact(self):
        # pre-activations of +-1e3 on every gate, alternating per unit
        width = 4
        sign = np.tile([1.0, -1.0], 2 * width)
        w_x = 1e3 * sign[:, None]
        w_h = np.zeros((4 * width, width))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hidden, (gates, _, _) = lstm_forward(w_x, w_h, np.zeros(4 * width),
                                                 np.ones((2, 3, 1)))
        sigmoid_cols = np.r_[0:2 * width, 3 * width:4 * width]
        expected = np.where(sign > 0, 1.0, 0.0)[sigmoid_cols]
        np.testing.assert_array_equal(
            gates[..., sigmoid_cols], np.broadcast_to(expected, (3, 2, 3 * width)))
        # open input and forget gates with g = 1 count the steps in the cell
        cells = np.tanh(np.arange(1.0, 4.0))[None, :, None]
        np.testing.assert_array_equal(hidden[..., 0::2],
                                      np.broadcast_to(cells, (2, 3, width // 2)))
        np.testing.assert_array_equal(hidden[..., 1::2], 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            lstm_forward(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8),
                         np.ones((1, 4, 5)))


class TestNetStackForward:
    def test_classifier_outputs_in_unit_interval(self):
        model = NetStack("classifier", input_dim=2, width=6, n_layers=2,
                         horizon=4, seed=0)
        out = model.forward(np.random.default_rng(1).normal(size=(3, 10, 2)))
        assert out.shape == (3, 4)
        assert np.all((out > 0) & (out < 1))

    def test_zeroed_fc_gives_constant_bias(self):
        model = NetStack("normal", input_dim=2, width=6, n_layers=1,
                         horizon=3, seed=0)
        last = len(model.fc_sizes) - 2
        model.params[f"fc{last}_w"][:] = 0.0
        model.params[f"fc{last}_b"][:] = 7.5
        out = model.forward(np.random.default_rng(2).normal(size=(8, 2)))
        np.testing.assert_allclose(out, np.full(3, 7.5))

    def test_forward_deterministic(self):
        model = NetStack("extreme", input_dim=3, width=5, n_layers=2,
                         horizon=4, seed=3)
        x = np.random.default_rng(4).normal(size=(6, 3))
        np.testing.assert_array_equal(model.forward(x), model.forward(x))

    def test_malformed_window_rejected(self):
        model = NetStack("normal", input_dim=3, width=4, n_layers=1,
                         horizon=2, seed=0)
        with pytest.raises(DimensionError):
            model.forward(np.ones((5, 4)))


class TestBackward:
    def test_all_false_mask_zero_gradients(self):
        model = NetStack("normal", input_dim=2, width=4, n_layers=2,
                         horizon=3, seed=5)
        x = np.random.default_rng(6).normal(size=(2, 8, 2))
        target = np.zeros((2, 3))
        mask = np.zeros((2, 3), dtype=bool)
        _, grads = model.loss_and_grads(x, target, mask, "masked_mse")
        for key, grad in grads.items():
            np.testing.assert_array_equal(grad, np.zeros_like(grad),
                                          err_msg=key)

    def test_backward_leaves_cache_unchanged(self):
        model = NetStack("classifier", input_dim=2, width=4, n_layers=2,
                         horizon=3, seed=15)
        x = np.random.default_rng(16).normal(size=(3, 7, 2))
        out, cache = model.forward(x, with_cache=True)

        def arrays(cache):
            found = [cache["x"], *cache["fc"]]
            for hidden, layer_cache in cache["lstm"]:
                found += [hidden, *layer_cache]
            return found

        before = [a.copy() for a in arrays(cache)]
        model.backward(cache, np.ones_like(out))
        for old, new in zip(before, arrays(cache), strict=True):
            np.testing.assert_array_equal(new, old)

    def test_gradient_linearity(self):
        model = NetStack("normal", input_dim=2, width=4, n_layers=1,
                         horizon=3, seed=7)
        x = np.random.default_rng(8).normal(size=(2, 6, 2))
        out, cache = model.forward(x, with_cache=True)
        d_out = np.random.default_rng(9).normal(size=out.shape)
        grads = model.backward(cache, d_out)
        doubled = model.backward(cache, 2.0 * d_out)
        for key in grads:
            np.testing.assert_allclose(doubled[key], 2.0 * grads[key],
                                       rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("head,loss_kind,alpha,beta", [
    ("normal", "masked_mse", 1.0, 1.0),
    ("extreme", "masked_mse", 1.0, 1.0),
    ("classifier", "classifier", 1.0, 1.0),
    ("classifier", "classifier", 2.0, 0.5),
    ("classifier", "classifier", 3.0, 0.45),
])
def test_gradient_check(head, loss_kind, alpha, beta):
    rng = np.random.default_rng(10)
    model = NetStack(head, input_dim=3, width=6, n_layers=2, horizon=4,
                     seed=11)
    x = rng.normal(size=(2, 9, 3))
    target = rng.normal(size=(2, 4))
    mask = rng.uniform(size=(2, 4)) < 0.5
    mask[0, 0] = True  # keep at least one active position
    # eps=1e-4 keeps finite-difference roundoff below truncation for the
    # near-zero gradients of the first-layer recurrent weights
    error = gradient_check(model, x, target, mask, loss_kind,
                           alpha=alpha, beta=beta, eps=1e-4)
    assert error < 1e-4


def test_gradient_check_zero_loss_configuration():
    model = NetStack("normal", input_dim=2, width=4, n_layers=1, horizon=3,
                     seed=12)
    x = np.random.default_rng(13).normal(size=(1, 5, 2))
    mask = np.zeros((1, 3), dtype=bool)
    error = gradient_check(model, x, np.zeros((1, 3)), mask, "masked_mse")
    assert error == 0.0


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        model = NetStack("classifier", input_dim=4, width=8, n_layers=2,
                         horizon=5, seed=14)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, extra_meta={"config_hash": "abc"})
        back, meta = load_checkpoint(path)
        assert meta["extra"] == {"config_hash": "abc"}
        assert back.head_kind == model.head_kind
        assert back.fc_sizes == model.fc_sizes
        for key in model.params:
            np.testing.assert_array_equal(back.params[key], model.params[key])

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

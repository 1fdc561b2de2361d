import hashlib
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from necplus.errors import (CheckpointError, DimensionError, InvalidInputError,
                            NumericInstabilityError)
from necplus.neural import (
    Adam,
    NetStack,
    TrainConfig,
    classifier_loss,
    forward_members,
    load_checkpoint,
    lstm_backward,
    lstm_forward,
    masked_mse_loss,
    network,
    save_checkpoint,
    train,
    training,
)
from necplus.sampling import Windows

from gradcheck import gradient_check


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


def row_major_backward_steps(cache, d_top, depth, d_x=None):
    """`network._backward_steps` as it was before its gate slabs: tanh(c),
    dz and dc/dh formed on the column blocks of (chunk, B, 4LW) rows, and
    dh and dc flushed in two passes. Frozen here as the reference that the
    slab layout must equal bit for bit: both make the same GEMM calls and
    apply the same ufuncs to the same values."""
    states, gates, cells, w = (
        cache[k] for k in ("states", "gates", "cells", "w"))
    n_steps, batch, four_stacked = gates.shape
    stacked = four_stacked // 4
    top = slice(stacked - stacked // depth, stacked)
    first = n_steps - d_top.shape[1]
    w_h_t = w[:stacked].T
    gi, gf, gg, go = (gates[..., k * stacked:(k + 1) * stacked] for k in range(4))
    d_w = np.zeros_like(w)
    dh = np.zeros((batch, stacked), w.dtype)
    dc_next = np.zeros((batch, stacked), w.dtype)
    chunk = network.BACKWARD_CHUNK
    dz_rows = np.empty((min(chunk, n_steps), batch, four_stacked), w.dtype)
    tanh_rows = np.empty(dz_rows.shape[:2] + (stacked,), w.dtype)
    for lo in reversed(range(0, n_steps, chunk)):
        hi = min(lo + chunk, n_steps)
        tanh_c = np.tanh(cells[lo + 1:hi + 1], out=tanh_rows[:hi - lo])
        dz = np.subtract(1.0, gates[lo:hi], out=dz_rows[:hi - lo])
        dz_i, dz_f, dz_g, dz_o = (dz[..., k * stacked:(k + 1) * stacked]
                                  for k in range(4))
        dz *= gates[lo:hi]
        np.multiply(gg[lo:hi], gg[lo:hi], out=dz_g)
        np.subtract(1.0, dz_g, out=dz_g)
        dz_i *= gg[lo:hi]
        dz_f *= cells[lo:hi]
        dz_g *= gi[lo:hi]
        dz_o *= tanh_c
        dc_dh = np.multiply(tanh_c, tanh_c, out=tanh_c)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= go[lo:hi]
        for s in reversed(range(lo, hi)):
            if s >= first:
                dh[:, top] += d_top[:, s - first]
            dc = dh * dc_dh[s - lo]
            dc += dc_next
            dz[s - lo] *= np.concatenate((dc, dc, dc, dh), axis=1)
            np.multiply(dc, gf[s], out=dc_next)
            dh = dz[s - lo] @ w_h_t
            dh[np.abs(dh) < network.FLUSH_BELOW] = 0.0
            dc_next[np.abs(dc_next) < network.FLUSH_BELOW] = 0.0
        d_w += (states[lo:hi].reshape(-1, w.shape[0]).T
                @ dz.reshape(-1, four_stacked))
        if d_x is not None:
            np.matmul(dz, w[stacked:-depth].T, out=d_x[lo:hi])
    return d_w


def backward_with_step_operands(model, x, d_out):
    """(`model.backward` of d_out on x's cache, |left operand| of every step
    GEMM dz_s @ W[:LW].T that the reverse wavefront ran, latest step first):
    the cache's wavefront matrix is a view that records each 2-D product
    with it."""
    rows = []

    class StepOperands(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [np.asarray(a) for a in inputs]
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
            if (ufunc is np.matmul and isinstance(inputs[1], StepOperands)
                    and plain[0].ndim == 2):
                rows.append(np.abs(plain[0]))
            return getattr(ufunc, method)(*plain, **kwargs)

    _, cache = model._forward_cached(x)
    cache["w"] = cache["w"].view(StepOperands)
    return model.backward(cache, d_out), rows


@pytest.fixture
def steps_run(monkeypatch):
    """A list that receives the length of every chunk whose dz the reverse
    wavefront forms: their sum is the number of steps it ran."""
    chunks = []
    gate_derivatives = network._gate_derivatives

    def counting(gates, *args, **kwargs):
        chunks.append(gates.shape[1])
        return gate_derivatives(gates, *args, **kwargs)

    monkeypatch.setattr(network, "_gate_derivatives", counting)
    return chunks


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


def perturbed(model, rng):
    """The model, every parameter moved away from its init (biases too) and
    kept in its dtype."""
    for key, value in model.params.items():
        model.params[key] = (value + rng.normal(scale=0.1, size=value.shape)
                             ).astype(value.dtype)
    return model


def reference_loss_and_grads(model, x, target, labels):
    """`model.loss_and_grads` composed layer by layer from the per-step
    reference LSTM, with the head's backward written out."""
    seqs, caches = [x], []
    for layer in range(model.n_layers):
        hidden, cache = reference_lstm_forward(*model._lstm_params(layer), seqs[-1])
        seqs.append(hidden)
        caches.append(cache)
    activations = model._head(seqs[-1][:, -1])
    loss, delta = model.loss(activations[-1], target, labels)
    grads = {}
    n_fc = len(model.fc_sizes) - 1
    for i in reversed(range(n_fc)):
        out = activations[i + 1]
        if model.head_kind == "classifier":
            delta = delta * out * (1.0 - out)
        elif i < n_fc - 1:
            delta = delta * (1.0 - out * out)
        grads[f"fc{i}_w"] = delta.T @ activations[i]
        grads[f"fc{i}_b"] = delta.sum(axis=0)
        delta = delta @ model.params[f"fc{i}_w"]
    d_hidden = np.zeros_like(seqs[-1])
    d_hidden[:, -1] = delta
    for layer in reversed(range(model.n_layers)):
        w_x, w_h, _ = model._lstm_params(layer)
        (grads[f"lstm{layer}_wx"], grads[f"lstm{layer}_wh"], grads[f"lstm{layer}_b"],
         d_hidden) = reference_lstm_backward(w_x, w_h, seqs[layer], seqs[layer + 1],
                                             caches[layer], d_hidden)
    return loss, {key: grads[key] for key in model.params}


@pytest.fixture
def float64_init(monkeypatch):
    """Stacks built in the test keep their float64 init draw: the kernels
    run in float64, where the per-step reference tolerances hold."""
    monkeypatch.setattr(network, "PARAM_DTYPE", np.float64)


def _assert_head_loss_is(loss_kind, model, out, target, mask, labels,
                         alpha=1.0, beta=1.0):
    """The head's loss is `loss_kind`: a masked MSE over `mask` (the
    positions the regression head fits) or the classifier loss of `mask`."""
    want = {"masked_mse": lambda: masked_mse_loss(out, target, mask),
            "classifier": lambda: classifier_loss(
                out, mask.astype(float), alpha=alpha, beta=beta)}[loss_kind]()
    loss, d_out = model.loss(out, target, labels, alpha=alpha, beta=beta)
    assert loss == want[0]
    np.testing.assert_array_equal(d_out, want[1])


@pytest.mark.usefixtures("float64_init")
class TestAgainstReference:
    # T = 45 and 48 span several of the backward's chunks, and 45 is no
    # multiple of one; T = 1 is a single step. At T = 45 one d_wh element sums
    # to far below its array's scale and carries that scale's rounding, in the
    # reference's per-step sums as in the kernel's chunked ones (it misses
    # rtol=1e-12 with either): there, an element may also sit within 1e-14 of
    # its array's largest value (at most 1.0e-15 measured over 20 draws)
    @pytest.mark.parametrize("steps,atol_scale", [
        pytest.param(1, 0.0, id="T1"), pytest.param(45, 1e-14, id="T45"),
        pytest.param(48, 0.0, id="T48")])
    def test_single_layer(self, steps, atol_scale):
        w_x, w_h, b, x, d_hidden = _layer_inputs(steps=steps)
        hidden, cache = lstm_forward(w_x, w_h, b, x)
        ref_hidden, ref_cache = reference_lstm_forward(w_x, w_h, b, x)
        np.testing.assert_allclose(hidden, ref_hidden, rtol=1e-12)
        grads = lstm_backward(w_x, w_h, x, cache, d_hidden)
        ref_grads = reference_lstm_backward(w_x, w_h, x, ref_hidden, ref_cache,
                                            d_hidden)
        # the kernel forms no input gradient: the reference's d_x is unused
        for name, got, want in zip(("d_wx", "d_wh", "d_b"), grads,
                                   ref_grads[:3], strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=atol_scale * np.abs(want).max(),
                                       err_msg=name)

    @pytest.mark.parametrize("head,loss_kind", [
        ("normal", "masked_mse"), ("classifier", "classifier"),
        ("extreme", "masked_mse")])
    def test_stack(self, head, loss_kind):
        # T = 48 and 70 span several of the backward's chunks, and 70 is no
        # multiple of one; T = 1 is one step per layer
        rng = np.random.default_rng(21)
        for n_layers in (1, 2, 3):
            model = perturbed(NetStack(head, input_dim=3, width=6,
                                       n_layers=n_layers, horizon=4, seed=22),
                              rng)
            for steps in (1, 48, 70):
                x = rng.normal(size=(5, steps, 3))
                target = rng.normal(size=(5, 4))
                mask = rng.uniform(size=(5, 4)) < 0.5
                # the normal head fits the positions its labels mark normal
                labels = ~mask if head == "normal" else mask
                _assert_head_loss_is(loss_kind, model, model.forward(x), target,
                                     mask, labels)
                loss, grads = model.loss_and_grads(x, target, labels)
                ref_loss, ref_grads = reference_loss_and_grads(model, x, target,
                                                               labels)
                assert loss == pytest.approx(ref_loss, rel=1e-12)
                assert list(grads) == list(ref_grads)
                for key, want in ref_grads.items():
                    # as in test_single_layer[T45], an element far below its
                    # array's largest entry carries that entry's rounding
                    # (up to 1.3e-15 of it, measured under three BLAS kernel
                    # sets): it is held to 1e-14 of that entry, and every
                    # element larger than 1% of it to rtol 1e-12
                    excess = np.abs(grads[key] - want) - np.maximum(
                        1e-12 * np.abs(want), 1e-14 * np.abs(want).max())
                    assert (excess <= 0).all(), (
                        f"{key}, L={n_layers}, T={steps}: "
                        f"{excess.max():.3g} over the bound")


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
            hidden, cache = lstm_forward(w_x, w_h, np.zeros(4 * width),
                                         np.ones((2, 3, 1)))
        gates = cache["gates"]
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

    @pytest.mark.parametrize("head", ["normal", "classifier"])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_output_without_cache_matches_cached_output(self, head, n_layers,
                                                        float64_init):
        # both run `_forward_steps`: at one layer on the same matrix, bit for
        # bit; deeper, the cached forward runs every layer in one wavefront
        # and `forward` layer by layer, so the sums differ in order (at most
        # 3.5e-18 measured in float64)
        model = NetStack(head, input_dim=3, width=6, n_layers=n_layers,
                         horizon=4, seed=5)
        for shape in [(20, 3), (7, 20, 3)]:
            x = np.random.default_rng(6).normal(size=shape)
            cached = model._forward_cached(x)[0]
            assert cached.shape == model.forward(x).shape
            if n_layers == 1:
                np.testing.assert_array_equal(cached, model.forward(x))
            else:
                np.testing.assert_allclose(cached, model.forward(x), rtol=0,
                                           atol=1e-15)

    @pytest.mark.parametrize("head", ["normal", "classifier"])
    def test_one_layer_float32_forward_is_the_cached_forward(self, head):
        # the same matrix in the same BLAS call: in float32 too, where a
        # transposed layout of it gives other bits
        model = NetStack(head, input_dim=3, width=6, n_layers=1, horizon=4,
                         seed=5)
        assert model.dtype == np.float32
        for shape in [(20, 3), (7, 20, 3)]:
            x = np.random.default_rng(6).normal(size=shape)
            np.testing.assert_array_equal(model._forward_cached(x)[0],
                                          model.forward(x))

    # 1e39 is finite in float64 and casts to inf in float32; at h = 360 a
    # one-layer stack's saturated gates would serve an infinite x_0 as a
    # finite forecast
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e39],
                             ids=["inf", "minus_inf", "nan", "1e39"])
    @pytest.mark.parametrize("entry", ["forward", "one_window", "forward_members",
                                       "loss_and_grads", "lstm_forward"])
    def test_non_finite_window_rejected(self, entry, bad):
        model = NetStack("normal", input_dim=2, width=16, n_layers=1,
                         horizon=6, seed=0)
        rng = np.random.default_rng(8)
        x, target = rng.normal(size=(3, 360, 2)), rng.normal(size=(3, 6))
        x[1, 0, 0] = bad
        call = {"forward": lambda: model.forward(x),
                "one_window": lambda: model.forward(x[1]),
                "forward_members": lambda: forward_members([model], x),
                "loss_and_grads": lambda: model.loss_and_grads(
                    x, target, np.zeros((3, 6), dtype=bool)),
                "lstm_forward": lambda: lstm_forward(*model._lstm_params(0), x),
                }[entry]
        with pytest.raises(InvalidInputError, match="non-finite"):
            call()

    def test_without_cache_each_layer_cache_is_freed(self):
        """A forward without cache peaks at one layer's working set, however
        deep the stack: a kept layer cache would add as much again."""
        x = np.random.default_rng(7).normal(size=(24, 360, 2))

        def peak(n_layers):
            model = NetStack("normal", input_dim=2, width=16, n_layers=n_layers,
                             horizon=72, seed=0)
            tracemalloc.start()
            try:
                model.forward(x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3) < 1.5 * peak(1), (peak(3), peak(1))


def trained_like_members(widths=(16, 16, 16), layers=(2, 2, 2), input_dim=2,
                         horizon=6, seed=30, dtype=np.float32):
    """N, E and C stacks in `dtype` with weights perturbed away from their
    init, as after training (biases included)."""
    rng = np.random.default_rng(seed)
    return [perturbed(NetStack(head, input_dim, width, depth, horizon,
                               seed=i).astype(dtype), rng)
            for i, (head, width, depth) in enumerate(zip(
                ("normal", "extreme", "classifier"), widths, layers))]


class TestForwardMembers:
    # the wavefront sums each gate's input, recurrent and bias terms in one
    # product, the layer-by-layer forward in three: the outputs differ by
    # rounding only (at most 1.1e-16 measured in float64, where the rounding
    # tests run). Each member's slice of the serving product is the GEMM
    # training's forward takes, so against `_forward_cached` they are equal,
    # in float32 as in float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("steps", [1, 2, 45, 360], ids="T{}".format)
    @pytest.mark.parametrize("batch", [1, 24], ids="B{}".format)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("widths", [(16, 16, 16), (6, 6, 6), (5, 7, 3),
                                        (16, 8, 16)],
                             ids=lambda widths: "widths" + "-".join(map(str, widths)))
    def test_each_output_is_the_training_forward_bit_for_bit(self, widths, depth,
                                                             batch, steps, dtype):
        # members of equal width share one wavefront, members of another
        # width run alone; widths that are no multiple of the BLAS's
        # blocking (6, 5, 7, 3) give the same bits as 16 does
        stacks = trained_like_members(widths=widths, layers=(depth,) * 3,
                                      dtype=dtype)
        x = np.random.default_rng(36).normal(size=(batch, steps, 2))
        for stack, out in zip(stacks, forward_members(stacks, x)):
            assert out.dtype == dtype
            np.testing.assert_array_equal(out, stack._forward_cached(x)[0])
            np.testing.assert_array_equal(forward_members([stack], x)[0], out)

    # in float32 the two orders of summing differ by at most 6.0e-8
    # (measured at depths 1-3, T up to 360)
    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (np.float64, 1e-15)],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("shape", [(48, 2), (1, 48, 2), (24, 48, 2)])
    def test_each_forward_within_rounding(self, shape, dtype, atol):
        # the members of NecConfig(): width 16, 2 layers, 2 input channels;
        # one window (predict) and a stack of 24 (the holdout sections)
        stacks = trained_like_members(dtype=dtype)
        x = np.random.default_rng(31).normal(size=shape)
        fused = forward_members(stacks, x)
        for stack, out in zip(stacks, fused):
            assert out.shape == stack.forward(x).shape
            np.testing.assert_allclose(out, stack.forward(x), rtol=0, atol=atol)

    @pytest.mark.parametrize("steps", [1, 2, 20], ids="T{}".format)
    @pytest.mark.parametrize("layers", [(1, 1, 1), (2, 2, 2), (3, 3, 3),
                                        (2, 2, 3), (1, 3, 2)],
                             ids=lambda layers: "depths" + "-".join(map(str, layers)))
    def test_every_batch_size_within_rounding(self, layers, steps):
        # depths 1-3, groups of unequal depth, T = 1 and T < L
        stacks = trained_like_members(widths=(5, 7, 3), layers=layers,
                                      dtype=np.float64)
        rng = np.random.default_rng(32)
        for batch in range(1, 25):
            x = rng.normal(size=(batch, steps, 2))
            for stack, out in zip(stacks, forward_members(stacks, x)):
                np.testing.assert_allclose(out, stack.forward(x), rtol=0, atol=1e-15)

    def test_unequal_depths_run_alone(self):
        stacks = trained_like_members(layers=(2, 2, 3), dtype=np.float64)
        x = np.random.default_rng(33).normal(size=(24, 30, 2))
        fused = forward_members(stacks, x)
        for stack, out in zip(stacks, fused):
            np.testing.assert_allclose(out, stack.forward(x), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(fused[2], forward_members(stacks[2:], x)[0])

    @pytest.mark.parametrize("width", [3, 4, 2])
    def test_wavefront_matrix_layout(self, width):
        # a state row [h_0 .. h_{L-1} | x | a_0 .. a_{L-1}] times the matrix
        # gives, in the columns [i|f|g|o] x [layer], each layer's gate
        # pre-activations: its input from the layer below (x for layer 0),
        # its own hidden state and its bias times its alive input a_l
        depth = 3
        stack, = trained_like_members(widths=(width,), layers=(depth,))
        w = network._wavefront_matrix(stack._lstm_layers())
        assert w.shape == (depth * width + 2 + depth, 4 * depth * width)
        assert w.flags.c_contiguous
        rng = np.random.default_rng(35)
        hidden = [rng.normal(size=width) for _ in range(depth)]
        x = rng.normal(size=2)
        alive = rng.normal(size=depth)
        z = (np.concatenate([*hidden, x, alive]) @ w).reshape(4, depth, width)
        for layer in range(depth):
            w_x, w_h, b = stack._lstm_params(layer)
            below = x if layer == 0 else hidden[layer - 1]
            want = w_x @ below + w_h @ hidden[layer] + alive[layer] * b
            np.testing.assert_allclose(z[:, layer], want.reshape(4, -1),
                                       rtol=0, atol=1e-14)

    def test_peak_memory_does_not_grow_with_the_window(self):
        # the state is a few rows per window: no per-step array is kept
        stacks = trained_like_members()

        def peak(h):
            x = np.random.default_rng(34).normal(size=(24, h, 2))
            tracemalloc.start()
            try:
                forward_members(stacks, x)
                return tracemalloc.get_traced_memory()[1], x.nbytes
            finally:
                tracemalloc.stop()

        (short, short_in), (long, long_in) = peak(36), peak(360)
        assert long <= short + (long_in - short_in), (short, long)

    def test_malformed_window_rejected(self):
        with pytest.raises(DimensionError):
            forward_members(trained_like_members(), np.ones((5, 3)))

    def test_unequal_input_widths_rejected(self):
        # a group holds one input width, so the window fits at most one
        stacks = [NetStack("normal", 2, 8, 2, 6), NetStack("extreme", 3, 8, 2, 6)]
        for d_in in (2, 3):
            with pytest.raises(DimensionError):
                forward_members(stacks, np.ones((4, 12, d_in)))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0, 2)])
    def test_zero_step_window_rejected(self, shape):
        stacks = trained_like_members()
        with pytest.raises(DimensionError, match="at least one step"):
            forward_members(stacks, np.zeros(shape))
        with pytest.raises(DimensionError, match="at least one step"):
            stacks[0].forward(np.zeros(shape))


class TestBackward:
    def test_all_false_mask_zero_gradients(self):
        model = NetStack("normal", input_dim=2, width=4, n_layers=2,
                         horizon=3, seed=5)
        x = np.random.default_rng(6).normal(size=(2, 8, 2))
        target = np.zeros((2, 3))
        labels = np.ones((2, 3), dtype=bool)  # no normal position to fit
        _, grads = model.loss_and_grads(x, target, labels)
        for key, grad in grads.items():
            np.testing.assert_array_equal(grad, np.zeros_like(grad),
                                          err_msg=key)

    # T = 7 at depth 1 is one partial chunk; T = 20 spans several chunks,
    # the first of them partial, through which the reused slab buffers run
    @pytest.mark.parametrize("steps", [7, 20], ids="T{}".format)
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_backward_leaves_cache_unchanged(self, n_layers, steps):
        model = NetStack("classifier", input_dim=2, width=4, n_layers=n_layers,
                         horizon=3, seed=15)
        x = np.random.default_rng(16).normal(size=(3, steps, 2))
        out, cache = model._forward_cached(x)

        def arrays(cache):
            found = []
            for value in cache.values():
                found += value if isinstance(value, list) else [value]
            assert all(isinstance(a, np.ndarray) for a in found)
            return found

        before = [a.copy() for a in arrays(cache)]
        model.backward(cache, np.ones_like(out))
        for old, new in zip(before, arrays(cache), strict=True):
            np.testing.assert_array_equal(new, old)

    # T = 1 is one step; 7, 9 and 45 end in a partial chunk, 8 is one whole
    # chunk; 360 is the paper's window
    @pytest.mark.parametrize("steps", [1, 7, 8, 9, 45, 360], ids="T{}".format)
    @pytest.mark.parametrize("batch", [1, 5, 32], ids="B{}".format)
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("head", ["normal", "classifier"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_loss_and_grads_are_the_row_major_backward_bit_for_bit(
            self, monkeypatch, steps_run, dtype, head, n_layers, batch, steps):
        model = perturbed(NetStack(head, input_dim=2, width=8, n_layers=n_layers,
                                   horizon=4, seed=31).astype(dtype),
                          np.random.default_rng(32))
        rng = np.random.default_rng(33)
        x, target = rng.normal(size=(batch, steps, 2)), rng.normal(size=(batch, 4))
        labels = rng.uniform(size=(batch, 4)) < 0.5
        loss, grads = model.loss_and_grads(x, target, labels)
        # every step runs over T <= 45; at T = 360 the carry flushes to zero
        # and the kernel stops early (after 136 to 162 steps, measured), so
        # these cases hold its skip to the reference, which runs every step
        ran = sum(steps_run)
        assert ran < steps if steps == 360 else ran == steps + n_layers - 1
        monkeypatch.setattr(network, "_backward_steps", row_major_backward_steps)
        want_loss, want = model.loss_and_grads(x, target, labels)
        assert loss == want_loss
        assert list(grads) == list(want)
        for key, grad in grads.items():
            assert grad.dtype == dtype, key
            assert np.array_equal(grad, want[key]), key

    # with a gradient on the last hidden state only, as in training, dh and
    # dc decay over T = 360 until the flush zeroes them; d_hidden still
    # covers every step, so the kernel runs them all, as the reference does
    @pytest.mark.parametrize("last_only", [False, True], ids=["every", "last"])
    @pytest.mark.parametrize("steps", [1, 7, 8, 9, 45, 360], ids="T{}".format)
    @pytest.mark.parametrize("batch", [1, 5, 32], ids="B{}".format)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_lstm_backward_is_the_row_major_backward_bit_for_bit(
            self, monkeypatch, steps_run, dtype, batch, steps, last_only):
        w_x, w_h, b, x, d_hidden = (a.astype(dtype) for a in _layer_inputs(
            steps=steps, batch=batch))
        if last_only:
            d_hidden[:, :-1] = 0.0
        _, cache = lstm_forward(w_x, w_h, b, x)
        got = lstm_backward(w_x, w_h, x, cache, d_hidden)
        assert sum(steps_run) == steps
        monkeypatch.setattr(network, "_backward_steps", row_major_backward_steps)
        want = lstm_backward(w_x, w_h, x, cache, d_hidden)
        for name, grad, reference in zip(("d_wx", "d_wh", "d_b"), got,
                                         want, strict=True):
            assert grad.dtype == dtype, name
            assert np.array_equal(grad, reference), name

    @staticmethod
    def _member(dtype, n_layers, forget_bias=None):
        model = perturbed(NetStack("normal", input_dim=2, width=8,
                                   n_layers=n_layers, horizon=4, seed=34
                                   ).astype(dtype), np.random.default_rng(35))
        if forget_bias is not None:
            for layer in range(n_layers):
                model.params[f"lstm{layer}_b"][8:16] = forget_bias  # f block
        return model

    @staticmethod
    def _assert_row_major_bits(monkeypatch, model, x, d_out, grads):
        _, cache = model._forward_cached(x)
        monkeypatch.setattr(network, "_backward_steps", row_major_backward_steps)
        want = model.backward(cache, d_out)
        for key, grad in grads.items():
            assert np.array_equal(grad, want[key]), key

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_flushed_carry_stops_on_a_chunk_boundary_bit_for_bit(
            self, monkeypatch, dtype, n_layers):
        # the gradient on the last hidden state dies out within the last 152
        # to 154 of the 360 steps (measured): the kernel skips every chunk
        # below the one after which the carry is all zero, and the reference
        # runs them all
        model = self._member(dtype, n_layers)
        rng = np.random.default_rng(36)
        x, d_out = rng.normal(size=(32, 360, 2)), rng.normal(size=(32, 4))
        grads, rows = backward_with_step_operands(model, x, d_out)
        stop = 360 + n_layers - 1 - len(rows)
        assert stop > 0 and stop % network.BACKWARD_CHUNK == 0
        self._assert_row_major_bits(monkeypatch, model, x, d_out, grads)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_long_memory_runs_every_step_bit_for_bit(self, monkeypatch, dtype,
                                                     n_layers):
        # forget gates near 1 (sigmoid(6) = 0.9975) keep dc alive over all
        # 360 steps, so the carry never flushes to zero
        model = self._member(dtype, n_layers, forget_bias=6.0)
        rng = np.random.default_rng(37)
        x, d_out = rng.normal(size=(32, 360, 2)), rng.normal(size=(32, 4))
        grads, rows = backward_with_step_operands(model, x, d_out)
        assert len(rows) == 360 + n_layers - 1
        self._assert_row_major_bits(monkeypatch, model, x, d_out, grads)

    # T + L - 1 steps in chunks from the top: (15, 3) has chunks of 1, 8
    # and 8 steps, with layer 0's steps past T (15 and 16) in the first two;
    # (20, 3) has 6 and 8 and 8, and (360, 1) 8 and 8 and so on
    @pytest.mark.parametrize("steps,n_layers,ran", [(15, 3, 9), (20, 3, 6),
                                                    (360, 1, 8)])
    def test_zero_gradient_stops_past_the_padding_steps_bit_for_bit(
            self, monkeypatch, steps, n_layers, ran):
        # the carry is zero from the start: the kernel stops after the first
        # chunk that leaves no step past T + l behind
        model = self._member(np.float32, n_layers)
        x = np.random.default_rng(39).normal(size=(5, steps, 2))
        grads, rows = backward_with_step_operands(model, x, np.zeros((5, 4)))
        assert len(rows) == ran
        for key, grad in grads.items():
            assert not grad.any(), key
        self._assert_row_major_bits(monkeypatch, model, x, np.zeros((5, 4)),
                                    grads)

    def test_peak_memory_within_its_cache(self):
        # one training batch at the paper's shape peaks at its cache plus
        # the reverse wavefront's few chunk buffers (9.25 against 8.65 MiB
        # measured): dz is formed a chunk at a time, where one (S, B, 4LW)
        # array of it would add the size of the cached gates
        model = NetStack("normal", input_dim=2, width=16, n_layers=2,
                         horizon=72, seed=17)
        rng = np.random.default_rng(18)
        x = rng.normal(size=(32, 360, 2))
        target = rng.normal(size=(32, 72))
        labels = rng.uniform(size=(32, 72)) < 0.05
        cache = model._forward_cached(x)[1]
        cached = sum(cache[k].nbytes for k in ("states", "gates", "cells"))
        del cache
        tracemalloc.start()
        try:
            model.loss_and_grads(x, target, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * cached, (peak, cached)

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("head", ["normal", "classifier"])
    def test_non_finite_head_weight_fails_in_the_head(self, head, n_layers):
        model = NetStack(head, input_dim=2, width=4, n_layers=n_layers,
                         horizon=3, seed=19)
        model.params["fc0_w"][1, 2] = np.nan
        rng = np.random.default_rng(20)
        x, target = rng.normal(size=(3, 7, 2)), rng.normal(size=(3, 3))
        labels = np.zeros((3, 3), dtype=bool)
        with np.errstate(all="ignore"), pytest.raises(
                NumericInstabilityError, match="^non-finite gradient in the head$"):
            model.loss_and_grads(x, target, labels)

    @pytest.mark.parametrize("dtype,huge", [(np.float64, 1e200),
                                            (np.float32, 1e30)],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_overflowing_lstm_weight_fails_in_the_lstm_layers(
            self, monkeypatch, n_layers, dtype, huge):
        # layer 0's g gate reads only its own hidden state, which therefore
        # stays 0, so the forward and the head's gradients stay finite while
        # the gradient fed back through the huge (and finite) lstm0_wh
        # overflows
        monkeypatch.setattr(network, "PARAM_DTYPE", dtype)
        width = 4
        model = NetStack("normal", input_dim=2, width=width,
                         n_layers=n_layers, horizon=3, seed=21)
        g_gate = slice(2 * width, 3 * width)
        model.params["lstm0_wx"][g_gate] = 0.0
        model.params["lstm0_b"][g_gate] = 0.0
        model.params["lstm0_wh"][:] = huge
        assert np.isfinite(model.params["lstm0_wh"]).all()
        rng = np.random.default_rng(22)
        x, target = rng.normal(size=(3, 7, 2)), rng.normal(size=(3, 3))
        labels = np.zeros((3, 3), dtype=bool)
        assert np.isfinite(model.forward(x)).all()
        with np.errstate(all="ignore"), pytest.raises(
                NumericInstabilityError,
                match="^non-finite gradient in the LSTM layers$"):
            model.loss_and_grads(x, target, labels)

    @pytest.mark.parametrize("gate", ["i", "f", "g", "o"])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infinite_input_weight_leaves_the_gradient_finite(self, n_layers,
                                                              gate, dtype):
        # layer 0 runs L - 1 steps past T, on the last x_t: an infinite
        # weight saturates its gates there, as at every step. Nothing reads
        # those steps, so training's forward is serving's and the gradient
        # is finite at every depth
        width = 4
        model = NetStack("classifier", input_dim=2, width=width,
                         n_layers=n_layers, horizon=3, seed=23).astype(dtype)
        model.params["lstm0_wx"]["ifgo".index(gate) * width + 1, 0] = np.inf
        rng = np.random.default_rng(24)
        x = rng.normal(size=(5, 7, 2))
        labels = rng.uniform(size=(5, 3)) < 0.5
        with np.errstate(all="ignore"):
            assert np.isfinite(model.forward(x)).all()
            np.testing.assert_array_equal(model._forward_cached(x)[0],
                                          forward_members([model], x)[0])
            loss, grads = model.loss_and_grads(x, None, labels)
        assert np.isfinite(loss)
        for key, grad in grads.items():
            assert np.isfinite(grad).all(), key

    def test_gradient_linearity(self):
        model = NetStack("normal", input_dim=2, width=4, n_layers=1,
                         horizon=3, seed=7)
        x = np.random.default_rng(8).normal(size=(2, 6, 2))
        out, cache = model._forward_cached(x)
        d_out = np.random.default_rng(9).normal(size=out.shape)
        grads = model.backward(cache, d_out)
        doubled = model.backward(cache, 2.0 * d_out)
        for key in grads:
            np.testing.assert_allclose(doubled[key], 2.0 * grads[key],
                                       rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("head,loss_kind,alpha,beta,steps,width", [
    ("normal", "masked_mse", 1.0, 1.0, 9, 6),
    ("extreme", "masked_mse", 1.0, 1.0, 9, 6),
    ("classifier", "classifier", 1.0, 1.0, 9, 6),
    ("classifier", "classifier", 2.0, 0.5, 9, 6),
    ("classifier", "classifier", 3.0, 0.45, 9, 6),
    # longer than the backward's chunk: the differences cross its seams
    ("normal", "masked_mse", 1.0, 1.0, network.BACKWARD_CHUNK + 8, 3),
], ids=["normal-masked_mse-1.0-1.0", "extreme-masked_mse-1.0-1.0",
        "classifier-classifier-1.0-1.0", "classifier-classifier-2.0-0.5",
        "classifier-classifier-3.0-0.45", "normal-masked_mse-1.0-1.0-chunks"])
def test_gradient_check(head, loss_kind, alpha, beta, steps, width):
    rng = np.random.default_rng(10)
    model = NetStack(head, input_dim=3, width=width, n_layers=2, horizon=4,
                     seed=11)
    x = rng.normal(size=(2, steps, 3))
    target = rng.normal(size=(2, 4))
    mask = rng.uniform(size=(2, 4)) < 0.5
    mask[0, 0] = True  # keep at least one active position
    # the normal head fits the positions its labels mark normal
    labels = ~mask if head == "normal" else mask
    _assert_head_loss_is(loss_kind, model, model.forward(x), target, mask,
                         labels, alpha=alpha, beta=beta)
    # eps=1e-4 keeps finite-difference roundoff below truncation for the
    # near-zero gradients of the first-layer recurrent weights
    error = gradient_check(model, x, target, labels,
                           alpha=alpha, beta=beta, eps=1e-4)
    assert error < 1e-4


@pytest.mark.parametrize("head", ["normal", "extreme", "classifier"])
def test_loss_is_the_heads_selective_backprop(head):
    # N fits the target at normal positions, E at extreme ones, C the labels
    rng = np.random.default_rng(30)
    model = NetStack(head, input_dim=2, width=4, n_layers=1, horizon=5, seed=31)
    out = rng.uniform(0.1, 0.9, size=(3, 5))
    target = rng.normal(size=(3, 5))
    labels = rng.uniform(size=(3, 5)) < 0.5
    want = {"normal": masked_mse_loss(out, target, ~labels),
            "extreme": masked_mse_loss(out, target, labels),
            "classifier": classifier_loss(out, labels.astype(float),
                                          alpha=2.0, beta=0.5)}[head]
    loss, d_out = model.loss(out, target, labels, alpha=2.0, beta=0.5)
    assert loss == want[0]
    np.testing.assert_array_equal(d_out, want[1])


def test_gradient_check_zero_loss_configuration():
    model = NetStack("normal", input_dim=2, width=4, n_layers=1, horizon=3,
                     seed=12)
    x = np.random.default_rng(13).normal(size=(1, 5, 2))
    labels = np.ones((1, 3), dtype=bool)  # no normal position to fit
    error = gradient_check(model, x, np.zeros((1, 3)), labels)
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

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "n.ckpt"
        save_checkpoint(path, NetStack("normal", input_dim=2, width=4,
                                       n_layers=1, horizon=3))
        path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
        with pytest.raises(CheckpointError, match="n.ckpt: corrupt"):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="e.ckpt: corrupt"):
            load_checkpoint(path)

    def test_directory(self, tmp_path):
        path = tmp_path / "n.ckpt"
        path.mkdir()
        with pytest.raises(CheckpointError, match="n.ckpt: corrupt"):
            load_checkpoint(path)

    def test_format_is_pinned(self, tmp_path):
        # a change to these bytes is a format change: bump CHECKPOINT_VERSION
        path = tmp_path / "n.ckpt"
        save_checkpoint(path, NetStack("normal", input_dim=2, width=4,
                                       n_layers=1, horizon=3, seed=5),
                        extra_meta={"config_hash": "abc"})
        data = path.read_bytes()
        assert network.CHECKPOINT_VERSION == 3
        assert data.startswith(network.MAGIC)
        (header_len,) = struct.unpack("<Q", data[8:16])
        assert (16 + header_len) % 64 == 0
        header = json.loads(data[16:16 + header_len])
        assert header["dtype"] == "<f4"
        assert header["params"][0] == ["lstm0_wx", [16, 2]]
        assert len(data) == 16 + header_len + 4 * sum(
            math.prod(shape) for _, shape in header["params"])
        assert hashlib.sha256(data).hexdigest() == (
            "73e35c6fafdd972cd9ae0af7f0cec413a429412bf8d2df97a340ad63b18281b3")

    def test_version_1_zip_rejected(self, tmp_path):
        path = tmp_path / "n.ckpt"
        meta = json.dumps({"version": 1, "head_kind": "normal"}).encode()
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.frombuffer(meta, dtype=np.uint8),
                     param_fc0_b=np.zeros(3))
        with pytest.raises(CheckpointError,
                           match="n.ckpt: checkpoint version 1 .* retrain"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("change", [-1, 1], ids=["one_float_short",
                                                      "one_float_long"])
    def test_payload_size_mismatch(self, tmp_path, change, dtype):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, NetStack("classifier", input_dim=2, width=4,
                                       n_layers=1, horizon=3).astype(dtype))
        data = path.read_bytes()
        change *= np.dtype(dtype).itemsize
        path.write_bytes(data[:change] if change < 0 else data + bytes(change))
        with pytest.raises(CheckpointError, match="c.ckpt: corrupt"):
            load_checkpoint(path)

    @staticmethod
    def _rewrite_header(path, edit):
        data = path.read_bytes()
        (header_len,) = struct.unpack("<Q", data[8:16])
        header = edit(data[16:16 + header_len]).ljust(header_len)
        assert len(header) == header_len
        path.write_bytes(data[:16] + header + data[16 + header_len:])

    @pytest.mark.parametrize("edit,message", [
        (lambda h: b"x" + h[1:], "corrupt"),
        (lambda h: h.replace(b'"normal"', b'"median"'), "unknown head kind"),
        (lambda h: h.replace(b'"width": 4', b'"width": 5'), "do not match"),
        (lambda h: h.replace(b'"version": 3', b'"version": 4'),
         "version 4 unsupported"),
        (lambda h: h.replace(b'"version": 3', b'"version": 2'),
         "checkpoint version 2 was written by an older version .* retrain the run"),
        (lambda h: h.replace(b'"<f4"', b'"<f2"'), "corrupt .*unsupported dtype"),
        (lambda h: h.replace(b'"<f4"', b'"<f8"'), "corrupt .*header declares"),
    ], ids=["bad_json", "unknown_head", "shape_mismatch", "future_version",
            "version_2", "bad_dtype", "dtype_size_mismatch"])
    def test_bad_header_names_the_file(self, tmp_path, edit, message):
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, NetStack("normal", input_dim=2, width=4,
                                       n_layers=1, horizon=3))
        self._rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=f"e.ckpt: .*{message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loaded_params_keep_the_saved_dtype(self, tmp_path, dtype):
        path = tmp_path / "n.ckpt"
        saved = NetStack("normal", input_dim=3, width=8, n_layers=2,
                         horizon=4, seed=2).astype(dtype)
        save_checkpoint(path, saved)
        model, meta = load_checkpoint(path)
        assert meta["dtype"] == np.dtype(dtype).str
        assert model.dtype == dtype
        for key, arr in model.params.items():
            assert arr.dtype == dtype
            assert arr.flags.aligned and arr.flags.writeable
            assert arr.ctypes.data % arr.itemsize == 0
            np.testing.assert_array_equal(arr, saved.params[key])
        model.params["fc0_b"] += 1.0  # training updates params in place

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        model = NetStack("extreme", input_dim=2, width=4, n_layers=2,
                         horizon=3, seed=9)
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, model)

        def no_init(self, rng):
            raise AssertionError("random init drawn while loading")

        monkeypatch.setattr(NetStack, "_init_params", no_init)
        back, _ = load_checkpoint(path)
        for key in model.params:
            np.testing.assert_array_equal(back.params[key], model.params[key])


class TestFloat32:
    """A new stack is float32, and nothing on its way through training and
    serving turns it into float64: the losses give float64, and a float64
    d_out would run the whole backward in float64 without an error."""

    @pytest.mark.parametrize("head", ["normal", "classifier"])
    def test_gradients_and_cache_keep_the_dtype(self, head):
        model = NetStack(head, input_dim=2, width=4, n_layers=2, horizon=3,
                         seed=25)
        assert all(p.dtype == np.float32 for p in model.params.values())
        rng = np.random.default_rng(26)
        x, target = rng.normal(size=(5, 9, 2)), rng.normal(size=(5, 3))
        labels = rng.uniform(size=(5, 3)) < 0.5
        _, grads = model.loss_and_grads(x, target, labels)
        for key, grad in grads.items():
            assert grad.dtype == np.float32, key
        _, cache = model._forward_cached(x)
        for key, value in cache.items():
            for arr in value if isinstance(value, list) else [value]:
                assert arr.dtype == np.float32, key

    @pytest.mark.parametrize("steps", [9, 360], ids="T{}".format)
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("head", ["normal", "classifier"])
    def test_gradients_agree_with_a_float64_copy(self, head, n_layers, steps):
        # measured: every gradient within 1.0e-6 of its own largest float64
        # entry, the loss within 7.2e-9 relative
        model = perturbed(NetStack(head, input_dim=2, width=16,
                                   n_layers=n_layers, horizon=6, seed=40),
                          np.random.default_rng(41))
        rng = np.random.default_rng(42)
        x, target = rng.normal(size=(32, steps, 2)), rng.normal(size=(32, 6))
        labels = rng.uniform(size=(32, 6)) < 0.3
        loss, grads = model.loss_and_grads(x, target, labels)
        want_loss, want = model.astype(np.float64).loss_and_grads(x, target, labels)
        assert loss == pytest.approx(want_loss, rel=1e-7)
        for key, grad in grads.items():
            assert grad.dtype == np.float32, key
            np.testing.assert_allclose(grad, want[key], rtol=0,
                                       atol=1e-5 * np.abs(want[key]).max(),
                                       err_msg=key)

    def test_served_outputs_keep_the_dtype(self):
        stacks = [NetStack(head, 2, width, depth, 6, seed=i) for i, (head, width, depth)
                  in enumerate([("normal", 8, 2), ("extreme", 8, 2),
                                ("classifier", 6, 1)])]
        x = np.random.default_rng(27).normal(size=(4, 12, 2))
        for window in [x, x[0]]:
            for out in forward_members(stacks, window):
                assert out.dtype == np.float32

    def test_optimizer_state_keeps_the_dtype(self, monkeypatch):
        seen = []

        class Recording(Adam):
            def step(self, params, grads, keys):
                super().step(params, grads, keys)
                seen.append(self)

        monkeypatch.setattr(training, "Adam", Recording)
        rng = np.random.default_rng(28)
        windows = Windows(input=rng.normal(size=(16, 6, 2)),
                          target=rng.normal(size=(16, 3)),
                          target_mask=rng.uniform(size=(16, 3)) < 0.5,
                          origins=np.arange(16))
        model = NetStack("normal", input_dim=2, width=4, n_layers=1,
                         horizon=3, seed=29)
        model, _ = train(model, windows, windows[:4],
                         TrainConfig(batch_size=8, max_epochs=1))
        assert len(seen) == 2 and seen[0] is seen[1]
        adam = seen[0]
        assert set(adam.m) == set(model.fc_keys)
        for key in adam.m:
            assert adam.m[key].dtype == adam.v[key].dtype == np.float32, key
        for key, value in model.params.items():
            assert value.dtype == np.float32, key

    def test_backward_flushes_tiny_gradients(self, steps_run):
        # over h = 360 steps, dh decays into float32's subnormal range, where
        # the BLAS runs the step's product many times slower; the rows that
        # product multiplies by the recurrent block must stay normal numbers.
        # The flush zeroes the carry before step 0 and the kernel stops
        # there (128 steps ran, measured): every step it ran is recorded
        model = NetStack("normal", input_dim=2, width=4, n_layers=1,
                         horizon=6, seed=0)
        x = np.random.default_rng(1).normal(size=(2, 360, 2))
        _, rows = backward_with_step_operands(model, x, np.ones((2, 6)))
        assert len(rows) == sum(steps_run)
        magnitudes = np.concatenate([row.ravel() for row in rows])
        assert magnitudes[magnitudes > 0].min() >= np.finfo(np.float32).tiny

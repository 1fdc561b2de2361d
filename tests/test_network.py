import hashlib
import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from necplus.errors import CheckpointError, DimensionError
from necplus.neural import (
    NetStack,
    classifier_loss,
    forward_members,
    gradient_check,
    load_checkpoint,
    lstm_backward,
    lstm_forward,
    masked_mse_loss,
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


def perturbed(model, rng):
    """The model, every parameter moved away from its init (biases too)."""
    for key, value in model.params.items():
        model.params[key] = value + rng.normal(scale=0.1, size=value.shape)
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
        grads = lstm_backward(w_x, w_h, x, hidden, cache, d_hidden)
        ref_grads = reference_lstm_backward(w_x, w_h, x, ref_hidden, ref_cache,
                                            d_hidden)
        for name, got, want in zip(("d_wx", "d_wh", "d_b", "d_x"), grads,
                                   ref_grads):
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
                for key in grads:
                    np.testing.assert_allclose(
                        grads[key], ref_grads[key], rtol=1e-12,
                        err_msg=f"{key}, L={n_layers}, T={steps}")


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
    def test_output_without_cache_matches_cached_output(self, head, n_layers):
        # both run `_forward_steps`: at one layer on the same matrix, bit for
        # bit; deeper, the cached forward runs every layer in one wavefront
        # and `forward` layer by layer, so the sums differ in order (at most
        # 3.5e-18 measured)
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
                         horizon=6, seed=30):
    """N, E and C stacks with weights perturbed away from their init, as
    after training (biases included)."""
    rng = np.random.default_rng(seed)
    return [perturbed(NetStack(head, input_dim, width, depth, horizon, seed=i), rng)
            for i, (head, width, depth) in enumerate(zip(
                ("normal", "extreme", "classifier"), widths, layers))]


class TestForwardMembers:
    # the wavefront sums each gate's input, recurrent and bias terms in one
    # product, the layer-by-layer forward in three: the outputs differ by
    # rounding only (at most 1.1e-16 measured)

    @pytest.mark.parametrize("shape", [(48, 2), (1, 48, 2), (24, 48, 2)])
    def test_each_forward_within_rounding(self, shape):
        # the members of NecConfig(): width 16, 2 layers, 2 input channels;
        # one window (predict) and a stack of 24 (the holdout sections)
        stacks = trained_like_members()
        x = np.random.default_rng(31).normal(size=shape)
        fused = forward_members(stacks, x)
        for stack, out in zip(stacks, fused):
            assert out.shape == stack.forward(x).shape
            np.testing.assert_allclose(out, stack.forward(x), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("steps", [1, 2, 20], ids="T{}".format)
    @pytest.mark.parametrize("layers", [(1, 1, 1), (2, 2, 2), (3, 3, 3),
                                        (2, 2, 3), (1, 3, 2)],
                             ids=lambda layers: "depths" + "-".join(map(str, layers)))
    def test_every_batch_size_within_rounding(self, layers, steps):
        # depths 1-3, groups of unequal depth, T = 1 and T < L
        stacks = trained_like_members(widths=(5, 7, 3), layers=layers)
        rng = np.random.default_rng(32)
        for batch in range(1, 25):
            x = rng.normal(size=(batch, steps, 2))
            for stack, out in zip(stacks, forward_members(stacks, x)):
                np.testing.assert_allclose(out, stack.forward(x), rtol=0, atol=1e-15)

    def test_unequal_depths_and_other_members_run_alone(self):
        stacks = trained_like_members(layers=(2, 2, 3))

        class Fixed:
            def forward(self, x):
                return np.arange(3.0)

        members = [*stacks, Fixed()]
        x = np.random.default_rng(33).normal(size=(24, 30, 2))
        fused = forward_members(members, x)
        for stack, out in zip(stacks, fused):
            np.testing.assert_allclose(out, stack.forward(x), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(fused[3], np.arange(3.0))

    def test_wavefront_matrix_layout(self):
        # a state row [h_0 .. h_{L-1} | x | a_0 .. a_{L-1}] times the matrix
        # gives, in the columns [i|f|g|o] x [layer] x [member], each
        # member's own gate pre-activations of each layer: its input from
        # the layer below (x for layer 0), its own hidden state and its bias
        # times its alive input a_l, and nothing of any other member
        widths, depth = (3, 4, 2), 3
        stacks = trained_like_members(widths=widths, layers=(depth,) * 3)
        w = network._wavefront_matrix(stacks)
        assert w.flags.c_contiguous
        rng = np.random.default_rng(35)
        hidden = [[rng.normal(size=width) for width in widths] for _ in range(depth)]
        x = rng.normal(size=2)
        alive = rng.normal(size=depth)
        state = np.concatenate([*map(np.concatenate, hidden), x, alive])
        z = (state @ w).reshape(4, depth, sum(widths))
        bounds = np.cumsum([0, *widths])
        for m, (stack, lo, hi) in enumerate(zip(stacks, bounds[:-1], bounds[1:])):
            for layer in range(depth):
                w_x, w_h, b = stack._lstm_params(layer)
                below = x if layer == 0 else hidden[layer - 1][m]
                want = w_x @ below + w_h @ hidden[layer][m] + alive[layer] * b
                np.testing.assert_allclose(z[:, layer, lo:hi], want.reshape(4, -1),
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

    def test_backward_leaves_cache_unchanged(self):
        model = NetStack("classifier", input_dim=2, width=4, n_layers=2,
                         horizon=3, seed=15)
        x = np.random.default_rng(16).normal(size=(3, 7, 2))
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

    def test_peak_memory_below_layer_by_layer(self):
        # one training batch at the paper's shape: the wavefront keeps one
        # cache for all layers, where the layer-by-layer path keeps one per
        # layer (18.96 against 22.83 MB measured); both form dz a chunk at a
        # time
        model = NetStack("normal", input_dim=2, width=16, n_layers=2,
                         horizon=72, seed=17)
        rng = np.random.default_rng(18)
        x = rng.normal(size=(32, 360, 2))
        target = rng.normal(size=(32, 72))
        labels = rng.uniform(size=(32, 72)) < 0.05

        def layer_by_layer():
            seqs, caches = [x], []
            for layer in range(model.n_layers):
                hidden, cache = lstm_forward(*model._lstm_params(layer), seqs[-1])
                seqs.append(hidden)
                caches.append(cache)
            d_hidden = np.zeros_like(seqs[-1])
            d_hidden[:, -1] = 1.0
            for layer in reversed(range(model.n_layers)):
                w_x, w_h, _ = model._lstm_params(layer)
                d_hidden = lstm_backward(w_x, w_h, seqs[layer], seqs[layer + 1],
                                         caches[layer], d_hidden)[3]

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        wavefront = peak(lambda: model.loss_and_grads(x, target, labels))
        reference = peak(layer_by_layer)
        assert wavefront < reference, (wavefront, reference)

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
        assert network.CHECKPOINT_VERSION == 2
        assert data.startswith(network.MAGIC)
        (header_len,) = struct.unpack("<Q", data[8:16])
        assert (16 + header_len) % 64 == 0
        assert json.loads(data[16:16 + header_len])["params"][0] == ["lstm0_wx", [16, 2]]
        assert hashlib.sha256(data).hexdigest() == (
            "13918d22bd69da7c95f3970e458d142590406762b45065a1c8318678be387503")

    def test_version_1_zip_rejected(self, tmp_path):
        path = tmp_path / "n.ckpt"
        meta = json.dumps({"version": 1, "head_kind": "normal"}).encode()
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.frombuffer(meta, dtype=np.uint8),
                     param_fc0_b=np.zeros(3))
        with pytest.raises(CheckpointError,
                           match="n.ckpt: checkpoint version 1 .* retrain"):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", [-8, 8], ids=["one_float_short",
                                                      "one_float_long"])
    def test_payload_size_mismatch(self, tmp_path, change):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, NetStack("classifier", input_dim=2, width=4,
                                       n_layers=1, horizon=3))
        data = path.read_bytes()
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
        (lambda h: h.replace(b'"version": 2', b'"version": 3'), "version 3"),
    ], ids=["bad_json", "unknown_head", "shape_mismatch", "future_version"])
    def test_bad_header_names_the_file(self, tmp_path, edit, message):
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, NetStack("normal", input_dim=2, width=4,
                                       n_layers=1, horizon=3))
        self._rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=f"e.ckpt: .*{message}"):
            load_checkpoint(path)

    def test_loaded_params_aligned_writable_float64(self, tmp_path):
        path = tmp_path / "n.ckpt"
        save_checkpoint(path, NetStack("normal", input_dim=3, width=8,
                                       n_layers=2, horizon=4, seed=2))
        model, _ = load_checkpoint(path)
        for arr in model.params.values():
            assert arr.dtype == np.float64
            assert arr.flags.aligned and arr.flags.writeable
            assert arr.ctypes.data % 8 == 0
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

"""Stacked-LSTM networks with a fully-connected head, implemented directly
in numpy with analytic backpropagation through time.

The LSTM kernels work time-major: a step's gates are one product of its
state rows with one matrix, and the weight gradients are GEMMs over many
steps at once. Every sigmoid uses the form 0.5 + 0.5 tanh(z/2), which needs
no masks and cannot overflow; one tanh covers all four gate blocks of a
step.

A :class:`NetStack` holds one of the three member models: the normal (N) and
extreme (E) regressors use 3 tapering affine layers after the top LSTM; the
classifier (C) uses a single affine layer of f units under a sigmoid.
Parameters live in a flat name -> array dict so the optimizers can treat
them uniformly.

The parameters' dtype is the one dtype of everything that runs on them: the
inputs, every kernel buffer, the head's gradient and the optimizers' state.
A random init is drawn in float64 and stored as PARAM_DTYPE (float32, whose
elementwise arithmetic takes about half float64's time); a stack built from
float64 parameters runs the same code in float64. Every entry point casts
the window to it and rejects one that is not all finite (`_as_batch`).

The layers run as a wavefront: step s runs layer l at time s - l over one
state row per window, and every step is the row product with the one matrix
of `_wavefront_matrix` and `_lstm_step`. Training keeps each of the T + L - 1
steps (`_forward_steps`) and walks them back a chunk at a time
(`_backward_steps`) into the weight gradients only: the loss reaches the LSTM
through the top layer's last hidden state, so no input gradient is needed. A
chunk's elementwise work runs on one contiguous slab per gate, and dh and dc
share one carry that one pass per step flushes. Once that carry is all zero,
every earlier step would add exactly zero, and the walk stops. Serving and
training's validation (`forward_members`) run the members of equal depth and
width as one wavefront that keeps a few rows per window and multiplies each
member's rows by its own matrix (`_forward_wavefront`), so they compute what
training's forward does, bit for bit. The benchmark's tracer wraps
`lstm_forward`/`lstm_backward`, depth-one adapters of the stored kernel, and
`NetStack.forward`, which runs layer by layer through `lstm_forward`.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import (CheckpointError, DimensionError, InvalidInputError,
                      NumericInstabilityError)
from .losses import classifier_loss, masked_mse_loss

CHECKPOINT_VERSION = 3
HEAD_KINDS = ("normal", "extreme", "classifier")
# the dtype a random init is stored in; every kernel takes its parameters'
PARAM_DTYPE = np.float32
# Steps of the reverse wavefront whose tanh(c) and dz `_backward_steps`
# forms at once, in buffers of this many steps however long the window, and
# the granularity at which it stops once the carry has flushed to zero. The
# length is part of the gradient's bits: each chunk's d_w is one GEMM, so 16
# sums d_w in another order. With the stop, one backward at B = 32, W = 16,
# L = 2 (3 x 300 interleaved rounds) took 4.3 to 4.7 ms at h = 360 with 8,
# 1.04 to 1.05x that with 4 and 1.05 to 1.07x with 16. At h = 24, 4 took
# 1.02 to 1.05x and 16 0.96 to 0.97x of 8's time
BACKWARD_CHUNK = 8
# The reverse wavefront sets |dh| and |dc| below this to zero at every step.
# In float32, dh decays into the subnormal range over a long window (h =
# 360), where the BLAS runs the step's product up to 80x slower and the
# backward took two to three times float64's; a gradient that small adds
# nothing
FLUSH_BELOW = 1e-30


def _sigmoid(z):
    # tanh form: no masks, no overflow for any z
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def _gate_blocks(a):
    """Views of the input, forget, candidate and output gate blocks along
    the last (4W) axis."""
    width = a.shape[-1] // 4
    return [a[..., k * width:(k + 1) * width] for k in range(4)]


def _gate_affine(width: int, batch: int, dtype):
    """(scale, shift), the (batch, 4W) rows of `dtype` that map tanh of the
    i, f, g, o pre-activations to gate values.

    With sigmoid(z) = 0.5 + 0.5 tanh(z/2), scaling the i/f/o pre-activations
    by 1/2 (exact: a power of two) lets one tanh serve all four gates; the
    shift then turns the i/f/o columns from tanh into sigmoid values, while
    g keeps scale 1 and shift 0. A wavefront scales its matrix's columns by
    row 0 of scale; full rows are faster operands than a broadcast one.
    """
    scale = np.full((batch, 4 * width), 0.5, dtype)
    shift = np.full((batch, 4 * width), 0.5, dtype)
    scale[:, 2 * width:3 * width] = 1.0
    shift[:, 2 * width:3 * width] = 0.0
    return scale, shift


def _lstm_step(z, blocks, cells_prev, cells, hidden, scale, shift, work):
    """One wavefront step from its pre-activations z (B, 4W), the state row
    times the scaled matrix: z becomes the activated gates, whose i, f, g, o
    views are `blocks`, and cells and hidden (B, W) the new cell and hidden
    state; cells may be cells_prev. work (B, W) is scratch.

    Both wavefronts run it, so training's forward and serving agree bit for
    bit.
    """
    gi, gf, gg, go = blocks
    np.tanh(z, out=z)
    z *= scale
    z += shift
    np.multiply(gf, cells_prev, out=cells)
    cells += np.multiply(gi, gg, out=work)
    np.tanh(cells, out=work)
    np.multiply(go, work, out=hidden)


def _gate_derivatives(gates, cells_prev, tanh_c, out):
    """dz, written to `out` (4, steps, B, W) in the layout of `gates`, the
    forward's activated gates as one slab per gate: the derivative of each
    gate w.r.t. its pre-activation, times the factor it meets in dc (i, f,
    g) or in dh (o), from the gates, the cells they started from and tanh
    of the cells they made."""
    gi, gf, gg, go = gates
    dz = np.subtract(1.0, gates, out=out)
    dz_i, dz_f, dz_g, dz_o = dz
    # sigmoid' = s(1 - s) on every gate, then tanh' = 1 - g^2 on g
    dz *= gates
    np.multiply(gg, gg, out=dz_g)
    np.subtract(1.0, dz_g, out=dz_g)
    dz_i *= gg
    dz_f *= cells_prev
    dz_g *= gi
    dz_o *= tanh_c
    return dz


def _forward_steps(w, x, depth):
    """The cache of `depth` layers run over x (B, T, D) as a wavefront of
    S = T + depth - 1 steps that keeps each step.

    The state row [h_0 ... h_{L-1} | x_t | a_0 ... a_{L-1}] of step s times
    w, the unscaled `_wavefront_matrix`, with its columns scaled as
    `_gate_affine` says, gives every layer's pre-activations, layer l at
    time s - l; past T, x_t stays x_{T-1}, and nothing reads what those
    steps make. Each step is that one row product and `_lstm_step`, as in
    `_forward_wavefront`. The cache holds the state rows
    (S + 1, B, K), the activated gates (S, B, 4LW), the cells (S + 1, B, LW)
    from cells[0] = 0, and w; all of them in w's dtype.
    """
    batch, steps, d_in = x.shape
    stacked = w.shape[1] // 4
    n_steps = steps + depth - 1
    scale, shift = _gate_affine(stacked, batch, w.dtype)
    w_scaled = w * scale[0]
    states = np.zeros((n_steps + 1, batch, stacked + d_in + depth), w.dtype)
    states[:steps, :, stacked:stacked + d_in] = x.transpose(1, 0, 2)
    states[steps:n_steps, :, stacked:stacked + d_in] = x[:, -1]
    # a_l is 1 from step l on
    states[:n_steps, :, stacked + d_in:] = (
        np.arange(n_steps)[:, None, None] >= np.arange(depth))
    gates = np.empty((n_steps, batch, 4 * stacked), w.dtype)
    cells = np.zeros((n_steps + 1, batch, stacked), w.dtype)
    work = np.empty((batch, stacked), w.dtype)
    for row, z, blocks, c_prev, c, h in zip(
            states, gates, zip(*_gate_blocks(gates)), cells, cells[1:],
            states[1:, :, :stacked]):
        np.matmul(row, w_scaled, out=z)
        _lstm_step(z, blocks, c_prev, c, h, scale, shift, work)
    return {"states": states, "gates": gates, "cells": cells, "w": w}


def _backward_steps(cache, d_top, depth):
    """The gradient of `_forward_steps`' matrix w from d_top (B, n, W), the
    gradient on the top layer's last n hidden states, reading the cache and
    never writing it. No gradient on x_t is formed: nothing needs one.

    A chunk of BACKWARD_CHUNK steps at a time, the cached gates are copied
    once into slabs (4, chunk, B, LW), one contiguous slab per gate, where
    tanh(c), dz (`_gate_derivatives`) and dc/dh are formed; dz is copied
    once back to the rows (chunk, B, 4LW) that the GEMMs take. The loop
    scales dz[s] by dc (i, f, g) or dh (o), writes dz[s] @ W[:LW].T into
    the carry (2, B, LW) of dh and the next dc, and zeroes every carry
    entry below FLUSH_BELOW in magnitude in one pass; one GEMM adds the
    chunk's state rows times its dz into the gradient. A layer that has not
    started reads only zero state rows and a_l = 0, and layer l's steps from
    T + l on get no gradient (nothing reads what they make), so neither adds
    anything to a layer's block. Every buffer takes w's dtype.

    The walk stops after the first chunk that leaves the carry all zero
    with every d_top injection and every step from T on behind it (a d_top
    on every step, as `lstm_backward` gives, runs them all). This is exact:
    - From that chunk down, every dc, dz, dh and d_w term would be +-0, and
      the flush would keep the carry +0. d_w starts at +0 and no sum makes
      it -0 (rounded to nearest, a sum is -0 only from two -0s), so adding
      those terms changes no bit. Only whole chunks are skipped: each
      chunk's d_w stays one GEMM, summed in the same order.
    - A non-finite value cannot hide in the skipped steps. The forward has
      no flush: a NaN in an early gate or cell reaches the top layer's last
      hidden state, and the head's finiteness check raises first. tanh
      keeps an infinite pre-activation's gates finite, and |c| grows by at
      most 1 a step. An infinite x_t at a skipped step would have made the
      full walk's d_w non-finite; every entry point checks that the
      window is finite (`_as_batch`).
    - Layer l's steps from T + l on, whose output nothing reads, come first
      in reverse order, so they are never skipped.
    At h = 360 the carry flushed to zero 128 to 162 steps from the end in
    every case measured; at h = 24 every step ran.
    """
    states, gates, cells, w = (
        cache[k] for k in ("states", "gates", "cells", "w"))
    n_steps, batch, four_stacked = gates.shape
    stacked = four_stacked // 4
    top = slice(stacked - stacked // depth, stacked)
    # the step that made the first hidden state d_top holds
    first = n_steps - d_top.shape[1]
    # a chunk from here down may end the walk: no step below it gets d_top,
    # and layer 0's steps from T on are behind it
    settled = min(first, n_steps - depth + 1)
    w_h_t = w[:stacked].T
    d_w = np.zeros_like(w)
    carry = np.zeros((2, batch, stacked), w.dtype)
    dh, dc_next = carry
    dc = np.empty_like(dh)
    # one chunk's gate and dz slabs, dz rows and tanh(c), written over for
    # every chunk
    chunk = min(BACKWARD_CHUNK, n_steps)
    gate_slabs = np.empty((4, chunk, batch, stacked), w.dtype)
    dz_slabs = np.empty_like(gate_slabs)
    dz_rows = np.empty((chunk, batch, four_stacked), w.dtype)
    tanh_rows = np.empty((chunk, batch, stacked), w.dtype)
    for lo in reversed(range(0, n_steps, BACKWARD_CHUNK)):
        hi = min(lo + BACKWARD_CHUNK, n_steps)
        n = hi - lo
        slabs = gate_slabs[:, :n]
        slabs[...] = gates[lo:hi].reshape(n, batch, 4, stacked).transpose(2, 0, 1, 3)
        tanh_c = np.tanh(cells[lo + 1:hi + 1], out=tanh_rows[:n])
        dz = dz_rows[:n]
        dz.reshape(n, batch, 4, stacked)[...] = _gate_derivatives(
            slabs, cells[lo:hi], tanh_c, out=dz_slabs[:, :n]).transpose(1, 2, 0, 3)
        # dh reaches dc through h = o * tanh(c)
        dc_dh = np.multiply(tanh_c, tanh_c, out=tanh_c)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= slabs[3]
        for s, dz_s, dc_dh_s, gf_s in zip(range(hi - 1, lo - 1, -1), dz[::-1],
                                          dc_dh[::-1], slabs[1, ::-1]):
            if s >= first:
                dh[:, top] += d_top[:, s - first]
            np.multiply(dh, dc_dh_s, out=dc)
            dc += dc_next
            dz_s *= np.concatenate((dc, dc, dc, dh), axis=1)
            np.multiply(dc, gf_s, out=dc_next)
            np.matmul(dz_s, w_h_t, out=dh)
            carry[np.abs(carry) < FLUSH_BELOW] = 0.0
        d_w += (states[lo:hi].reshape(-1, w.shape[0]).T
                @ dz.reshape(-1, four_stacked))
        # the walk ends at the first chunk from `settled` down that leaves
        # the carry all zero; one entry is read first, as on a live walk it
        # is nonzero, in a fifteenth of carry.any()'s time
        if lo <= settled and not carry[0, 0, 0] and not carry.any():
            break
    return d_w


def lstm_forward(w_x, w_h, b, x):
    """(all hidden states (B, T, W), the cache `lstm_backward` reads) of one
    LSTM layer run over x (B, T, D) from zero hidden and cell states. Gate
    order along the 4W axis is input, forget, candidate, output.

    A depth-one adapter of `_forward_steps`, whose hidden states are a view
    of the cache's state rows [h | x_t | 1]. The benchmark's tracer wraps it
    by name (`Target` "lstm_forward", whose hook reads all four arguments),
    and `bench/test_bench.py` expects its span inside `NetStack.forward`'s.
    """
    w = _wavefront_matrix([(w_x, w_h, b)])
    cache = _forward_steps(w, _as_batch(x, w_x.shape[1], w.dtype)[0], 1)
    return cache["states"][1:, :, :w_h.shape[1]].transpose(1, 0, 2), cache


def lstm_backward(w_x, w_h, x, cache, d_hidden):
    """(d_wx, d_wh, d_b) of one LSTM layer from d_hidden (B, T, W), the
    gradient on every hidden state, reading the cache of `lstm_forward`.

    A depth-one adapter of `_backward_steps`. The benchmark's tracer wraps
    it by name (`Target` "lstm_backward", whose hook reads the first three
    arguments); only that hook reads x.
    """
    d_w = _backward_steps(cache, d_hidden, 1)
    width = w_h.shape[1]
    return d_w[width:-1].T, d_w[:width].T, d_w[-1]


def _as_batch(x, input_dim: int, dtype):
    """(x as a (B, h, input_dim) batch of `dtype`, whether x was one
    window), or InvalidInputError unless it is all finite in `dtype`: a
    float64 beyond float32's range casts to inf."""
    with np.errstate(over="ignore"):
        x = np.asarray(x, dtype=dtype)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3 or x.shape[2] != input_dim:
        raise DimensionError(f"expected (*, h, {input_dim}) input, got {x.shape}")
    if x.shape[1] == 0:
        raise DimensionError("a window needs at least one step")
    if not np.isfinite(x).all():
        raise InvalidInputError("the input window holds a non-finite value")
    return x, single


class NetStack:
    """Stacked LSTM layers plus a fully-connected head."""

    def __init__(self, head_kind: str, input_dim: int, width: int,
                 n_layers: int, horizon: int, seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        """A stack with a random init drawn from `seed`, or, given `params`
        (keys and shapes as in `param_shapes`, all of one dtype), with those
        arrays as its parameters and no random draw."""
        if head_kind not in HEAD_KINDS:
            raise DimensionError(f"unknown head kind {head_kind!r}")
        self.head_kind = head_kind
        self.input_dim = int(input_dim)
        self.width = int(width)
        self.n_layers = int(n_layers)
        self.horizon = int(horizon)
        self.seed = int(seed)
        if head_kind == "classifier":
            self.fc_sizes = [self.width, self.horizon]
        else:
            mid1 = max(self.horizon, self.width // 2)
            mid2 = max(self.horizon, self.width // 4)
            self.fc_sizes = [self.width, mid1, mid2, self.horizon]
        if params is None:
            params = self._init_params(np.random.default_rng(seed))
        elif ([(k, v.shape) for k, v in params.items()]
              != list(self.param_shapes().items())
              or len({v.dtype for v in params.values()}) != 1):
            raise DimensionError(
                f"parameters do not match a {head_kind} stack of width "
                f"{self.width}, {self.n_layers} layers, input {self.input_dim} "
                f"and horizon {self.horizon}, all of one dtype")
        self.params = params

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype: every kernel buffer, input and gradient
        of this stack takes it."""
        return self.params["fc0_b"].dtype

    def astype(self, dtype) -> NetStack:
        """A copy of this stack with its parameters cast to `dtype`."""
        return NetStack(*(getattr(self, name) for name in ARCH),
                        params={k: v.astype(dtype) for k, v in self.params.items()})

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter's key and shape, in the order of `params`."""
        shapes: dict[str, tuple[int, ...]] = {}
        d_in = self.input_dim
        for layer in range(self.n_layers):
            shapes[f"lstm{layer}_wx"] = (4 * self.width, d_in)
            shapes[f"lstm{layer}_wh"] = (4 * self.width, self.width)
            shapes[f"lstm{layer}_b"] = (4 * self.width,)
            d_in = self.width
        for i in range(len(self.fc_sizes) - 1):
            n_in, n_out = self.fc_sizes[i], self.fc_sizes[i + 1]
            shapes[f"fc{i}_w"] = (n_out, n_in)
            shapes[f"fc{i}_b"] = (n_out,)
        return shapes

    def _init_params(self, rng) -> dict[str, np.ndarray]:
        """Biases zero; weights uniform in +-1/sqrt(fan_in), where an LSTM
        weight's fan-in is the width and an affine weight's its input size;
        drawn in float64 and stored as PARAM_DTYPE."""
        params: dict[str, np.ndarray] = {}
        for key, shape in self.param_shapes().items():
            if len(shape) == 1:
                params[key] = np.zeros(shape, PARAM_DTYPE)
                continue
            fan_in = self.width if key.startswith("lstm") else shape[1]
            bound = 1.0 / np.sqrt(fan_in)
            params[key] = rng.uniform(-bound, bound, size=shape).astype(PARAM_DTYPE)
        return params

    @property
    def recurrent_keys(self) -> list[str]:
        return [k for k in self.params if k.startswith("lstm")]

    @property
    def fc_keys(self) -> list[str]:
        return [k for k in self.params if k.startswith("fc")]

    # -- forward ----------------------------------------------------------

    def forward(self, x):
        """Predict f values (probabilities for the classifier head) from a
        batch (B, h, input_dim) or a single window (h, input_dim), keeping
        no gradient cache: `lstm_forward` layer by layer. The tests hold the
        wavefronts to it. The benchmark's tracer wraps it by name (`Target`
        "NetStack.forward"), and `bench/test_bench.py` expects its span,
        then `lstm_forward`'s."""
        x, single = _as_batch(x, self.input_dim, self.dtype)
        seq = x
        for layer in range(self.n_layers):
            if layer:
                # the hidden view, copied in its (T, B, W) order, frees the
                # state rows of the layer below before this layer runs
                seq = seq.copy(order="K")
            seq = lstm_forward(*self._lstm_params(layer), seq)[0]
        out = self._head(seq[:, -1])[-1]
        return out[0] if single else out

    def _forward_cached(self, x):
        """(`forward(x)`, the cache `backward` reads): `_forward_steps` of
        every layer, plus the head's activations as "fc"."""
        x, single = _as_batch(x, self.input_dim, self.dtype)
        cache = _forward_steps(_wavefront_matrix(self._lstm_layers()), x, self.n_layers)
        top = self.n_layers * self.width
        cache["fc"] = self._head(cache["states"][-1, :, top - self.width:top])
        out = cache["fc"][-1]
        return (out[0] if single else out), cache

    def _lstm_params(self, layer: int):
        return (self.params[f"lstm{layer}_wx"], self.params[f"lstm{layer}_wh"],
                self.params[f"lstm{layer}_b"])

    def _lstm_layers(self):
        return [self._lstm_params(layer) for layer in range(self.n_layers)]

    def _head(self, last) -> list[np.ndarray]:
        """The FC head on the top layer's last hidden state (B, W): the
        input and the output of every affine layer."""
        activations = [last]
        n_fc = len(self.fc_sizes) - 1
        out = last
        for i in range(n_fc):
            out = out @ self.params[f"fc{i}_w"].T + self.params[f"fc{i}_b"]
            if self.head_kind == "classifier":
                out = _sigmoid(out)
            elif i < n_fc - 1:
                out = np.tanh(out)
            activations.append(out)
        return activations

    # -- backward ---------------------------------------------------------

    def backward(self, cache, d_out) -> dict[str, np.ndarray]:
        """Backpropagate d_out (gradient w.r.t. the head output; for the
        classifier, w.r.t. the probabilities) into parameter gradients,
        reading the cache of `_forward_cached` and never writing it.

        The LSTM part is the reverse wavefront `_backward_steps` from the
        head's gradient on the top layer's last hidden state; each layer's
        wx, wh and b are blocks of the gradient of the wavefront matrix.
        Two finiteness checks, one over the head's gradients before the
        wavefront runs and one over the wavefront matrix's gradient, raise
        NumericInstabilityError naming the part that failed. d_out is cast
        to the parameters' dtype (the losses give float64), so the whole
        backward runs in it.
        """
        d_out = np.atleast_2d(np.asarray(d_out, dtype=self.dtype))
        head = {}
        activations = cache["fc"]
        n_fc = len(self.fc_sizes) - 1
        delta = d_out
        for i in reversed(range(n_fc)):
            out_i = activations[i + 1]
            if self.head_kind == "classifier":
                delta = delta * out_i * (1.0 - out_i)
            elif i < n_fc - 1:
                delta = delta * (1.0 - out_i * out_i)
            head[f"fc{i}_w"] = delta.T @ activations[i]
            head[f"fc{i}_b"] = delta.sum(axis=0)
            delta = delta @ self.params[f"fc{i}_w"]
        if not np.isfinite(np.concatenate([g.ravel() for g in head.values()])).all():
            raise NumericInstabilityError("non-finite gradient in the head")
        # delta is now the gradient w.r.t. the top layer's last hidden state
        d_w = _backward_steps(cache, delta[:, None], self.n_layers)
        if not np.isfinite(d_w).all():
            raise NumericInstabilityError("non-finite gradient in the LSTM layers")
        d_w = d_w.reshape(-1, 4, self.n_layers, self.width)
        grads = {}
        for layer in range(self.n_layers):
            below, own, alive = _layer_rows(layer, self.n_layers, self.width,
                                            self.input_dim)
            grads[f"lstm{layer}_wx"] = _param_block(d_w[below, :, layer])
            grads[f"lstm{layer}_wh"] = _param_block(d_w[own, :, layer])
            grads[f"lstm{layer}_b"] = d_w[alive, :, layer].reshape(-1)
        grads.update((key, head[key]) for key in self.fc_keys)
        return grads

    def loss(self, out, target, labels, alpha: float = 1.0, beta: float = 1.0):
        """(loss, its gradient w.r.t. out) under this head's selective
        backpropagation: the normal head fits the target at the positions
        labelled normal (~labels), the extreme head at those labelled
        extreme, and the classifier fits the binary labels themselves."""
        labels = np.asarray(labels, dtype=bool)
        if self.head_kind == "classifier":
            return classifier_loss(out, labels.astype(np.float64),
                                   alpha=alpha, beta=beta)
        return masked_mse_loss(out, target,
                               labels if self.head_kind == "extreme" else ~labels)

    def loss_and_grads(self, x, target, labels, alpha: float = 1.0,
                       beta: float = 1.0):
        """Forward + `loss` + full backward for one batch."""
        out, cache = self._forward_cached(x)
        loss, d_out = self.loss(out, target, labels, alpha, beta)
        return loss, self.backward(cache, d_out)


# ---------------------------------------------------------------------------
# Inference over several members


def _wavefront_matrix(layers):
    """The one matrix (K, 4LW), C-ordered, of a wavefront step of the L
    layers' (w_x, w_h, b) of width W and input width D, for K = LW + D + L;
    every wavefront, the stored and the streaming, multiplies by it.

    A row of the state it multiplies is [h_0 ... h_{L-1} | x_t | a_0 ...
    a_{L-1}]: every layer's hidden state, the input, and each layer's alive
    input a_l, which is 1 once layer l has started and 0 before. Its 4LW
    columns are the gate blocks i, f, g, o, each split as [layer 0 ... layer
    L-1] of width W. Layer l's gates read its own hidden state through its
    w_h, the state of layer l - 1 (the input, for layer 0) through its w_x,
    and a_l through its b; every other entry is zero. It takes the result
    dtype of the arrays given.
    """
    depth = len(layers)
    d_in, width = layers[0][0].shape[1], layers[0][1].shape[1]
    stacked = depth * width
    w = np.zeros((stacked + d_in + depth, 4, depth, width),
                 np.result_type(*[p for params in layers for p in params]))
    for layer, (p_wx, p_wh, p_b) in enumerate(layers):
        below, own, alive = _layer_rows(layer, depth, width, d_in)
        w[below, :, layer] = p_wx.reshape(4, width, -1).transpose(2, 0, 1)
        w[own, :, layer] = p_wh.reshape(4, width, -1).transpose(2, 0, 1)
        w[alive, :, layer] = p_b.reshape(4, width)
    return w.reshape(stacked + d_in + depth, 4 * stacked)


def _layer_rows(layer, depth, width, d_in):
    """(below, own, alive): the rows of a wavefront state [h_0 ... h_{L-1} |
    x | a_0 ... a_{L-1}] that layer `layer` reads through lstm{l}_wx,
    lstm{l}_wh and lstm{l}_b."""
    stacked = depth * width
    below = (slice(stacked, stacked + d_in) if layer == 0
             else slice((layer - 1) * width, layer * width))
    own = slice(layer * width, (layer + 1) * width)
    return below, own, stacked + d_in + layer


def _param_block(block):
    """A weight's gradient (4W, n) from its block (n, 4, W) of the
    gradient of `_wavefront_matrix`."""
    return block.transpose(1, 2, 0).reshape(4 * block.shape[2], -1)


def _forward_wavefront(stacks, x):
    """[stack.forward(x) for stack in stacks] for M stacks of equal depth L,
    width W, input width and dtype, all layers of all stacks in T + L - 1
    steps.

    Step s runs layer l at time s - l (Appleyard, Kocisky & Blunsom 2016,
    arXiv:1604.01946): one batched product of each member's state rows
    with its own scaled `_wavefront_matrix`, then `_lstm_step` over every
    layer of every member at once. Each member's slice of the product is the
    GEMM training's `_forward_steps` takes, so a member's output equals its
    `_forward_cached` output bit for bit; the layer-by-layer `forward` sums
    in another order, so it agrees to rounding. Layer l's alive input turns
    1 at step l: before it, every input of the layer is zero, so its gates
    are 1/2, 1/2, 0, 1/2 and its cell and hidden state stay exactly 0. The
    state is a few rows per window, and no per-step array is kept.
    """
    dtype = stacks[0].dtype
    x, single = _as_batch(x, stacks[0].input_dim, dtype)
    batch, steps, d_in = x.shape
    members, depth, width = len(stacks), stacks[0].n_layers, stacks[0].width
    stacked = depth * width
    scale, shift = (a.reshape(members, batch, -1)
                    for a in _gate_affine(stacked, members * batch, dtype))
    w = np.stack([_wavefront_matrix(stack._lstm_layers()) for stack in stacks])
    w *= scale[0, 0]
    state = np.zeros((members, batch, stacked + d_in + depth), dtype)
    hidden, x_t, alive = np.split(state, [stacked, stacked + d_in], axis=2)
    z = np.empty((members, batch, 4 * stacked), dtype)
    blocks = _gate_blocks(z)
    cells = np.zeros((members, batch, stacked), dtype)
    work = np.empty((members, batch, stacked), dtype)
    for s in range(steps + depth - 1):
        if s < steps:  # past T, layer 0 runs on; no output reads it
            x_t[...] = x[:, s]
        if s < depth:
            alive[..., s] = 1.0
        np.matmul(state, w, out=z)
        _lstm_step(z, blocks, cells, cells, hidden, scale, shift, work)
    outs = [stack._head(hidden[m, :, stacked - width:])[-1]
            for m, stack in enumerate(stacks)]
    return [out[0] for out in outs] if single else outs


def forward_members(stacks, x) -> list:
    """The output of each NetStack's `forward(x)`, in order, to rounding:
    that of its `_forward_cached(x)` bit for bit, as `_forward_wavefront`
    says.

    The members see the same input, so every group of stacks with equal
    depth, width, input width and dtype runs as one wavefront
    (`_forward_wavefront`): T + L - 1 steps for all layers of all its
    members, and no gradient cache is kept. Each head reads its own
    member's top hidden state.
    """
    outs = [None] * len(stacks)
    groups: dict[tuple, list[int]] = {}
    for i, stack in enumerate(stacks):
        key = (stack.n_layers, stack.width, stack.input_dim, stack.dtype)
        groups.setdefault(key, []).append(i)
    for idx in groups.values():
        for i, out in zip(idx, _forward_wavefront([stacks[i] for i in idx], x)):
            outs[i] = out
    return outs


# ---------------------------------------------------------------------------
# Checkpoints


# A checkpoint file is MAGIC, the header length as a little-endian uint64, a
# JSON header (the version, the parameters' dtype as "<f4" or "<f8", the
# architecture, the caller's extra meta and every parameter's key and shape)
# padded with spaces so the data starts at a multiple of DATA_ALIGN bytes,
# then every parameter as one contiguous little-endian blob of that dtype in
# the model's key order.
MAGIC = b"\x93NECCKPT"
# the architecture: a NetStack's constructor arguments but `params`, in
# their order, which is also the header's
ARCH = ("head_kind", "input_dim", "width", "n_layers", "horizon", "seed")
DATA_ALIGN = 64
_PREFIX = len(MAGIC) + 8
_ZIP_MAGIC = b"PK\x03\x04"  # version 1 was a zip of .npy members
_DTYPES = ("<f4", "<f8")


def _retrain(path, version) -> CheckpointError:
    return CheckpointError(
        f"{path}: checkpoint version {version} was written by an older "
        f"version of necplus and cannot be read (expected version "
        f"{CHECKPOINT_VERSION}); retrain the run")


def save_checkpoint(path: str | Path, model: NetStack,
                    extra_meta: dict | None = None) -> None:
    """Write a versioned binary container in the parameters' dtype; loading
    round-trips bit-exactly."""
    dtype = model.dtype.newbyteorder("<").str
    meta = {
        "version": CHECKPOINT_VERSION,
        "dtype": dtype,
        **{name: getattr(model, name) for name in ARCH},
    }
    if extra_meta:
        meta["extra"] = extra_meta
    meta["params"] = [[key, list(arr.shape)] for key, arr in model.params.items()]
    header = json.dumps(meta).encode()
    header += b" " * (-(_PREFIX + len(header)) % DATA_ALIGN)
    blob = np.concatenate([arr.ravel() for arr in model.params.values()])
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<Q", len(header)) + header)
        fh.write(blob.astype(dtype, copy=False).tobytes())


def load_checkpoint(path: str | Path) -> tuple[NetStack, dict]:
    """Read a checkpoint written by `save_checkpoint`; returns the model and
    the stored meta (with the caller's `extra_meta` under "extra").

    The payload is read straight into one array of the header's dtype
    (float32 or float64) allocated by numpy, so the parameters, views of it,
    are aligned and writable and keep the dtype they were saved in; the
    stack is built from them without a random init. A file of an older
    version (1 or 2, which held float64 only) raises CheckpointError asking
    to retrain the run.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"missing checkpoint {path}")
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            prefix = fh.read(_PREFIX)
            if prefix.startswith(_ZIP_MAGIC):
                raise _retrain(path, 1)
            if len(prefix) < _PREFIX or not prefix.startswith(MAGIC):
                raise ValueError("not a necplus checkpoint")
            (header_len,) = struct.unpack("<Q", prefix[len(MAGIC):])
            meta = json.loads(fh.read(header_len))
            version = meta.get("version")
            if version in range(1, CHECKPOINT_VERSION):
                raise _retrain(path, version)
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint version {version} "
                    f"unsupported (expected {CHECKPOINT_VERSION})")
            if meta["dtype"] not in _DTYPES:
                raise ValueError(f"unsupported dtype {meta['dtype']!r}")
            dtype = np.dtype(meta["dtype"])
            shapes = [(key, tuple(shape)) for key, shape in meta["params"]]
            sizes = [math.prod(shape) for _, shape in shapes]
            expected = _PREFIX + header_len + dtype.itemsize * sum(sizes)
            if size != expected:
                raise ValueError(f"{size} bytes, header declares {expected}")
            blob = np.empty(sum(sizes), dtype=dtype)
            if fh.readinto(blob) != blob.nbytes:
                raise ValueError("short payload")
        parts = np.split(blob, np.cumsum(sizes)[:-1])
        params = {key: part.reshape(shape) for (key, shape), part in zip(shapes, parts)}
        for key, value in params.items():
            if not np.isfinite(value).all():
                raise ValueError(f"non-finite parameter {key}")
        model = NetStack(*(meta[name] for name in ARCH), params=params)
    except (AttributeError, KeyError, TypeError, ValueError, OSError,
            DimensionError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc
    return model, meta

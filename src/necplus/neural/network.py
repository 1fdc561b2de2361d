"""Stacked-LSTM networks with a fully-connected head, implemented directly
in numpy with analytic backpropagation through time.

The LSTM kernels work time-major: the input projection of all steps is one
GEMM before the recurrence, and the weight gradients are GEMMs over many
steps at once, so the Python loop over timesteps holds only the true
h -> h dependency. Every sigmoid uses the form 0.5 + 0.5 tanh(z/2),
which needs no masks and cannot overflow; inside a kernel one tanh covers
all four gate blocks of a step.

A :class:`NetStack` holds one of the three member models: the normal (N) and
extreme (E) regressors use 3 tapering affine layers after the top LSTM; the
classifier (C) uses a single affine layer of f units under a sigmoid.
Parameters live in a flat name -> array dict so optimizers and the gradient
checker can treat them uniformly.

The layers run as a wavefront: step s runs layer l at time s - l over one
state row per window. Training keeps each of the T + L - 1 steps
(`_forward_steps`) and walks them back a chunk at a time
(`_backward_steps`). `lstm_forward`/`lstm_backward` are depth-one adapters
of the two, kept for the benchmark's tracer; `NetStack.forward`, the
reference forward, runs layer by layer through `lstm_forward`. Serving
(`forward_members`) runs every member of equal depth in one wavefront that
keeps a few rows per window (`_forward_wavefront`).
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError, DimensionError, NumericInstabilityError
from .losses import classifier_loss, masked_mse_loss

CHECKPOINT_VERSION = 2
HEAD_KINDS = ("normal", "extreme", "classifier")
# Steps of the reverse wavefront whose tanh(c) and dz `_backward_steps`
# forms at once, in buffers of this many steps however long the window. At
# B = 32, W = 16, L = 2, chunks of 8 and 16 steps ran at the same speed and
# faster than 32, and 8 has the smallest peak
BACKWARD_CHUNK = 8


def _sigmoid(z):
    # tanh form: no masks, no overflow for any z
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def _gate_blocks(a):
    """Views of the input, forget, candidate and output gate blocks along
    the last (4W) axis."""
    width = a.shape[-1] // 4
    return [a[..., k * width:(k + 1) * width] for k in range(4)]


def _gate_affine(width: int):
    """Per-column (scale, shift) over the i, f, g, o gate blocks.

    With sigmoid(z) = 0.5 + 0.5 tanh(z/2), scaling the i/f/o pre-activations
    by 1/2 (exact: a power of two) lets one tanh serve all four gates; the
    shift then turns the i/f/o columns from tanh into sigmoid values, while
    g keeps scale 1 and shift 0.
    """
    scale = np.full(4 * width, 0.5)
    shift = np.full(4 * width, 0.5)
    scale[2 * width:3 * width] = 1.0
    shift[2 * width:3 * width] = 0.0
    return scale, shift


def _gate_derivatives(gates, cells_prev, tanh_c, out):
    """dz (steps, B, 4W), written to `out`: the derivative of each activated
    gate w.r.t. its pre-activation, times the factor it meets in dc (i, f,
    g) or in dh (o), from the forward's gates, the cells they started from
    and tanh of the cells they made."""
    gi, gf, gg, go = _gate_blocks(gates)
    dz = np.subtract(1.0, gates, out=out)
    dz_i, dz_f, dz_g, dz_o = _gate_blocks(dz)
    # sigmoid' = s(1 - s) on every block, then tanh' = 1 - g^2 on g
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
    w, the unscaled `_wavefront_matrix`, gives every layer's gates, layer l
    at time s - l; x is zero past T. The input and alive projection of all
    steps is one GEMM before the loop, and one tanh covers a step's gates
    (see `_gate_affine`). The cache holds the state rows (S + 1, B, K), the
    activated gates (S, B, 4LW), the cells (S + 1, B, LW) from cells[0] = 0,
    and w.
    """
    batch, steps, d_in = x.shape
    stacked = w.shape[1] // 4
    n_steps = steps + depth - 1
    scale, shift = _gate_affine(stacked)
    w_scaled = w * scale
    states = np.zeros((n_steps + 1, batch, stacked + d_in + depth))
    states[:steps, :, stacked:stacked + d_in] = x.transpose(1, 0, 2)
    # a_l is 1 from step l on
    states[:n_steps, :, stacked + d_in:] = (
        np.arange(n_steps)[:, None, None] >= np.arange(depth))
    gates = np.empty((n_steps, batch, 4 * stacked))
    np.matmul(states[:n_steps, :, stacked:].reshape(-1, d_in + depth),
              w_scaled[stacked:], out=gates.reshape(-1, 4 * stacked))
    w_h = w_scaled[:stacked]
    # full rows: a contiguous operand is faster than a broadcast one
    scale_rows = np.tile(scale, (batch, 1))
    shift_rows = np.tile(shift, (batch, 1))
    cells = np.zeros((n_steps + 1, batch, stacked))
    tanh_c = np.empty((batch, stacked))
    gi, gf, gg, go = _gate_blocks(gates)
    input_part = np.empty((batch, stacked))
    for s in range(n_steps):
        z = gates[s]
        if s:
            z += states[s, :, :stacked] @ w_h
        np.tanh(z, out=z)
        z *= scale_rows
        z += shift_rows
        np.multiply(gf[s], cells[s], out=cells[s + 1])
        cells[s + 1] += np.multiply(gi[s], gg[s], out=input_part)
        np.tanh(cells[s + 1], out=tanh_c)
        np.multiply(go[s], tanh_c, out=states[s + 1, :, :stacked])
    return {"states": states, "gates": gates, "cells": cells, "w": w}


def _backward_steps(cache, d_top, depth, d_x=None):
    """The gradient of `_forward_steps`' matrix w from d_top (B, n, W), the
    gradient on the top layer's last n hidden states, reading the cache and
    never writing it; d_x (S, B, D), if given, receives the gradient on x_t.

    A chunk of BACKWARD_CHUNK steps at a time, tanh(c) and dz are formed
    from the cache, the loop scales dz[s] by dc (i, f, g) or dh (o) and
    feeds dz[s] @ W[:LW].T back one step, and one GEMM adds the chunk's
    state rows times its dz into the gradient. A layer that has not started
    reads only zero state rows and a_l = 0, and a step past T gets no
    gradient, so neither adds anything to a layer's block.
    """
    states, gates, cells, w = (
        cache[k] for k in ("states", "gates", "cells", "w"))
    n_steps, batch, four_stacked = gates.shape
    stacked = four_stacked // 4
    top = slice(stacked - stacked // depth, stacked)
    # the step that made the first hidden state d_top holds
    first = n_steps - d_top.shape[1]
    w_h_t = w[:stacked].T
    _, gf, _, go = _gate_blocks(gates)
    d_w = np.zeros_like(w)
    dh = np.zeros((batch, stacked))
    dc_next = np.zeros((batch, stacked))
    # one chunk's dz and tanh(c), written over for every chunk
    dz_rows = np.empty((min(BACKWARD_CHUNK, n_steps), batch, four_stacked))
    tanh_rows = np.empty(dz_rows.shape[:2] + (stacked,))
    for lo in reversed(range(0, n_steps, BACKWARD_CHUNK)):
        hi = min(lo + BACKWARD_CHUNK, n_steps)
        tanh_c = np.tanh(cells[lo + 1:hi + 1], out=tanh_rows[:hi - lo])
        dz = _gate_derivatives(gates[lo:hi], cells[lo:hi], tanh_c,
                               out=dz_rows[:hi - lo])
        # dh reaches dc through h = o * tanh(c)
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
        d_w += (states[lo:hi].reshape(-1, w.shape[0]).T
                @ dz.reshape(-1, four_stacked))
        if d_x is not None:
            np.matmul(dz, w[stacked:-depth].T, out=d_x[lo:hi])
    return d_w


def lstm_forward(w_x, w_h, b, x):
    """Run one LSTM layer over a batch of sequences.

    x has shape (B, T, D); returns all hidden states (B, T, W) plus the
    cache needed for backpropagation. Initial hidden and cell states are
    zero. Gate order along the 4W axis is input, forget, candidate, output.

    A depth-one adapter of `_forward_steps`, kept for the benchmark's
    tracer, which wraps it by name: the hidden states are a view of the
    cache's state rows [h | x_t | 1].
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != w_x.shape[1]:
        raise DimensionError(
            f"input shape {x.shape} incompatible with weight shape {w_x.shape}")
    cache = _forward_steps(np.vstack([w_h.T, w_x.T, b[None]]), x, 1)
    return cache["states"][1:, :, :w_h.shape[1]].transpose(1, 0, 2), cache


def lstm_backward(w_x, w_h, x, hidden, cache, d_hidden):
    """Backpropagate through one LSTM layer.

    d_hidden (B, T, W) is the gradient w.r.t. every hidden state; returns
    (d_wx, d_wh, d_b, d_x). The cache of `lstm_forward` is read, never
    written.

    A depth-one adapter of `_backward_steps`, kept for the benchmark's
    tracer, which wraps it by name; hidden is read only for the signature,
    as the cache holds the states.
    """
    d_x = np.empty((x.shape[1], x.shape[0], x.shape[2]))
    d_w = _backward_steps(cache, d_hidden, 1, d_x)
    width = w_h.shape[1]
    return d_w[width:-1].T, d_w[:width].T, d_w[-1], d_x.transpose(1, 0, 2)


def _as_batch(x, input_dim: int):
    """(x as a (B, h, input_dim) float batch, whether x was one window)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3 or x.shape[2] != input_dim:
        raise DimensionError(f"expected (*, h, {input_dim}) input, got {x.shape}")
    if x.shape[1] == 0:
        raise DimensionError("a window needs at least one step")
    return x, single


class NetStack:
    """Stacked LSTM layers plus a fully-connected head."""

    def __init__(self, head_kind: str, input_dim: int, width: int,
                 n_layers: int, horizon: int, seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        """A stack with a random init drawn from `seed`, or, given `params`
        (keys and shapes as in `param_shapes`), with those arrays as its
        parameters and no random draw."""
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
              != list(self.param_shapes().items())):
            raise DimensionError(
                f"parameters do not match a {head_kind} stack of width "
                f"{self.width}, {self.n_layers} layers, input {self.input_dim} "
                f"and horizon {self.horizon}")
        self.params = params

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
        weight's fan-in is the width and an affine weight's its input size."""
        params: dict[str, np.ndarray] = {}
        for key, shape in self.param_shapes().items():
            if len(shape) == 1:
                params[key] = np.zeros(shape)
                continue
            fan_in = self.width if key.startswith("lstm") else shape[1]
            bound = 1.0 / np.sqrt(fan_in)
            params[key] = rng.uniform(-bound, bound, size=shape)
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
        no gradient cache: `lstm_forward` layer by layer. Training's
        validation runs it, and the wavefronts of `_forward_cached` and
        `forward_members` are held to it."""
        x, single = _as_batch(x, self.input_dim)
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
        x, single = _as_batch(x, self.input_dim)
        cache = _forward_steps(_wavefront_matrix([self]), x, self.n_layers)
        top = self.n_layers * self.width
        cache["fc"] = self._head(cache["states"][-1, :, top - self.width:top])
        out = cache["fc"][-1]
        return (out[0] if single else out), cache

    def _lstm_params(self, layer: int):
        return (self.params[f"lstm{layer}_wx"], self.params[f"lstm{layer}_wh"],
                self.params[f"lstm{layer}_b"])

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
        """
        d_out = np.atleast_2d(np.asarray(d_out, dtype=np.float64))
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        activations = cache["fc"]
        n_fc = len(self.fc_sizes) - 1
        delta = d_out
        for i in reversed(range(n_fc)):
            out_i = activations[i + 1]
            if self.head_kind == "classifier":
                delta = delta * out_i * (1.0 - out_i)
            elif i < n_fc - 1:
                delta = delta * (1.0 - out_i * out_i)
            grads[f"fc{i}_w"] = delta.T @ activations[i]
            grads[f"fc{i}_b"] = delta.sum(axis=0)
            delta = delta @ self.params[f"fc{i}_w"]
        # delta is now the gradient w.r.t. the top layer's last hidden state
        d_w = _backward_steps(cache, delta[:, None], self.n_layers)
        d_w = d_w.reshape(-1, 4, self.n_layers, self.width)
        for layer in range(self.n_layers):
            below, own, alive = _layer_rows(layer, self.n_layers, self.width,
                                            self.input_dim, 0, self.width)
            grads[f"lstm{layer}_wx"] = _param_block(d_w[below, :, layer])
            grads[f"lstm{layer}_wh"] = _param_block(d_w[own, :, layer])
            grads[f"lstm{layer}_b"] = d_w[alive, :, layer].reshape(-1)
        for key, grad in grads.items():
            if not np.all(np.isfinite(grad)):
                raise NumericInstabilityError(f"non-finite gradient in {key}")
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


def _wavefront_matrix(stacks):
    """The one matrix of a wavefront step for stacks of equal depth L and
    input width D, of merged width M (the sum of their widths).

    A row of the state it multiplies is [h_0 ... h_{L-1} | x_t | a_0 ...
    a_{L-1}]: every layer's hidden state, the input, and each layer's alive
    input a_l, which is 1 once layer l has started and 0 before. Its 4·L·M
    columns are the gate blocks i, f, g, o, each split as [layer 0 ... layer
    L-1] of width M, and member m owns columns lo:hi of every layer's M.
    Layer l's gates read its own hidden state through lstm{l}_wh, the state
    of layer l - 1 (the input, for layer 0) through lstm{l}_wx, and a_l
    through lstm{l}_b. Every other entry is zero: a member reads only its
    own hidden slices.
    """
    depth, d_in = stacks[0].n_layers, stacks[0].input_dim
    bounds = np.cumsum([0] + [stack.width for stack in stacks])
    merged = bounds[-1]
    stacked = depth * merged
    w = np.zeros((stacked + d_in + depth, 4, depth, merged))
    for stack, lo, hi in zip(stacks, bounds[:-1], bounds[1:]):
        for layer in range(depth):
            p_wx, p_wh, p_b = stack._lstm_params(layer)
            below, own, alive = _layer_rows(layer, depth, merged, d_in, lo, hi)
            w[below, :, layer, lo:hi] = p_wx.reshape(4, hi - lo, -1).transpose(2, 0, 1)
            w[own, :, layer, lo:hi] = p_wh.reshape(4, hi - lo, -1).transpose(2, 0, 1)
            w[alive, :, layer, lo:hi] = p_b.reshape(4, hi - lo)
    return w.reshape(stacked + d_in + depth, 4 * stacked)


def _layer_rows(layer, depth, merged, d_in, lo, hi):
    """(below, own, alive): the rows of a wavefront state [h_0 ... h_{L-1} |
    x | a_0 ... a_{L-1}] that layer `layer` of the member owning lo:hi of
    each layer's merged width reads through lstm{l}_wx, lstm{l}_wh and
    lstm{l}_b."""
    stacked = depth * merged
    below = (slice(stacked, stacked + d_in) if layer == 0
             else slice((layer - 1) * merged + lo, (layer - 1) * merged + hi))
    own = slice(layer * merged + lo, layer * merged + hi)
    return below, own, stacked + d_in + layer


def _param_block(block):
    """A weight's gradient (4W, n) from its block (n, 4, W) of the
    gradient of `_wavefront_matrix`."""
    return block.transpose(1, 2, 0).reshape(4 * block.shape[2], -1)


def _forward_wavefront(stacks, x):
    """[stack.forward(x) for stack in stacks] for stacks of equal depth L
    and input width, all layers of all stacks in T + L - 1 steps.

    Step s runs layer l at time s - l (Appleyard, Kocisky & Blunsom 2016,
    arXiv:1604.01946): one product of the state rows with
    `_wavefront_matrix`, then `_forward_steps`' elementwise step over every
    layer at once. Layer l's alive input turns 1 at step l: before it, every
    input of the layer is zero, so its gates are 1/2, 1/2, 0, 1/2 and its
    cell and hidden state stay exactly 0. The state is a few rows per
    window, and no per-step array is kept. The sums differ in order
    from the layer-by-layer `forward`, so the outputs agree to rounding.
    """
    x, single = _as_batch(x, stacks[0].input_dim)
    batch, steps, d_in = x.shape
    depth = stacks[0].n_layers
    bounds = np.cumsum([0] + [stack.width for stack in stacks])
    merged = bounds[-1]
    stacked = depth * merged
    scale, shift = _gate_affine(stacked)
    w = _wavefront_matrix(stacks)
    w *= scale
    state = np.zeros((batch, stacked + d_in + depth))
    hidden, x_t, alive = np.split(state, [stacked, stacked + d_in], axis=1)
    z = np.empty((batch, 4 * stacked))
    gi, gf, gg, go = _gate_blocks(z)
    scale_rows = np.tile(scale, (batch, 1))
    shift_rows = np.tile(shift, (batch, 1))
    cells = np.zeros((batch, stacked))
    tanh_c = np.empty((batch, stacked))
    input_part = np.empty((batch, stacked))
    for s in range(steps + depth - 1):
        if s < steps:  # past T, layer 0 runs on; no output reads it
            x_t[...] = x[:, s]
        if s < depth:
            alive[:, s] = 1.0
        np.matmul(state, w, out=z)
        np.tanh(z, out=z)
        z *= scale_rows
        z += shift_rows
        cells *= gf
        cells += np.multiply(gi, gg, out=input_part)
        np.tanh(cells, out=tanh_c)
        np.multiply(go, tanh_c, out=hidden)
    top = hidden[:, stacked - merged:]
    outs = [stack._head(top[:, lo:hi])[-1]
            for stack, lo, hi in zip(stacks, bounds[:-1], bounds[1:])]
    return [out[0] for out in outs] if single else outs


def forward_members(stacks, x) -> list:
    """The output of each member's `forward(x)`, in order, to rounding.

    The members see the same input, so every group of NetStacks with equal
    depth and input width runs as one wavefront (`_forward_wavefront`):
    T + L - 1 steps for all layers of all its members, and no gradient
    cache is kept. Each head reads its own slice of the top hidden state.
    Any other member runs its own `forward`.
    """
    outs = [None] * len(stacks)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, stack in enumerate(stacks):
        if isinstance(stack, NetStack):
            groups.setdefault((stack.n_layers, stack.input_dim), []).append(i)
        else:
            outs[i] = stack.forward(x)
    for idx in groups.values():
        for i, out in zip(idx, _forward_wavefront([stacks[i] for i in idx], x)):
            outs[i] = out
    return outs


# ---------------------------------------------------------------------------
# Gradient checking


def gradient_check(model: NetStack, x, target, labels, alpha: float = 1.0,
                   beta: float = 1.0, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter. Intended for small models (W <= 8, h <= 12)."""
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


# ---------------------------------------------------------------------------
# Checkpoints


# A checkpoint file is MAGIC, the header length as a little-endian uint64, a
# JSON header (the architecture, the caller's extra meta and every
# parameter's key and shape) padded with spaces so the data starts at a
# multiple of DATA_ALIGN bytes, then every parameter as one contiguous
# little-endian float64 blob in the model's key order.
MAGIC = b"\x93NECCKPT"
DATA_ALIGN = 64
_PREFIX = len(MAGIC) + 8
_ZIP_MAGIC = b"PK\x03\x04"  # version 1 was a zip of .npy members


def save_checkpoint(path: str | Path, model: NetStack,
                    extra_meta: dict | None = None) -> None:
    """Write a versioned binary container; loading round-trips bit-exactly."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "head_kind": model.head_kind,
        "input_dim": model.input_dim,
        "width": model.width,
        "n_layers": model.n_layers,
        "horizon": model.horizon,
        "seed": model.seed,
    }
    if extra_meta:
        meta["extra"] = extra_meta
    meta["params"] = [[key, list(arr.shape)] for key, arr in model.params.items()]
    header = json.dumps(meta).encode()
    header += b" " * (-(_PREFIX + len(header)) % DATA_ALIGN)
    blob = np.concatenate([arr.ravel() for arr in model.params.values()])
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<Q", len(header)) + header)
        fh.write(blob.astype("<f8", copy=False).tobytes())


def load_checkpoint(path: str | Path) -> tuple[NetStack, dict]:
    """Read a checkpoint written by `save_checkpoint`; returns the model and
    the stored meta (with the caller's `extra_meta` under "extra").

    The payload is read straight into one float64 array allocated by numpy,
    so the parameters, views of it, are aligned and writable; the stack is
    built from them without a random init.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"missing checkpoint {path}")
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            prefix = fh.read(_PREFIX)
            if prefix.startswith(_ZIP_MAGIC):
                raise CheckpointError(
                    f"{path}: checkpoint version 1 was written by an older "
                    f"version of necplus and cannot be read (expected version "
                    f"{CHECKPOINT_VERSION}); retrain the run")
            if len(prefix) < _PREFIX or not prefix.startswith(MAGIC):
                raise ValueError("not a necplus checkpoint")
            (header_len,) = struct.unpack("<Q", prefix[len(MAGIC):])
            meta = json.loads(fh.read(header_len))
            if meta.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint version {meta.get('version')} "
                    f"unsupported (expected {CHECKPOINT_VERSION})")
            shapes = [(key, tuple(shape)) for key, shape in meta["params"]]
            sizes = [math.prod(shape) for _, shape in shapes]
            expected = _PREFIX + header_len + 8 * sum(sizes)
            if size != expected:
                raise ValueError(f"{size} bytes, header declares {expected}")
            blob = np.empty(sum(sizes), dtype="<f8")
            if fh.readinto(blob) != blob.nbytes:
                raise ValueError("short payload")
        parts = np.split(blob, np.cumsum(sizes)[:-1])
        params = {key: part.reshape(shape) for (key, shape), part in zip(shapes, parts)}
        model = NetStack(meta["head_kind"], meta["input_dim"], meta["width"],
                         meta["n_layers"], meta["horizon"], meta["seed"],
                         params=params)
    except (AttributeError, KeyError, TypeError, ValueError, OSError,
            DimensionError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc
    return model, meta

"""Stacked-LSTM networks with a fully-connected head, implemented directly
in numpy with analytic backpropagation through time.

The LSTM kernel works time-major: the input projection of all steps is one
GEMM before the recurrence, and the weight gradients are GEMMs over all
steps after it, so the Python loop over timesteps holds only the true
h -> h dependency. Every sigmoid uses the form 0.5 + 0.5 tanh(z/2), which
needs no masks and cannot overflow; inside the kernel one tanh covers all
four gate blocks of a step.

A :class:`NetStack` holds one of the three member models: the normal (N) and
extreme (E) regressors use 3 tapering affine layers after the top LSTM; the
classifier (C) uses a single affine layer of f units under a sigmoid.
Parameters live in a flat name -> array dict so optimizers and the gradient
checker can treat them uniformly.

Two paths run a forward. `NetStack.forward` is the reference: one stack,
layer by layer through `lstm_forward`; training and its validation use it.
Serving uses `forward_members`, which runs every layer of every member as
one wavefront of T + L - 1 steps over a state of a few rows per window
(`_forward_wavefront`); its outputs match the reference to rounding.
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


def lstm_forward(w_x, w_h, b, x):
    """Run one LSTM layer over a batch of sequences.

    x has shape (B, T, D); returns all hidden states (B, T, W) plus the
    cache needed for backpropagation. Initial hidden and cell states are
    zero. Gate order along the 4W axis is input, forget, candidate, output.

    The input projection x @ w_x.T + b of all T steps is one GEMM before
    the recurrence. Each step adds h @ w_h.T and applies one tanh to the
    whole gate block, the sigmoids in their tanh form (see `_gate_affine`).
    Everything is time-major: the hidden states are returned as a (B, T, W)
    view of a (T, B, W) array, and the cache is (gates, cells, tanh_c) with
    gates (T, B, 4W) the activated i/f/g/o values, cells (T+1, B, W) the
    cell states with cells[0] = 0, and tanh_c (T, B, W) their tanh.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != w_x.shape[1]:
        raise DimensionError(
            f"input shape {x.shape} incompatible with weight shape {w_x.shape}")
    batch, steps, d_in = x.shape
    width = w_h.shape[1]
    scale, shift = _gate_affine(width)
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(-1, d_in)
    gates = np.empty((steps, batch, 4 * width))
    np.matmul(x_tm, (w_x * scale[:, None]).T, out=gates.reshape(-1, 4 * width))
    gates += b * scale
    w_h_t = (w_h * scale[:, None]).T
    # full rows: a contiguous operand is faster than a broadcast one
    scale_rows = np.tile(scale, (batch, 1))
    shift_rows = np.tile(shift, (batch, 1))
    cells = np.zeros((steps + 1, batch, width))
    tanh_c = np.empty((steps, batch, width))
    hidden = np.empty((steps, batch, width))
    gi, gf, gg, go = _gate_blocks(gates)
    input_part = np.empty((batch, width))
    for t in range(steps):
        z = gates[t]
        if t:
            z += hidden[t - 1] @ w_h_t
        np.tanh(z, out=z)
        z *= scale_rows
        z += shift_rows
        np.multiply(gf[t], cells[t], out=cells[t + 1])
        cells[t + 1] += np.multiply(gi[t], gg[t], out=input_part)
        np.tanh(cells[t + 1], out=tanh_c[t])
        np.multiply(go[t], tanh_c[t], out=hidden[t])
    return hidden.transpose(1, 0, 2), (gates, cells, tanh_c)


def lstm_backward(w_x, w_h, x, hidden, cache, d_hidden):
    """Backpropagate through one LSTM layer.

    d_hidden (B, T, W) is the gradient w.r.t. every hidden state; returns
    (d_wx, d_wh, d_b, d_x). The cache of `lstm_forward` is read, never
    written.

    The local derivatives of all four gates for all steps are formed first
    in one time-major dz (T, B, 4W). The loop over steps then keeps only the
    dh/dc recurrence: it scales dz[t] in place by dc (i, f, g) or dh (o) and
    feeds dz[t] @ w_h back. The weight, bias and input gradients are single
    GEMMs or reductions over all steps after the loop.
    """
    gates, cells, tanh_c = cache
    steps, batch, four_w = gates.shape
    width = four_w // 4
    d_in = x.shape[2]
    gi, gf, gg, go = _gate_blocks(gates)
    dz = np.empty_like(gates)
    dz_i, dz_f, dz_g, dz_o = _gate_blocks(dz)
    # sigmoid' = s(1 - s) on every block, then tanh' = 1 - g^2 on g
    np.subtract(1.0, gates, out=dz)
    dz *= gates
    np.multiply(gg, gg, out=dz_g)
    np.subtract(1.0, dz_g, out=dz_g)
    # times the factor each gate meets in dc (i, f, g) or in dh (o)
    dz_i *= gg
    dz_f *= cells[:-1]
    dz_g *= gi
    dz_o *= tanh_c
    # dh reaches dc through h = o * tanh(c)
    dc_dh = np.multiply(tanh_c, tanh_c)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= go
    d_hidden = d_hidden.transpose(1, 0, 2)
    dh_next = np.zeros((batch, width))
    dc_next = np.zeros((batch, width))
    for t in reversed(range(steps)):
        dh = d_hidden[t] + dh_next
        dc = dh * dc_dh[t]
        dc += dc_next
        dz[t] *= np.concatenate((dc, dc, dc, dh), axis=1)
        np.multiply(dc, gf[t], out=dc_next)
        dh_next = dz[t] @ w_h
    dz_flat = dz.reshape(-1, four_w)
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(-1, d_in)
    h_prev = hidden.transpose(1, 0, 2)[:-1].reshape(-1, width)
    d_wx = dz_flat.T @ x_tm
    d_wh = dz[1:].reshape(-1, four_w).T @ h_prev
    d_b = dz_flat.sum(axis=0)
    d_x = (dz_flat @ w_x).reshape(steps, batch, d_in).transpose(1, 0, 2)
    return d_wx, d_wh, d_b, d_x


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
        no gradient cache: `lstm_forward` layer by layer, the reference
        that training's validation and `forward_members` are held to."""
        x, single = _as_batch(x, self.input_dim)
        seq = x
        for layer in range(self.n_layers):
            # [0]: the layer's cache is freed before the next layer allocates its own
            seq = lstm_forward(*self._lstm_params(layer), seq)[0]
        out = self._head(seq[:, -1])[-1]
        return out[0] if single else out

    def _forward_cached(self, x):
        """(`forward(x)`, the cache `backward` reads): the input, each
        layer's hidden states and LSTM cache, and the head's activations."""
        x, single = _as_batch(x, self.input_dim)
        caches = []
        seq = x
        for layer in range(self.n_layers):
            seq, cache = lstm_forward(*self._lstm_params(layer), seq)
            caches.append((seq, cache))
        activations = self._head(seq[:, -1])
        out = activations[-1]
        return (out[0] if single else out), {"x": x, "lstm": caches,
                                             "fc": activations}

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
        classifier, w.r.t. the probabilities) into parameter gradients."""
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
        batch = delta.shape[0]
        d_hidden = None
        for layer in reversed(range(self.n_layers)):
            hidden, layer_cache = cache["lstm"][layer]
            if d_hidden is None:
                d_hidden = np.zeros_like(hidden)
                d_hidden[:, -1] = delta
            x_in = cache["lstm"][layer - 1][0] if layer > 0 else cache["x"]
            d_wx, d_wh, d_b, d_x = lstm_backward(
                self.params[f"lstm{layer}_wx"], self.params[f"lstm{layer}_wh"],
                x_in, hidden, layer_cache, d_hidden)
            grads[f"lstm{layer}_wx"] = d_wx
            grads[f"lstm{layer}_wh"] = d_wh
            grads[f"lstm{layer}_b"] = d_b
            d_hidden = d_x
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
            below = (slice(stacked, stacked + d_in) if layer == 0
                     else slice((layer - 1) * merged + lo, (layer - 1) * merged + hi))
            own = slice(layer * merged + lo, layer * merged + hi)
            w[below, :, layer, lo:hi] = p_wx.reshape(4, hi - lo, -1).transpose(2, 0, 1)
            w[own, :, layer, lo:hi] = p_wh.reshape(4, hi - lo, -1).transpose(2, 0, 1)
            w[stacked + d_in + layer, :, layer, lo:hi] = p_b.reshape(4, hi - lo)
    return w.reshape(stacked + d_in + depth, 4 * stacked)


def _forward_wavefront(stacks, x):
    """[stack.forward(x) for stack in stacks] for stacks of equal depth L
    and input width, all layers of all stacks in T + L - 1 steps.

    Step s runs layer l at time s - l (Appleyard, Kocisky & Blunsom 2016,
    arXiv:1604.01946): one product of the state rows with
    `_wavefront_matrix`, then `lstm_forward`'s elementwise step over every
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

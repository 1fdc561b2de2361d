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
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import CheckpointError, DimensionError, NumericInstabilityError
from .losses import classifier_loss, masked_mse_loss

CHECKPOINT_VERSION = 1
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


class NetStack:
    """Stacked LSTM layers plus a fully-connected head."""

    def __init__(self, head_kind: str, input_dim: int, width: int,
                 n_layers: int, horizon: int, seed: int = 0):
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
        self.params = self._init_params(np.random.default_rng(seed))

    def _init_params(self, rng) -> dict[str, np.ndarray]:
        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        params: dict[str, np.ndarray] = {}
        d_in = self.input_dim
        for layer in range(self.n_layers):
            params[f"lstm{layer}_wx"] = uniform((4 * self.width, d_in), self.width)
            params[f"lstm{layer}_wh"] = uniform((4 * self.width, self.width), self.width)
            params[f"lstm{layer}_b"] = np.zeros(4 * self.width)
            d_in = self.width
        for i in range(len(self.fc_sizes) - 1):
            n_in, n_out = self.fc_sizes[i], self.fc_sizes[i + 1]
            params[f"fc{i}_w"] = uniform((n_out, n_in), n_in)
            params[f"fc{i}_b"] = np.zeros(n_out)
        return params

    @property
    def recurrent_keys(self) -> list[str]:
        return [k for k in self.params if k.startswith("lstm")]

    @property
    def fc_keys(self) -> list[str]:
        return [k for k in self.params if k.startswith("fc")]

    # -- forward ----------------------------------------------------------

    def forward(self, x, with_cache: bool = False):
        """Predict f values (probabilities for the classifier head) from a
        batch (B, h, input_dim) or a single window (h, input_dim)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 2
        if single:
            x = x[None]
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise DimensionError(
                f"expected (*, h, {self.input_dim}) input, got {x.shape}")
        caches = []
        seq = x
        for layer in range(self.n_layers):
            seq, cache = lstm_forward(self.params[f"lstm{layer}_wx"],
                                      self.params[f"lstm{layer}_wh"],
                                      self.params[f"lstm{layer}_b"], seq)
            caches.append((seq, cache))
        last = seq[:, -1]
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
        result = out[0] if single else out
        if with_cache:
            return result, {"x": x, "lstm": caches, "fc": activations,
                            "single": single}
        return result

    # -- backward ---------------------------------------------------------

    def backward(self, cache, d_out) -> dict[str, np.ndarray]:
        """Backpropagate d_out (gradient w.r.t. the head output; for the
        classifier, w.r.t. the probabilities) into parameter gradients."""
        d_out = np.asarray(d_out, dtype=np.float64)
        if cache["single"] or d_out.ndim == 1:
            d_out = np.atleast_2d(d_out)
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

    def loss_and_grads(self, x, target, mask, loss_kind: str,
                       alpha: float = 1.0, beta: float = 1.0):
        """Forward + loss + full backward for one batch.

        loss_kind "masked_mse" uses (target, mask); "classifier" treats the
        mask (binary extreme labels) as the target.
        """
        out, cache = self.forward(x, with_cache=True)
        if loss_kind == "masked_mse":
            loss, d_out = masked_mse_loss(out, target, mask)
        elif loss_kind == "classifier":
            loss, d_out = classifier_loss(out, np.asarray(mask, dtype=np.float64),
                                          alpha=alpha, beta=beta)
        else:
            raise DimensionError(f"unknown loss kind {loss_kind!r}")
        return loss, self.backward(cache, d_out)

    def clone(self) -> "NetStack":
        other = NetStack.__new__(NetStack)
        other.__dict__.update({k: v for k, v in self.__dict__.items()
                               if k != "params"})
        other.params = {k: v.copy() for k, v in self.params.items()}
        return other


# ---------------------------------------------------------------------------
# Gradient checking


def _total_loss(model: NetStack, x, target, mask, loss_kind, alpha, beta):
    out = model.forward(x)
    if loss_kind == "masked_mse":
        return masked_mse_loss(out, target, mask)[0]
    return classifier_loss(out, np.asarray(mask, dtype=np.float64),
                           alpha=alpha, beta=beta)[0]


def gradient_check(model: NetStack, x, target, mask, loss_kind: str,
                   alpha: float = 1.0, beta: float = 1.0,
                   eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter. Intended for small models (W <= 8, h <= 12)."""
    _, grads = model.loss_and_grads(x, target, mask, loss_kind, alpha, beta)
    worst = 0.0
    for key, arr in model.params.items():
        flat = arr.reshape(-1)
        analytic = grads[key].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = _total_loss(model, x, target, mask, loss_kind, alpha, beta)
            flat[j] = orig - eps
            lo = _total_loss(model, x, target, mask, loss_kind, alpha, beta)
            flat[j] = orig
            numeric = (hi - lo) / (2.0 * eps)
            denom = max(1e-8, abs(analytic[j]) + abs(numeric))
            worst = max(worst, abs(analytic[j] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints


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
    arrays = {f"param_{k}": v for k, v in model.params.items()}
    meta_bytes = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:  # keep the exact filename (no .npz suffix)
        np.savez(fh, meta=meta_bytes, **arrays)


def load_checkpoint(path: str | Path) -> tuple[NetStack, dict]:
    """Read a checkpoint written by `save_checkpoint`; returns the model and
    the stored meta (with the caller's `extra_meta` under "extra")."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"missing checkpoint {path}")
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint version {meta.get('version')} "
                    f"unsupported (expected {CHECKPOINT_VERSION})")
            model = NetStack(meta["head_kind"], meta["input_dim"], meta["width"],
                             meta["n_layers"], meta["horizon"], meta["seed"])
            for key in model.params:
                model.params[key] = data[f"param_{key}"]
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc
    return model, meta

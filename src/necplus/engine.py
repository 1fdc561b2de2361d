"""Orchestration of the three-member forecaster: feature assembly with the
mixture-density indicator, training of the normal/extreme/classifier
triple, gated inference composition, batched forecasts of the holdout
sections, and run persistence.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import distributions, evaluation, kvtext, series, sampling
from .errors import CheckpointError, ConfigError, TrainingFailureError, writing
from .neural import (
    NetStack,
    TrainConfig,
    forward_members,
    load_checkpoint,
    save_checkpoint,
    train,
)

MEMBERS = ("n", "e", "c")


@dataclass(frozen=True)
class ModelSpec:
    layers: int = 2
    hidden: int = 16
    batch_size: int = 32
    volume: int = 1000
    oversampling_os: float = 0.0
    seed: int = 0
    patience: int = 3


@dataclass(frozen=True)
class NecConfig:
    h: int = 360
    f: int = 72
    epsilon: float = 1.5
    gmm_components: int = 3
    n: ModelSpec = field(default_factory=lambda: ModelSpec(patience=3, seed=1))
    e: ModelSpec = field(default_factory=lambda: ModelSpec(
        oversampling_os=1.0, patience=4, seed=2))
    c: ModelSpec = field(default_factory=lambda: ModelSpec(
        oversampling_os=1.0, patience=4, seed=3))
    alpha: float = 1.0
    beta: float = 1.0
    gate_threshold: float = 0.5
    holdout_sections: int = 24
    val_ranges: tuple[tuple[int, int], ...] = ()
    test_ranges: tuple[tuple[int, int], ...] = ()
    split_seed: int = 0
    max_epochs: int = 50
    lr_recurrent: float = 1e-3
    lr_fc: float = 5e-4

    def __post_init__(self):
        if not (self.h > self.f >= 1):
            raise ConfigError("need h > f >= 1")
        # each test is written to fail on NaN
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError("extreme_threshold_epsilon must be finite and positive")
        if self.gmm_components < 1:
            raise ConfigError("need at least one mixture component")
        if not (math.isfinite(self.alpha) and self.alpha >= 1):
            raise ConfigError("loss_alpha must be finite and at least 1")
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError("loss_beta must lie in [0, 1]")
        if not (0.0 <= self.gate_threshold <= 1.0):
            raise ConfigError("gate_threshold must lie in [0, 1]")
        if self.split_seed < 0:
            raise ConfigError("split_seed must be non-negative")
        for key in ("lr_recurrent", "lr_fc"):
            rate = getattr(self, key)
            if not (math.isfinite(rate) and rate > 0):
                raise ConfigError(f"{key} must be finite and positive")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.holdout_sections < 1:
            raise ConfigError("holdout_sections must be at least 1: "
                              "the validation sections drive early stopping")
        if self.n.oversampling_os != 0.0:
            raise ConfigError("n_oversampling_os must be 0: "
                              "the normal model never oversamples")
        for name in MEMBERS:
            spec = getattr(self, name)
            if not (0.0 <= spec.oversampling_os <= 1.0):
                raise ConfigError(f"{name}_oversampling_os must lie in [0, 1]")
            if min(spec.layers, spec.hidden, spec.batch_size,
                   spec.volume, spec.patience) < 1:
                raise ConfigError(f"{name} model spec fields must be positive")
            if spec.seed < 0:
                raise ConfigError(f"{name}_seed must be non-negative")

    def split_spec(self) -> sampling.SplitSpec:
        return sampling.SplitSpec(
            h=self.h, f=self.f, holdout_sections=self.holdout_sections,
            val_ranges=self.val_ranges, test_ranges=self.test_ranges,
            seed=self.split_seed)


@dataclass(frozen=True)
class ForecastBundle:
    """Per-horizon-point member predictions, gate decision, composed output,
    and the inverse-transformed raw-scale forecast: (f,) for one window,
    (S, f) for a stack of S."""

    n_pred: np.ndarray
    e_pred: np.ndarray
    c_prob: np.ndarray
    gate: np.ndarray
    composed: np.ndarray
    raw_scale: np.ndarray


def assemble_features(std_values, gmm: distributions.GmmModel) -> np.ndarray:
    """Build the (n, 2) feature matrix: standardized value, then its
    mixture-density indicator."""
    std_values = np.asarray(std_values, dtype=np.float64)
    return np.column_stack([std_values, distributions.gmm_indicator(gmm, std_values)])


def read_data(data_dir: str | Path, config: NecConfig,
              transform: series.StandardizedSeries | None = None):
    """The preprocessed directory `data_dir` as (standardized series, extreme
    labels, timestamps), checked to be labelled at the config's epsilon and,
    given a run's `transform`, standardized with its location and scale."""
    std, labels, epsilon, stamps = series.read_preprocessed(data_dir)
    if not abs(epsilon - config.epsilon) <= 1e-12:  # also catches NaN
        raise ConfigError(f"config epsilon {config.epsilon} != preprocessing "
                          f"epsilon {epsilon} of {data_dir}")
    if transform is not None and ((std.location, std.scale)
                                  != (transform.location, transform.scale)):
        raise ConfigError(
            f"{data_dir} is standardized with location {std.location!r} and "
            f"scale {std.scale!r}, the run with {transform.location!r} and "
            f"{transform.scale!r}")
    return std, labels, stamps


def _member_model(config: NecConfig, name: str) -> NetStack:
    spec = getattr(config, name)
    head = {"n": "normal", "e": "extreme", "c": "classifier"}[name]
    return NetStack(head, input_dim=2, width=spec.hidden,
                    n_layers=spec.layers, horizon=config.f, seed=spec.seed)


def _section_starts(sections, h: int, f: int, n: int) -> np.ndarray:
    """First index of each holdout section of an n-step series, checked to
    have h steps before it and f steps from it."""
    starts = np.array([start for start, _ in sections], dtype=np.int64)
    for start in starts:
        if not h <= start <= n - f:
            raise ConfigError(
                f"holdout section at {start} does not fit h={h}, f={f} in {n} steps")
    return starts


def train_nec(config: NecConfig, features: np.ndarray, labels: np.ndarray,
              split: sampling.Split):
    """Train the N, E, and C members; returns ({name: NetStack}, {name: log}).

    The three trainings are independent and deterministic per member seed.
    When this process may use more than one CPU and can fork, they train on
    one process per usable CPU, up to three: this one trains the first and
    largest share of MEMBERS (N and E on two CPUs), and forked children,
    which inherit the inputs, train the others. Otherwise the members train
    here, one after another. Both paths return the same bits, and raise the
    first failed member's exception, in MEMBERS order, unchanged.
    """
    labels = np.asarray(labels, dtype=bool)
    h, f = config.h, config.f
    val = sampling.gather_windows(
        features, labels,
        _section_starts(split.val_sections, h, f, len(features)) - h, h, f)

    def run_member(name: str):
        spec = getattr(config, name)
        samples = sampling.draw_samples(
            features, labels, h, f, spec.volume, spec.oversampling_os,
            seed=spec.seed, train_mask=split.train_mask)
        model = _member_model(config, name)
        cfg = TrainConfig(batch_size=spec.batch_size,
                          lr_recurrent=config.lr_recurrent, lr_fc=config.lr_fc,
                          max_epochs=config.max_epochs,
                          early_stop_patience=spec.patience, seed=spec.seed,
                          alpha=config.alpha, beta=config.beta)
        return train(model, samples, val, cfg)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    # no more training processes than CPUs: a process more only waits for
    # a CPU, so each one's speed would vary with the others'
    workers = min(cpus, len(MEMBERS)) if hasattr(os, "fork") else 1
    if workers > 1:
        results = _train_across_processes(run_member, workers)
    else:
        results = {name: run_member(name) for name in MEMBERS}
    models, logs = zip(*(results[name] for name in MEMBERS))
    return dict(zip(MEMBERS, models)), dict(zip(MEMBERS, logs))


def _train_across_processes(run_member, workers: int) -> dict:
    """{name: run_member(name)} for every member, on `workers` processes:
    MEMBERS split in order into `workers` shares, the first trained here and
    each other one in a forked child that sends back its share's results or
    the exception that ended it. Results are read in MEMBERS order, so the
    exception raised is the one the in-process path raises; the children
    still training are terminated first, and every child is reaped before
    this returns or raises."""
    # the first share is the largest, so the work that ends last runs in
    # this process, whose speed the benchmark's SpeedProbe samples
    bounds = [-(-i * len(MEMBERS) // workers) for i in range(workers + 1)]
    shares = [MEMBERS[a:b] for a, b in zip(bounds, bounds[1:])]
    readers, pids, reaped, results = [], [], set(), {}
    # text still buffered here would be written once more by each child
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for share in shares[1:]:
            reader, writer = os.pipe()
            readers.append(reader)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(readers, writer, run_member, share)
            finally:
                os.close(writer)
            pids.append(pid)
        for name in shares[0]:
            results[name] = run_member(name)
        for reader, pid, share in zip(readers, pids, shares[1:]):
            with open(reader, "rb", closefd=False) as pipe:
                sent = pipe.read()
            if not sent:
                reaped.add(pid)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise TrainingFailureError(
                    f"the process training {' and '.join(share)} ended "
                    f"without a result (exit code {code})")
            result = pickle.loads(sent)
            if isinstance(result, BaseException):
                raise result
            results.update(zip(share, result))
    finally:
        for pid, share in zip(pids, shares[1:]):
            if share[-1] not in results and pid not in reaped:
                os.kill(pid, signal.SIGTERM)
        for reader in readers:
            os.close(reader)
        for pid in pids:
            if pid not in reaped:
                os.waitpid(pid, 0)
    return results


def _child(readers, writer, run_member, share):
    """A forked child's whole life: train `share`, send its results, or the
    exception that ended it, down `writer`, and exit without returning."""
    code = 1
    try:
        # a child that held a reading end, its own or an earlier child's,
        # would block for ever on a full pipe once the parent is gone
        for reader in readers:
            os.close(reader)
        try:
            result = [run_member(name) for name in share]
        except Exception as exc:  # sent to the parent, which raises it
            result = exc
        # sent at once at the end: a send larger than the pipe's buffer
        # blocks until the parent, busy with its own share, reads it
        with open(writer, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        # never back into the parent's code, its exit handlers or buffers
        os._exit(code)


def predict(models: dict, window: np.ndarray, anchor,
            transform: series.StandardizedSeries,
            threshold: float = NecConfig.gate_threshold) -> ForecastBundle:
    """Run the three members on one h-step feature window (h, channels), or
    on a stack of S windows (S, h, channels) with S anchors, and compose.
    The members run through `forward_members`: the LSTM layers of members
    of equal depth run as one wavefront, whose outputs match each member's
    own `forward` to rounding (at most 1.1e-16 measured).

    The gate picks the extreme regressor wherever the classifier
    probability exceeds the threshold; composition happens on the
    standardized scale and the inversion to raw scale comes last.
    """
    n_pred, e_pred, c_prob = forward_members([models[m] for m in MEMBERS], window)
    gate = c_prob > threshold
    composed = np.where(gate, e_pred, n_pred)
    raw = series.invert_transform(composed, transform, anchor_override=anchor)
    return ForecastBundle(n_pred=n_pred, e_pred=e_pred, c_prob=c_prob,
                          gate=gate, composed=composed, raw_scale=raw)


def forecast_sections(run: RunArtifacts, features: np.ndarray, labels,
                      raw_values: np.ndarray, sections):
    """Forecast every section [start, start + f) in one batched predict:
    (bundle, truth, labels, persistence baseline), all (S, f).

    Standardized index i pairs raw[i] -> raw[i+1], so a section is forecast
    from features[start - h:start] anchored at raw[start], and its truth is
    raw[start + 1:start + f + 1].
    """
    config = run.config
    if not sections:
        raise ConfigError("no holdout sections to forecast")
    h, f = config.h, config.f
    starts = _section_starts(sections, h, f, len(features))
    windows = sampling.gather_windows(features, labels, starts - h, h, f)
    bundle = predict(run.models, windows.input, raw_values[starts], run.transform,
                     threshold=config.gate_threshold)
    return (bundle, raw_values[starts[:, None] + np.arange(1, f + 1)],
            windows.target_mask,
            evaluation.persistence_forecast(raw_values[starts, None], f))


# ---------------------------------------------------------------------------
# Run persistence


def _ranges_text(ranges) -> str:
    return ";".join(f"{a}-{b}" for a, b in ranges)


def _parse_ranges(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        a, _, b = part.partition("-")
        out.append((int(a), int(b)))
    return tuple(out)


# run-config key -> NecConfig field; each value parses as its field's
# default is typed, and the holdout ranges as `_ranges_text` writes them
CONFIG_KEYS = {
    "input_length_h": "h",
    "forecast_length_f": "f",
    "extreme_threshold_epsilon": "epsilon",
    "gmm_components_m": "gmm_components",
    "loss_alpha": "alpha",
    "loss_beta": "beta",
    "gate_threshold": "gate_threshold",
    "holdout_sections": "holdout_sections",
    "val_ranges": "val_ranges",
    "test_ranges": "test_ranges",
    "split_seed": "split_seed",
    "max_epochs": "max_epochs",
    "lr_recurrent": "lr_recurrent",
    "lr_fc": "lr_fc",
}

# ModelSpec fields, stored per member as `<member>_<field>`
MODEL_KEYS = ("batch_size", "hidden", "layers", "volume", "oversampling_os",
              "seed", "patience")


def config_to_pairs(config: NecConfig) -> dict:
    pairs = {key: getattr(config, attr) for key, attr in CONFIG_KEYS.items()}
    for key in ("val_ranges", "test_ranges"):
        pairs[key] = _ranges_text(pairs[key])
    for name in MEMBERS:
        spec = getattr(config, name)
        for key in MODEL_KEYS:
            if name == "n" and key == "oversampling_os":
                continue  # the normal model never oversamples
            pairs[f"{name}_{key}"] = getattr(spec, key)
    return pairs


def config_from_pairs(pairs: dict) -> NecConfig:
    defaults = NecConfig()
    kwargs: dict = {}
    specs = {name: {} for name in MEMBERS}
    for key, raw in pairs.items():
        prefix, _, rest = key.partition("_")
        if key in CONFIG_KEYS:
            attr, target, owner = CONFIG_KEYS[key], kwargs, defaults
        elif prefix in MEMBERS and rest in MODEL_KEYS:
            attr, target, owner = rest, specs[prefix], ModelSpec
        else:
            raise ConfigError(f"unknown config key {key!r}")
        default = getattr(owner, attr)
        try:
            target[attr] = (_parse_ranges(raw) if isinstance(default, tuple)
                            else type(default)(raw))
        except ValueError:
            raise ConfigError(f"bad value {raw!r} for config key {key!r}") from None
    for name in MEMBERS:
        if specs[name]:
            kwargs[name] = replace(getattr(defaults, name), **specs[name])
    return replace(defaults, **kwargs)


def load_config(path: str | Path) -> NecConfig:
    return config_from_pairs(kvtext.read(path))


def config_hash(config: NecConfig) -> str:
    return hashlib.sha256(kvtext.dumps(config_to_pairs(config)).encode()).hexdigest()


def save_run(run_dir: str | Path, config: NecConfig,
             gmm: distributions.GmmModel, transform: series.StandardizedSeries,
             models: dict, logs: dict, split: sampling.Split) -> None:
    """Write the run's whole file set, `train.log` and `split.csv` included."""
    run_dir = Path(run_dir)
    with writing(run_dir):
        run_dir.mkdir(parents=True, exist_ok=True)
        kvtext.write(run_dir / "config", config_to_pairs(config))
        distributions.save_gmm(run_dir / "gmm.model", gmm)
        kvtext.write(run_dir / "transform.meta",
                     series.transform_meta(transform, config.epsilon))
        digest = config_hash(config)
        for name in MEMBERS:
            save_checkpoint(run_dir / f"{name}.ckpt", models[name],
                            extra_meta={"config_hash": digest})
        with (run_dir / "train.log").open("w", encoding="utf-8") as fh:
            for name in MEMBERS:
                log = logs[name]
                fh.write(f"model {name} best_epoch {log.best_epoch} "
                         f"stopped_early {int(log.stopped_early)}\n")
                for i, (tl, vl) in enumerate(zip(log.train_losses, log.val_losses)):
                    fh.write(f"model {name} epoch {i} train {tl!r} val {vl!r}\n")
        sampling.dump_split_csv(run_dir / "split.csv", split)


@dataclass(frozen=True)
class RunArtifacts:
    config: NecConfig
    gmm: distributions.GmmModel
    transform: series.StandardizedSeries
    models: dict


def load_run(run_dir: str | Path) -> RunArtifacts:
    run_dir = Path(run_dir)
    for required in ("config", "gmm.model", "transform.meta",
                     *(f"{m}.ckpt" for m in MEMBERS)):
        if not (run_dir / required).exists():
            raise CheckpointError(f"run directory missing {required}")
    config = load_config(run_dir / "config")
    gmm = distributions.load_gmm(run_dir / "gmm.model")
    transform = series.read_transform_meta(run_dir / "transform.meta")[0]
    digest = config_hash(config)
    models = {}
    for name in MEMBERS:
        model, meta = load_checkpoint(run_dir / f"{name}.ckpt")
        if meta.get("extra", {}).get("config_hash") != digest:
            raise CheckpointError(
                f"{name}.ckpt was trained under a different config (hash mismatch)")
        models[name] = model
    return RunArtifacts(config=config, gmm=gmm, transform=transform,
                        models=models)

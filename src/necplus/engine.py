"""Orchestration of the three-member forecaster: feature assembly with the
mixture-density indicator and exogenous channels, training of the
normal/extreme/classifier triple, gated inference composition, and run
persistence.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import distributions, kvtext, series, sampling
from .errors import AlignmentError, CheckpointError, ConfigError, DimensionError
from .neural import (
    NetStack,
    TrainConfig,
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
    soft_gate: bool = False
    n_exogenous: int = 0
    holdout_sections: int = 24
    val_ranges: tuple[tuple[int, int], ...] = ()
    test_ranges: tuple[tuple[int, int], ...] = ()
    split_seed: int = 0
    gmm_seed: int = 0
    max_epochs: int = 50
    lr_recurrent: float = 1e-3
    lr_fc: float = 5e-4

    def __post_init__(self):
        if not (self.h > self.f >= 1):
            raise ConfigError("need h > f >= 1")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.gmm_components < 1:
            raise ConfigError("need at least one mixture component")
        if self.alpha < 1 or not (0.0 <= self.beta <= 1.0):
            raise ConfigError("need alpha >= 1 and beta in [0, 1]")
        for name in MEMBERS:
            spec = getattr(self, name)
            if not (0.0 <= spec.oversampling_os <= 1.0):
                raise ConfigError(f"{name}_oversampling_os must lie in [0, 1]")
            if min(spec.layers, spec.hidden, spec.batch_size,
                   spec.volume, spec.patience) < 1:
                raise ConfigError(f"{name} model spec fields must be positive")


@dataclass(frozen=True)
class ForecastBundle:
    """Per-horizon-point member predictions, gate decision, composed output,
    and the inverse-transformed raw-scale forecast."""

    n_pred: np.ndarray
    e_pred: np.ndarray
    c_prob: np.ndarray
    gate: np.ndarray
    composed: np.ndarray
    raw_scale: np.ndarray


def assemble_features(std_values, gmm: distributions.GmmModel,
                      exog_channels=()) -> np.ndarray:
    """Build the (k+2)-channel feature matrix: standardized value, its
    mixture-density indicator, then the exogenous channels."""
    std_values = np.asarray(std_values, dtype=np.float64)
    indicator = distributions.gmm_indicator(gmm, std_values)
    for channel in exog_channels:
        if len(channel) != len(std_values):
            raise AlignmentError("exogenous channel length does not match series")
    return sampling.assemble_matrix(std_values, indicator, exog_channels)


def _member_model(config: NecConfig, name: str) -> NetStack:
    spec = getattr(config, name)
    head = {"n": "normal", "e": "extreme", "c": "classifier"}[name]
    return NetStack(head, input_dim=config.n_exogenous + 2, width=spec.hidden,
                    n_layers=spec.layers, horizon=config.f, seed=spec.seed)


def validation_windows(features: np.ndarray, labels: np.ndarray,
                       sections, h: int, f: int) -> list[sampling.SampleWindow]:
    windows = []
    for start, _ in sections:
        origin = start - h
        if origin < 0:
            raise ConfigError(f"holdout section at {start} has no {h}-step history")
        windows.append(sampling.make_window(features, labels, origin, h, f))
    return windows


def train_nec(config: NecConfig, features: np.ndarray, labels: np.ndarray,
              split: sampling.Split):
    """Train the N, E, and C members; returns ({name: NetStack}, {name: log}).

    The three trainings are independent and deterministic per member seed.
    """
    labels = np.asarray(labels, dtype=bool)
    val = validation_windows(features, labels, split.val_sections,
                             config.h, config.f)

    def run_member(name: str):
        spec = getattr(config, name)
        samples = sampling.draw_samples(
            features[:, 0], features[:, 1], list(features[:, 2:].T), labels,
            config.h, config.f, spec.volume, spec.oversampling_os,
            seed=spec.seed, train_mask=split.train_mask)
        model = _member_model(config, name)
        cfg = TrainConfig(batch_size=spec.batch_size,
                          lr_recurrent=config.lr_recurrent, lr_fc=config.lr_fc,
                          max_epochs=config.max_epochs,
                          early_stop_patience=spec.patience, seed=spec.seed,
                          alpha=config.alpha, beta=config.beta)
        return train(model, samples, val, cfg)

    results = {name: run_member(name) for name in MEMBERS}
    models = {name: res[0] for name, res in results.items()}
    logs = {name: res[1] for name, res in results.items()}
    return models, logs


def predict(models: dict, window: np.ndarray, anchor: float,
            transform: series.StandardizedSeries, threshold: float = 0.5,
            soft_gate: bool = False) -> ForecastBundle:
    """Run the three members on one h-step feature window and compose.

    Hard gating picks the extreme regressor wherever the classifier
    probability exceeds the threshold; composition happens on the
    standardized scale and the inversion to raw scale comes last.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise DimensionError(f"expected a 2-D (h, channels) window, got {window.shape}")
    n_pred = models["n"].forward(window)
    e_pred = models["e"].forward(window)
    c_prob = models["c"].forward(window)
    gate = c_prob > threshold
    if soft_gate:
        composed = c_prob * e_pred + (1.0 - c_prob) * n_pred
    else:
        composed = np.where(gate, e_pred, n_pred)
    raw = series.invert_transform(composed, transform, anchor_override=anchor)
    return ForecastBundle(n_pred=n_pred, e_pred=e_pred, c_prob=c_prob,
                          gate=gate, composed=composed, raw_scale=raw)


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


CONFIG_KEYS = {
    "input_length_h": ("h", int),
    "forecast_length_f": ("f", int),
    "extreme_threshold_epsilon": ("epsilon", float),
    "gmm_components_m": ("gmm_components", int),
    "loss_alpha": ("alpha", float),
    "loss_beta": ("beta", float),
    "gate_threshold": ("gate_threshold", float),
    "soft_gate": ("soft_gate", lambda s: s in ("1", "true", "True")),
    "n_exogenous": ("n_exogenous", int),
    "holdout_sections": ("holdout_sections", int),
    "val_ranges": ("val_ranges", _parse_ranges),
    "test_ranges": ("test_ranges", _parse_ranges),
    "split_seed": ("split_seed", int),
    "gmm_seed": ("gmm_seed", int),
    "max_epochs": ("max_epochs", int),
    "lr_recurrent": ("lr_recurrent", float),
    "lr_fc": ("lr_fc", float),
}

MODEL_KEYS = {
    "batch_size": ("batch_size", int),
    "hidden": ("hidden", int),
    "layers": ("layers", int),
    "volume": ("volume", int),
    "oversampling_os": ("oversampling_os", float),
    "seed": ("seed", int),
    "patience": ("patience", int),
}


def config_to_pairs(config: NecConfig) -> dict:
    pairs: dict = {}
    for key, (attr, _) in CONFIG_KEYS.items():
        value = getattr(config, attr)
        if attr in ("val_ranges", "test_ranges"):
            value = _ranges_text(value)
        elif attr == "soft_gate":
            value = int(value)
        pairs[key] = value
    for name in MEMBERS:
        spec = getattr(config, name)
        for key, (attr, _) in MODEL_KEYS.items():
            if name == "n" and key == "oversampling_os":
                continue  # the normal model never oversamples
            pairs[f"{name}_{key}"] = getattr(spec, attr)
    return pairs


def config_from_pairs(pairs: dict) -> NecConfig:
    kwargs: dict = {}
    specs = {name: {} for name in MEMBERS}
    for key, raw in pairs.items():
        if key in CONFIG_KEYS:
            attr, conv = CONFIG_KEYS[key]
            kwargs[attr] = conv(raw)
            continue
        prefix, _, rest = key.partition("_")
        if prefix in MEMBERS and rest in MODEL_KEYS:
            attr, conv = MODEL_KEYS[rest]
            specs[prefix][attr] = conv(raw)
            continue
        raise ConfigError(f"unknown config key {key!r}")
    defaults = NecConfig()
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
             models: dict, logs: dict | None = None) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    kvtext.write(run_dir / "config", config_to_pairs(config))
    distributions.save_gmm(run_dir / "gmm.model", gmm)
    kvtext.write(run_dir / "transform.meta",
                 series.transform_meta(transform, config.epsilon))
    digest = config_hash(config)
    for name in MEMBERS:
        save_checkpoint(run_dir / f"{name}.ckpt", models[name],
                        extra_meta={"config_hash": digest})
    if logs is not None:
        with (run_dir / "train.log").open("w") as fh:
            for name in MEMBERS:
                log = logs[name]
                fh.write(f"model {name} best_epoch {log.best_epoch} "
                         f"stopped_early {int(log.stopped_early)}\n")
                for i, (tl, vl) in enumerate(zip(log.train_losses, log.val_losses)):
                    fh.write(f"model {name} epoch {i} train {tl!r} val {vl!r}\n")


@dataclass(frozen=True)
class RunArtifacts:
    config: NecConfig
    gmm: distributions.GmmModel
    transform: series.StandardizedSeries
    epsilon: float
    models: dict


def load_run(run_dir: str | Path) -> RunArtifacts:
    run_dir = Path(run_dir)
    for required in ("config", "gmm.model", "transform.meta",
                     *(f"{m}.ckpt" for m in MEMBERS)):
        if not (run_dir / required).exists():
            raise CheckpointError(f"run directory missing {required}")
    config = load_config(run_dir / "config")
    gmm = distributions.load_gmm(run_dir / "gmm.model")
    meta, epsilon = series.read_transform_meta(run_dir / "transform.meta")
    transform = series.StandardizedSeries(values=np.array([]), **meta)
    digest = config_hash(config)
    models = {}
    for name in MEMBERS:
        model, meta = load_checkpoint(run_dir / f"{name}.ckpt")
        if meta.get("extra", {}).get("config_hash") != digest:
            raise CheckpointError(
                f"{name}.ckpt was trained under a different config (hash mismatch)")
        models[name] = model
    return RunArtifacts(config=config, gmm=gmm, transform=transform,
                        epsilon=epsilon, models=models)

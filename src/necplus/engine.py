"""Orchestration of the three-member forecaster: feature assembly with the
mixture-density indicator, training of the normal/extreme/classifier
triple, gated inference composition, batched forecasts of the holdout
sections, and run persistence.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import distributions, evaluation, kvtext, series, sampling
from .errors import CheckpointError, ConfigError, TrainingFailureError, writing
from .neural import (
    NetStack,
    TrainConfig,
    TrainState,
    forward_members,
    load_checkpoint,
    save_checkpoint,
    train,
    train_epochs,
)

MEMBERS = ("n", "e", "c")
_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


@dataclass(frozen=True)
class ModelSpec:
    batch_size: int = 32
    hidden: int = 16
    layers: int = 2
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
    A val or test section that does not fit h and f in the series is a
    ConfigError before any member trains.

    The three trainings are independent and deterministic per member seed,
    and each can stop at an epoch boundary and go on in another process from
    its `TrainState`; that process redraws the member's samples from its
    seed. They run on one process per usable CPU, up to three, or on one
    where this platform cannot fork (`_plan`). On two CPUs, a forked child
    trains E's first half of epochs, hands E's state to this process and
    trains C, while this process trains N and then E's second half: each
    process trains one and a half members' epochs. On three CPUs each member
    trains in its own process, and on one all three train here, one after
    another. Every plan returns the same bits and raises the first failed
    member's exception, in MEMBERS order, unchanged. A pipe or fork that
    fails is a TrainingFailureError. On Linux a child ends with this
    process, however it dies.

    Each process should run one BLAS thread, or they wait for each other's
    CPUs: the CLI sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
    MKL_NUM_THREADS to 1 unless they are set, and a library caller that
    trains on several CPUs should do the same before it imports numpy.
    """
    labels = np.asarray(labels, dtype=bool)
    h, f = config.h, config.f
    val = sampling.gather_windows(
        features, labels,
        _section_starts(split.val_sections, h, f, len(features)) - h, h, f)
    _section_starts(split.test_sections, h, f, len(features))

    def run_piece(name: str, stop: int, state: TrainState | None = None):
        """Member `name` trained up to epoch `stop`, on from `state` or
        afresh: (model, log) from a piece that trains to the end, else the
        piece's TrainState, for another process to go on from."""
        spec = getattr(config, name)
        samples = sampling.draw_samples(
            features, labels, h, f, spec.volume, spec.oversampling_os,
            seed=spec.seed, train_mask=split.train_mask)
        if state is not None:
            return train(state.model, samples, val, state.cfg, state)
        model = _member_model(config, name)
        cfg = TrainConfig(batch_size=spec.batch_size,
                          lr_recurrent=config.lr_recurrent, lr_fc=config.lr_fc,
                          max_epochs=config.max_epochs,
                          early_stop_patience=spec.patience, seed=spec.seed,
                          alpha=config.alpha, beta=config.beta)
        if stop < config.max_epochs:
            return train_epochs(TrainState.start(model, cfg), samples, val, stop)
        return train(model, samples, val, cfg)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    # no more training processes than CPUs: a process more only waits for
    # a CPU, so each one's speed would vary with the others'
    workers = min(cpus, len(MEMBERS)) if hasattr(os, "fork") else 1
    results = _train_across_processes(run_piece, _plan(workers, config.max_epochs))
    models, logs = zip(*(results[name] for name in MEMBERS))
    return dict(zip(MEMBERS, models)), dict(zip(MEMBERS, logs))


def _plan(workers: int, epochs: int) -> list[list[tuple[str, int]]]:
    """One share of training per process, the first this process's: each a
    list of pieces (member, epoch to train it up to), in order.

    The first share is the largest, so the work that ends last runs in this
    process, whose speed the benchmark's SpeedProbe samples. On two
    processes, three members' `epochs` split one and a half each by a
    wrap-around at an epoch boundary (McNaughton 1959): the child trains E's
    first epochs // 2 epochs, then C, and this process N, then E's rest,
    from the state the child hands on. So this process draws N's samples
    and then E's, in MEMBERS order, and learns of E's failure before C's.
    Otherwise, and at one epoch, MEMBERS split in order into whole members."""
    if workers == 2 and epochs > 1:
        return [[("n", epochs), ("e", epochs)], [("e", epochs // 2), ("c", epochs)]]
    bounds = [-(-i * len(MEMBERS) // workers) for i in range(workers + 1)]
    return [[(name, epochs) for name in MEMBERS[a:b]]
            for a, b in zip(bounds, bounds[1:])]


def _train_across_processes(run_piece, shares) -> dict:
    """{name: (model, log)} for every member, from the pieces of `shares`
    (`_plan`): the first share trained here, each other one in a forked
    child. A child starts each of its pieces' members afresh and sends down
    its pipe, as each piece ends, what `run_piece` returned for it (the
    member's result, or its TrainState for a piece of this process to go on
    from) or the exception that ended it. One share needs no pipe and no
    fork. Outcomes are read in MEMBERS order, so the exception raised is
    the one a single share raises; the children still training are
    terminated first, and every child is reaped before this returns or
    raises."""
    # each child's pid, pipe, share and the pieces whose outcome is unread
    readers, children, reaped, outcomes = [], [], set(), {}
    parent = os.getpid()
    # text still buffered here would be written once more by each child
    sys.stdout.flush()
    sys.stderr.flush()

    def settle(name: str) -> None:
        """Read each child's outcomes up to its last piece of `name`."""
        for pid, pipe, share, unread in children:
            while any(member == name for member, _ in unread):
                try:
                    outcomes[unread[0][0]] = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    reaped.add(pid)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    raise TrainingFailureError(
                        f"the process training {_names(share)} ended "
                        f"without a result (exit code {code})") from None
                del unread[0]

    try:
        for share in shares[1:]:
            try:
                reader, writer = os.pipe()
                readers.append(reader)
                try:
                    _widen_pipe(writer)
                    pid = os.fork()
                    if pid == 0:
                        _child(parent, readers, writer, run_piece, share)
                finally:
                    os.close(writer)
            except OSError as exc:  # a process or file limit, say
                raise TrainingFailureError(
                    f"cannot start a process to train {_names(share)}: "
                    f"{exc.strerror or exc}") from None
            children.append((pid, open(reader, "rb", closefd=False), share,
                             list(share)))
        for name, stop in shares[0]:
            settle(name)  # a child's outcome for `name`, which may go on here
            outcome = outcomes.get(name)
            if outcome is None or isinstance(outcome, TrainState):
                try:
                    outcomes[name] = run_piece(name, stop, outcome)
                except Exception as exc:  # raised below, in MEMBERS order
                    outcomes[name] = exc
                    break
        for name in MEMBERS:
            settle(name)
            if isinstance(outcomes[name], BaseException):
                raise outcomes[name]
    finally:
        for pid, _, _, unread in children:
            if unread and pid not in reaped:
                os.kill(pid, signal.SIGTERM)
        for reader in readers:
            os.close(reader)
        for pid, *_ in children:
            if pid not in reaped:
                os.waitpid(pid, 0)
    return outcomes


def _names(share) -> str:
    return " and ".join(name for name, _ in share)


# a child's pipe buffer: a handoff up to this size is sent without waiting
# for the parent to read it. E's TrainState pickles to 217 KB at paper
# shapes (h=360, f=72, two layers of 16 and three fully-connected layers),
# 33 KB at desk shapes and 647 KB at paper shapes with width 64. Linux's
# default buffer is 64 KiB, and 1 MiB its default cap
PIPE_BYTES = 1 << 20


def _widen_pipe(fd: int) -> None:
    """Grow pipe `fd`'s buffer to PIPE_BYTES where the platform allows. A
    larger send, or one on a pipe left at its default size, blocks until
    the parent reads it after its own first piece: the child then waits,
    but never deadlocks, since the parent reads each piece's outcome
    before it needs the next."""
    try:
        import fcntl
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass  # not Linux, or over this user's pipe quota


def _child(parent, readers, writer, run_piece, share):
    """A forked child's whole life: train the pieces of `share` in order,
    send what each returned, or the exception that ended it, down `writer`
    as it ends, and exit without returning. It ends with the process
    `parent` that forked it, however that dies."""
    code = 1
    try:
        _end_with_parent(parent)
        # a child that held a reading end, its own or an earlier child's,
        # would block for ever on a full pipe once the parent is gone
        for reader in readers:
            os.close(reader)
        with open(writer, "wb") as pipe:
            for name, stop in share:
                try:
                    outcome = run_piece(name, stop)
                except Exception as exc:  # sent to the parent, which raises it
                    outcome = exc
                pickle.dump(outcome, pipe)
                pipe.flush()
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        # never back into the parent's code, its exit handlers or buffers
        os._exit(code)


def _end_with_parent(parent: int) -> None:
    """On Linux, have the kernel send this forked child SIGTERM when its
    parent dies, even by SIGKILL, which runs no `finally` to end it; and
    leave at once if `parent` died before that was asked."""
    if not sys.platform.startswith("linux"):
        return
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent:
        os._exit(1)


def predict(models: dict, window: np.ndarray, anchor,
            transform: series.StandardizedSeries,
            threshold: float = NecConfig.gate_threshold) -> ForecastBundle:
    """Run the three members on one h-step feature window (h, channels), or
    on a stack of S windows (S, h, channels) with S anchors, and compose.
    The members run through `forward_members`: the LSTM layers of members
    of equal depth and width run as one wavefront of training's own steps,
    so each member's output equals its training forward's bit for bit, and
    its layer-by-layer `forward` to rounding.

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


# the run-config keys that are not their NecConfig field's name
_RENAMED = {"h": "input_length_h", "f": "forecast_length_f",
            "epsilon": "extreme_threshold_epsilon",
            "gmm_components": "gmm_components_m", "alpha": "loss_alpha",
            "beta": "loss_beta"}

# run-config key -> its field's path from a NecConfig, in the order a run
# config is written: every other NecConfig field as its own key, then each
# member's ModelSpec fields as `<member>_<field>`. Each value parses as its
# field's default is typed, and a tuple as `_ranges_text` writes it
CONFIG_KEYS = {
    **{_RENAMED.get(f.name, f.name): (f.name,)
       for f in fields(NecConfig) if f.name not in MEMBERS},
    **{f"{name}_{f.name}": (name, f.name)
       for name in MEMBERS for f in fields(ModelSpec)},
}
# a NecConfig's value of every key, in one call
_config_values = attrgetter(*(".".join(path) for path in CONFIG_KEYS.values()))


def config_to_pairs(config: NecConfig) -> dict:
    return {key: _ranges_text(value) if isinstance(value, tuple) else value
            for key, value in zip(CONFIG_KEYS, _config_values(config))
            if key != "n_oversampling_os"}  # the normal model never oversamples


def config_from_pairs(pairs: dict) -> NecConfig:
    defaults = NecConfig()
    kwargs: dict = {}
    specs = {name: {} for name in MEMBERS}
    for key, raw in pairs.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        path = CONFIG_KEYS[key]
        default = reduce(getattr, path, defaults)
        target = kwargs if len(path) == 1 else specs[path[0]]
        try:
            target[path[-1]] = (_parse_ranges(raw) if isinstance(default, tuple)
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

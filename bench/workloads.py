"""The benchmark's three workloads and the end-to-end metrics they report.

Every workload is closed loop with one client: each call starts after the
previous one returns. All calls go through the public CLI entry point
(`necplus.cli.main`) in this process, on the seeded synthetic series. A run
has three phases:

- set-up, made SETUP_PASSES times: input generation, set-up training and
  warm-up;
- the timed loop of the workload's unit, for the run's seconds;
- a fixed tail of serving calls, so that every run has at least
  MIN_PREDICTS predict calls and TAIL_EVALUATES evaluate calls.

Each stage metric is the median over every call of that stage in the run,
warm-up predicts excepted.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import resource
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import measures
from necplus import cli, engine, kvtext, sampling, series
from tracing import UNIT_SPAN, Tracer

SERIES_LENGTH = 20000
SPIKE_RATE = 0.01
EPSILON = 1.5
SETUP_PASSES = 5
MIN_PREDICTS = 100      # so that ten predict samples lie beyond p90
DESK_PREDICTS = 200     # cheap at h=24, and p90 is steady only with more
TAIL_EVALUATES = 3      # evaluate is steady only as a median of several
STAGES = ("synth", "preprocess", "fit-gmm", "train", "predict", "evaluate")

# (name, unit, better) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("prep_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("train_windows_per_s", "1/s", "higher"),
    ("predict_p50_ms", "ms", "lower"),
    ("predict_p90_ms", "ms", "lower"),
    ("evaluate_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("test_rmse_total_rel", "ratio", "lower"),
    ("val_loss_c", "loss", "lower"),
)


def _holdout_config(**kwargs) -> engine.NecConfig:
    return engine.NecConfig(holdout_sections=24, val_ranges=((2000, 8000),),
                            test_ranges=((10000, 18000),), **kwargs)


def desk_config() -> engine.NecConfig:
    """The desk-scale run of the acceptance battery's end-to-end test, with
    patience raised to max_epochs: there, early stopping makes the windows
    trained depend on the seed, and with them train_s and pipeline_s."""
    def spec(os_ratio, seed):
        return engine.ModelSpec(layers=2, hidden=16, batch_size=32, volume=2000,
                                oversampling_os=os_ratio, seed=seed, patience=8)
    return _holdout_config(h=24, f=6, epsilon=EPSILON, gmm_components=3,
                           n=spec(0.0, 1), e=spec(1.0, 2), c=spec(1.0, 3),
                           max_epochs=8)


def paper_config(volume: int, epochs: int) -> engine.NecConfig:
    """NecConfig's paper defaults (h=360, f=72, W=16, 2 layers, B=32) at a
    fixed budget: patience equals max_epochs, so no member stops early."""
    base = engine.NecConfig()
    members = {name: replace(getattr(base, name), volume=volume, patience=epochs)
               for name in engine.MEMBERS}
    return _holdout_config(max_epochs=epochs, **members)


# Nominal duration of reference_kernel. Every call's wall time is scaled by
# REFERENCE_S over the kernel's duration measured before, during and after
# the call: the shared host's speed swings by up to 1.6x over tens of
# seconds, and the kernel, which does the same kind of work as necplus, slows
# down with it.
REFERENCE_S = 0.002
PROBE_INTERVAL_S = 0.1
SPEED_WINDOW = 16
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.normal(size=(32, 18))
_REF_W = _REF_RNG.normal(size=(18, 64))
_REF_U = _REF_RNG.normal(size=(16, 64))
_REF_SERIES = _REF_RNG.normal(size=20000)
_REF_MEANS = np.array([[-1.0], [0.0], [1.0]])
_REF_TEXT = [repr(i * 0.37) for i in range(3000)]


def reference_kernel() -> float:
    """Fixed work in necplus's mix, 2.5 ms on a 2-core shared x86 host: a
    small recurrent loop with a sign-split sigmoid like the LSTM's, a mixture
    density over a series, and parsing float text."""
    h = np.zeros((32, 16))
    for _ in range(24):
        z = _REF_X @ _REF_W + h @ _REF_U
        gates = np.empty_like(z)
        pos = z >= 0
        gates[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        gates[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
        h = np.tanh(gates[:, :16]) * gates[:, 16:32]
    density = np.exp(-0.5 * (_REF_SERIES[None, :] - _REF_MEANS) ** 2).sum(axis=0)
    return (float(h.sum()) + float(np.log(density).sum())
            + sum(float(v) for v in _REF_TEXT))


class SpeedProbe:
    """Times the reference kernel around a call and, from a timer signal,
    every PROBE_INTERVAL_S during it. Samples go to the session's `history`;
    `inside` is the kernel time spent during the call, to be taken out of the
    call's wall time. An inactive probe does nothing, so it adds no time to
    the spans of a traced run."""

    def __init__(self, history: list, active: bool):
        self.history = history
        self.active = active
        self.own = 0
        self.inside = 0.0

    def _sample(self, *_) -> float:
        spent = timed(reference_kernel)
        self.history.append(spent)
        self.own += 1
        return spent

    def _sample_inside(self, *_):
        self.inside += self._sample()

    def __enter__(self):
        if not self.active:
            return self
        self._sample()
        signal.signal(signal.SIGALRM, self._sample_inside)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale(self, wall: float) -> float:
        """Seconds the call would take at the reference speed: its wall time
        times the mean of REFERENCE_S / kernel time, the host's relative
        speed averaged over the call. A short call borrows the samples of
        the calls before it, up to SPEED_WINDOW, so one slow kernel run does
        not skew it."""
        if not self.active:
            return wall
        window = self.history[-max(self.own, SPEED_WINDOW):]
        speed = sum(REFERENCE_S / k for k in window) / len(window)
        return (wall - self.inside) * speed


@dataclass(frozen=True)
class Call:
    stage: str
    wall: float         # seconds
    scaled: float       # seconds at the reference speed
    warmup: bool
    facts: dict


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class Session:
    """One workload run: its files, operation counts and stage timings."""

    def __init__(self, work_dir: Path, seed: int, tracer: Tracer | None):
        self.dir = work_dir
        self.seed = seed
        self.tracer = tracer
        self.csv = work_dir / "series.csv"
        self.data = work_dir / "data"
        self.run = work_dir / "run"
        self.forecast = work_dir / "forecast.csv"
        self.attempted = 0
        self.failed = 0
        self.log: list[Call] = []
        self.speed: list[float] = []     # reference kernel times, in order
        self.config: engine.NecConfig | None = None
        self._origins = None

    # -- operations -------------------------------------------------------

    def call(self, argv, check=None, warmup=False):
        """One CLI call; it fails on a nonzero exit, an exception or a failed
        output check. `check` reads the output and returns facts to keep."""
        stage = argv[0]
        self.attempted += 1
        out = io.StringIO()
        traced = self.tracer is not None and self.tracer.installed
        span = self.tracer.span(f"cli.{stage}") if traced else contextlib.nullcontext()
        try:
            with SpeedProbe(self.speed, active=self.tracer is None) as probe:
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), span:
                    code = cli.main([str(a) for a in argv])
                wall = time.perf_counter() - start
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            facts = check(out.getvalue()) if check else {}
        except (Exception, SystemExit):
            # a failed operation is counted and the run goes on
            self.failed += 1
            print(f"operation failed: {' '.join(map(str, argv))}", file=sys.stderr)
            traceback.print_exc()
            return
        self.log.append(Call(stage, wall - probe.inside, probe.scale(wall),
                             warmup, facts))

    def timings(self, stage: str, raw=False) -> list[float]:
        """Scaled (or raw wall) seconds of every non-warm-up call of a stage."""
        return [c.wall if raw else c.scaled for c in self.log
                if c.stage == stage and not c.warmup]

    def facts(self, stage: str) -> list[dict]:
        return [c.facts for c in self.log if c.stage == stage and not c.warmup]

    def synth(self):
        self.call(["synth", "--seed", self.seed, "--length", SERIES_LENGTH,
                   "--spike-rate", SPIKE_RATE, "--out", self.csv],
                  self._check_synth)

    def preprocess(self):
        self.call(["preprocess", "--input", self.csv, "--out-dir", self.data,
                   "--epsilon", EPSILON], _check_preprocess)

    def fit_gmm(self):
        self.call(["fit-gmm", "--in-dir", self.data, "--components", 3,
                   "--seed", 0], _check_fit_gmm)

    def inputs(self):
        self.synth()
        self.preprocess()
        self.fit_gmm()

    def train(self, config: engine.NecConfig):
        self.config = config
        kvtext.write(self.dir / "config", engine.config_to_pairs(config))
        self.call(["train", "--config", self.dir / "config", "--data",
                   self.data, "--out", self.run], self._check_train)

    def predict(self, origin: str | None = None, warmup=False):
        argv = ["predict", "--run-dir", self.run, "--input", self.csv,
                "--out", self.forecast]
        if origin is not None:
            argv += ["--origin-timestamp", origin]
        self.call(argv, self._check_predict, warmup)

    def predict_next(self):
        """Predict at the next of a seeded sequence of distinct origins."""
        if self._origins is None:
            self._origins = iter(self._origin_timestamps())
        self.predict(next(self._origins))

    def evaluate(self):
        self.call(["evaluate", "--run-dir", self.run, "--data", self.data,
                   "--split", "test", "--baseline", "--wilcoxon"],
                  _check_evaluate)

    def _origin_timestamps(self):
        with self.csv.open() as fh:
            fh.readline()
            stamps = [line.partition(",")[0] for line in fh]
        order = np.random.default_rng(self.seed).permutation(
            np.arange(self.config.h, len(stamps)))
        return [stamps[i] for i in order]

    # -- output checks ----------------------------------------------------

    def _check_synth(self, out: str) -> dict:
        match = re.match(r"wrote (\d+) points", out)
        with self.csv.open() as fh:
            rows = sum(1 for _ in fh) - 1
        if not match or int(match.group(1)) != SERIES_LENGTH or rows != SERIES_LENGTH:
            raise CheckFailed(f"synth wrote {rows} rows: {out!r}")
        return {}

    def _check_train(self, out: str) -> dict:
        text = (self.run / "train.log").read_text()
        volumes = {m: getattr(self.config, m).volume for m in engine.MEMBERS}
        windows = measures.trained_windows(text, volumes)
        val = measures.best_val_losses(text)
        if (set(val) != set(engine.MEMBERS) or min(windows.values()) < 1
                or not all(math.isfinite(v) for v in val.values())):
            raise CheckFailed(f"train.log incomplete: windows {windows}, val {val}")
        return {"windows": sum(windows.values()), "val": val}

    def _check_predict(self, out: str) -> dict:
        with self.forecast.open() as fh:
            header = fh.readline().strip().split(",")
            rows = [dict(zip(header, line.strip().split(","))) for line in fh]
        if len(rows) != self.config.f:
            raise CheckFailed(f"predict wrote {len(rows)} rows, expected {self.config.f}")
        for row in rows:
            values = {k: float(row[k]) for k in ("n", "e", "c_prob", "composed", "raw")}
            chosen = values["e"] if row["gate"] == "1" else values["n"]
            if not all(map(math.isfinite, values.values())) or values["composed"] != chosen:
                raise CheckFailed(f"bad forecast row {row}")
        return {}


def _check_preprocess(out: str) -> dict:
    match = re.search(r"roundtrip max error (\S+)", out)
    if not match or float(match.group(1)) != 0.0:
        raise CheckFailed(f"preprocess round trip is not exact: {out!r}")
    return {}


def _check_fit_gmm(out: str) -> dict:
    match = re.search(r"log-likelihood (\S+) -> (\S+)", out)
    if not match or float(match.group(2)) < float(match.group(1)):
        raise CheckFailed(f"EM log-likelihood decreased: {out!r}")
    return {}


def _rmse_row(line: str) -> dict:
    fields = line.split(",")
    row = {"id": fields[0], "total": float(fields[2]), "n_total": int(fields[6]),
           "n_extreme": int(fields[7])}
    row["n_normal"] = row["n_total"] - row["n_extreme"]
    for key, text in (("normal", fields[3]), ("extreme", fields[4])):
        row[key] = float(text) if text else None
        if (row[key] is None) != (row[f"n_{key}"] == 0):
            raise CheckFailed(f"rmse_{key} present without {key} points: {line}")
    parts = sum(row[k] ** 2 * row[f"n_{k}"] for k in ("normal", "extreme")
                if row[k] is not None)
    if not math.isclose(row["total"] ** 2 * row["n_total"], parts, rel_tol=1e-12):
        raise CheckFailed(f"RMSE decomposition does not hold: {line}")
    return row


def _check_evaluate(out: str) -> dict:
    lines = out.strip().splitlines()
    if len(lines) != 4:
        raise CheckFailed(f"evaluate printed {len(lines)} lines: {out!r}")
    run, baseline = _rmse_row(lines[1]), _rmse_row(lines[2])
    if baseline["id"] != "persistence":
        raise CheckFailed(f"no persistence row: {out!r}")
    match = re.search(r"p=(?:np\.float64\()?([0-9.eE+-]+)", lines[3])
    if not match or not 0.0 <= float(match.group(1)) <= 1.0:
        raise CheckFailed(f"bad Wilcoxon line: {lines[3]!r}")
    return {"rmse_rel": run["total"] / baseline["total"], "run": run}


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up pass, timed unit and tail of one workload."""

    min_units = 1
    tail_predicts = MIN_PREDICTS

    def setup(self, s: Session):
        s.inputs()

    def unit(self, s: Session): ...

    def tail(self, s: Session):
        for _ in range(self.tail_predicts):
            s.predict_next()
        for _ in range(TAIL_EVALUATES):
            s.evaluate()


class Desk(Workload):
    """The six-stage CLI pipeline as the acceptance battery runs it."""

    tail_predicts = DESK_PREDICTS

    def unit(self, s):
        s.inputs()
        s.train(desk_config())
        s.predict()
        s.evaluate()


class PaperTrain(Workload):
    """`train` at the paper's shapes on a fixed budget of windows."""

    config = paper_config(volume=128, epochs=2)

    def unit(self, s):
        s.train(self.config)


class Forecast(Workload):
    """Serving a paper-scale run: predict at distinct origins, then evaluate."""

    min_units = MIN_PREDICTS
    tail_predicts = 0
    config = paper_config(volume=32, epochs=1)

    def setup(self, s):
        s.inputs()
        s.train(self.config)
        s.predict(warmup=True)

    def unit(self, s):
        s.predict_next()


WORKLOADS = {"desk": Desk, "paper_train": PaperTrain, "forecast": Forecast}


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def timed_loop(unit, seconds: float, min_units: int, tracer: Tracer | None):
    """Run units back to back until the next one would end after `seconds`.

    In a traced run, units alternate between wrappers removed and installed,
    so the trace holds the overhead of tracing.
    """
    walls: list[float] = []
    start = time.perf_counter()
    if tracer is not None:
        min_units = max(min_units, 2)
    while True:
        span = contextlib.nullcontext()
        if tracer is not None:
            traced = len(walls) % 2 == 1
            tracer.install() if traced else tracer.uninstall()
            span = tracer.span(UNIT_SPAN, traced=traced)
        with span:
            walls.append(timed(unit))
        elapsed = time.perf_counter() - start
        if len(walls) >= min_units and elapsed + measures.median(walls) > seconds:
            break
    if tracer is not None:
        tracer.install()
    return walls


def run(name: str, root: Path, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload; returns the session, set-up passes, unit walls and
    the spans of a traced run."""
    workload = WORKLOADS[name]()
    work_dir = root / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    tracer = Tracer() if traced else None
    session = Session(work_dir, seed, tracer)
    passes = []     # the calls each set-up pass made
    try:
        if tracer is not None:
            tracer.install()
        for _ in range(SETUP_PASSES):
            first = len(session.log)
            workload.setup(session)
            passes.append(session.log[first:])
        units = timed_loop(lambda: workload.unit(session), seconds,
                           workload.min_units, tracer)
        workload.tail(session)
    finally:
        if tracer is not None:
            tracer.uninstall()
    notes = _extreme_members(session) if name == "desk" else []
    shutil.rmtree(work_dir, ignore_errors=True)
    return {"session": session, "setup": passes, "units": units,
            "spans": tracer.spans if tracer else [], "notes": notes}


def _extreme_members(s: Session) -> list[str]:
    """E's and N's raw-scale RMSE on the extreme test points, the comparison
    the acceptance battery makes for its reference seed. Reported, not
    checked: at desk scale the test sections hold a handful of extreme
    points, and some seeds have none."""
    s.attempted += 1
    try:
        run = engine.load_run(s.run)
        cfg = run.config
        raw = series.read_series_csv(s.csv).values
        with (s.data / "preprocessed.csv").open() as fh:
            fh.readline()
            rows = [line.strip().split(",") for line in fh]
        std = np.array([float(r[1]) for r in rows])
        labels = np.array([r[2] == "1" for r in rows])
        features = engine.assemble_features(std, run.gmm)
        split = sampling.make_split(len(std), sampling.SplitSpec(
            h=cfg.h, f=cfg.f, holdout_sections=cfg.holdout_sections,
            val_ranges=cfg.val_ranges, test_ranges=cfg.test_ranges,
            seed=cfg.split_seed))
        err = {"e": [], "n": []}
        for start, stop in split.test_sections:
            bundle = engine.predict(run.models, features[start - cfg.h:start],
                                    raw[start], run.transform)
            extreme = labels[start:stop]
            truth = raw[start + 1:stop + 1][extreme]
            for member, pred in (("e", bundle.e_pred), ("n", bundle.n_pred)):
                path = series.invert_transform(pred, run.transform,
                                               anchor_override=raw[start])
                err[member].extend(path[extreme] - truth)
    except Exception:
        s.failed += 1
        traceback.print_exc()
        return ["extreme test points: comparison failed"]
    if not err["e"]:
        return ["extreme test points: none in the test sections"]
    e_rmse, n_rmse = (float(np.sqrt(np.mean(np.square(err[m])))) for m in "en")
    verdict = "holds" if e_rmse < n_rmse else "does not hold"
    return [f"extreme test points: {len(err['e'])}; rmse E {e_rmse:.4f}, "
            f"N {n_rmse:.4f}; E below N {verdict}"]


# ---------------------------------------------------------------------------
# End-to-end metrics


def end_to_end(result: dict, raw=False) -> dict:
    """{metric: (value, unit, samples)}, times scaled to the reference speed
    unless `raw`; a value is None when no call of its stage succeeded."""
    s: Session = result["session"]

    def med(values):
        return measures.median(values) if values else None

    def seconds(calls):
        return sum(c.wall if raw else c.scaled for c in calls)

    walls = {stage: s.timings(stage, raw) for stage in STAGES}
    predicts = walls["predict"]
    prep = [p + f for p, f in zip(walls["preprocess"], walls["fit-gmm"])]
    trains = s.facts("train")
    evaluates = s.facts("evaluate")
    stage_medians = [med(walls[stage]) for stage in STAGES]

    def predict_ms(p):
        return 1000 * measures.percentile(predicts, p) if predicts else None

    values = {
        "setup_s": (med([seconds(p) for p in result["setup"]]), len(result["setup"])),
        "pipeline_s": (None if None in stage_medians else sum(stage_medians),
                       min(len(w) for w in walls.values())),
        "prep_s": (med(prep), len(prep)),
        "train_s": (med(walls["train"]), len(trains)),
        "train_windows_per_s": (med([f["windows"] / w for w, f in
                                     zip(walls["train"], trains)]), len(trains)),
        "predict_p50_ms": (predict_ms(50), len(predicts)),
        "predict_p90_ms": (predict_ms(90), len(predicts)),
        "evaluate_s": (med(walls["evaluate"]), len(evaluates)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "test_rmse_total_rel": (med([f["rmse_rel"] for f in evaluates]), len(evaluates)),
        "val_loss_c": (med([f["val"]["c"] for f in trains]), len(trains)),
    }
    return {name: (values[name][0], unit, values[name][1])
            for name, unit, _ in END_TO_END}


def accuracy_notes(result: dict) -> list[str]:
    """Raw-unit accuracy of the last evaluate and train, for the reader."""
    s: Session = result["session"]
    notes = []
    if s.facts("evaluate"):
        row = s.facts("evaluate")[-1]["run"]
        notes.append(f"test rmse_total {row['total']!r}, rmse_extreme "
                     f"{row['extreme']!r} over {row['n_extreme']} extreme of "
                     f"{row['n_total']} points")
    if s.facts("train"):
        val = s.facts("train")[-1]["val"]
        notes.append("best-epoch val loss " + ", ".join(
            f"{m} {val[m]!r}" for m in engine.MEMBERS))
    return notes

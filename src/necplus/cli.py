"""Batch command-line frontend.

Subcommands: synth, preprocess, fit-gmm, train, predict, evaluate,
plotdata. Exit codes: 0 success, 1 domain error, 2 usage error. All
randomness flows from named seeds in arguments or the run config.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from pathlib import Path

import numpy as np

from . import distributions, engine, evaluation, kvtext, sampling, series, synth
from .errors import ConfigError, DimensionError, NecError


def _read_exog(paths: list[str], expected_len: int) -> list[np.ndarray]:
    """Exogenous channels are z-scored (not differenced) and trimmed by one
    point so they align with the standardized primary series."""
    channels = []
    for path in paths:
        raw = series.read_series_csv(path)
        if len(raw) != expected_len + 1:
            raise DimensionError(
                f"{path}: exogenous series length {len(raw)} does not match "
                f"primary series length {expected_len + 1}")
        vals = raw.values[1:]
        std = np.std(vals)
        channels.append((vals - np.mean(vals)) / (std if std > 0 else 1.0))
    return channels


def _load_preprocessed(in_dir: Path, with_timestamps: bool = False):
    std_values = []
    labels = []
    stamps = []
    with (in_dir / "preprocessed.csv").open() as fh:
        fh.readline()
        for line in fh:
            ts, val, ext = line.strip().split(",")
            std_values.append(float(val))
            labels.append(ext == "1")
            if with_timestamps:
                stamps.append(ts)
    meta, epsilon = series.read_transform_meta(in_dir / "transform.meta")
    std = series.StandardizedSeries(values=np.array(std_values), **meta)
    if with_timestamps:
        return std, np.array(labels, dtype=bool), epsilon, stamps
    return std, np.array(labels, dtype=bool), epsilon


def cmd_synth(args) -> int:
    raw, onsets = synth.generate(args.seed, args.length, args.spike_rate,
                                 args.spike_shape)
    series.write_series_csv(args.out, raw)
    sidecar = Path(args.out).with_suffix(".spikes.csv")
    with sidecar.open("w") as fh:
        fh.write("spike_index\n")
        for onset in onsets:
            fh.write(f"{int(onset)}\n")
    print(f"wrote {args.length} points to {args.out} ({len(onsets)} spikes)")
    return 0


def cmd_preprocess(args) -> int:
    raw = series.read_series_csv(args.input)
    filled = series.fill_gaps(raw, max_degree=args.max_degree)
    std = series.difference_standardize(filled, fit_length=args.fit_length)
    labels = series.label_extremes(std, args.epsilon)
    series.write_preprocessed(args.out_dir, filled, std, labels)
    # self-test: the stored parameters must invert the transform
    recovered = series.invert_transform(std.values, std,
                                        anchor_override=filled.values[0])
    roundtrip = float(np.max(np.abs(recovered - filled.values[1:])))
    print(f"preprocessed {len(std)} points; extreme fraction "
          f"{labels.extreme_fraction:.6f}; roundtrip max error {roundtrip:.3e}")
    return 0


def cmd_fit_gmm(args) -> int:
    std, _, _ = _load_preprocessed(Path(args.in_dir))
    model = distributions.fit_gmm(std.values, args.components, seed=args.seed)
    distributions.save_gmm(Path(args.in_dir) / "gmm.model", model)
    trace = model.log_likelihood_trace
    print(f"fit {model.n_components}-component mixture in {len(trace)} "
          f"iterations; log-likelihood {trace[0]:.3f} -> {trace[-1]:.3f}")
    return 0


def cmd_train(args) -> int:
    config = engine.load_config(args.config)
    in_dir = Path(args.data)
    std, labels, epsilon = _load_preprocessed(in_dir)
    if abs(epsilon - config.epsilon) > 1e-12:
        raise ConfigError(
            f"config epsilon {config.epsilon} != preprocessing epsilon {epsilon}")
    gmm_path = in_dir / "gmm.model"
    if gmm_path.exists():
        gmm = distributions.load_gmm(gmm_path)
    else:
        gmm = distributions.fit_gmm(std.values, config.gmm_components,
                                    seed=config.gmm_seed)
    exog = _read_exog(args.exog or [], len(std))
    if len(exog) != config.n_exogenous:
        raise ConfigError(
            f"config declares {config.n_exogenous} exogenous channels, "
            f"got {len(exog)}")
    features = engine.assemble_features(std.values, gmm, exog)
    spec = sampling.SplitSpec(h=config.h, f=config.f,
                              holdout_sections=config.holdout_sections,
                              val_ranges=config.val_ranges,
                              test_ranges=config.test_ranges,
                              seed=config.split_seed)
    split = sampling.make_split(len(std), spec)
    models, logs = engine.train_nec(config, features, labels, split)
    engine.save_run(args.out, config, gmm, std, models, logs)
    sampling.dump_split_csv(Path(args.out) / "split.csv", split)
    for name in engine.MEMBERS:
        log = logs[name]
        print(f"{name}: best epoch {log.best_epoch}, "
              f"val loss {log.val_losses[log.best_epoch]:.6f}")
    print(f"run saved to {args.out}")
    return 0


def cmd_predict(args) -> int:
    run = engine.load_run(args.run_dir)
    config = run.config
    raw = series.read_series_csv(args.input)
    filled = series.fill_gaps(raw)
    std_vals = (np.diff(filled.values) - run.transform.location) / run.transform.scale
    exog = _read_exog(args.exog or [], len(std_vals))
    if len(exog) != config.n_exogenous:
        raise ConfigError(
            f"run was trained with {config.n_exogenous} exogenous channels, "
            f"got {len(exog)}")
    features = engine.assemble_features(std_vals, run.gmm, exog)
    origin = _origin_index(filled, args.origin_timestamp)
    if origin - config.h < 0:
        raise DimensionError(
            f"need {config.h} history steps before the forecast origin")
    window = features[origin - config.h:origin]
    bundle = engine.predict(run.models, window, anchor=filled.values[origin],
                            transform=run.transform,
                            threshold=config.gate_threshold,
                            soft_gate=config.soft_gate)
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write("step,n,e,c_prob,gate,composed,raw\n")
        for i in range(config.f):
            out.write(f"{i},{float(bundle.n_pred[i])!r},{float(bundle.e_pred[i])!r},"
                      f"{float(bundle.c_prob[i])!r},{int(bundle.gate[i])},"
                      f"{float(bundle.composed[i])!r},{float(bundle.raw_scale[i])!r}\n")
    finally:
        if args.out is not None:
            out.close()
    return 0


def _origin_index(raw: series.RawSeries, timestamp: str | None) -> int:
    """Index of the last known raw value; the forecast covers the next f
    standardized steps. Defaults to the series end minus nothing (last h
    window ends at the final observation)."""
    if timestamp is None:
        return len(raw) - 1
    target = series._parse_timestamp(timestamp)
    idx = np.searchsorted(raw.timestamps, target)
    if idx >= len(raw) or raw.timestamps[idx] != target:
        raise ConfigError(f"timestamp {timestamp} not present in input series")
    return int(idx)


def _section_eval(run: engine.RunArtifacts, features, labels, raw_values,
                  sections):
    """Predict every holdout section; returns per-section raw predictions,
    truths, labels, and the persistence baseline."""
    config = run.config
    results = []
    for start, stop in sections:
        origin = start - config.h
        if origin < 0:
            raise ConfigError(f"section at {start} has no {config.h}-step history")
        window = features[origin:start]
        anchor = raw_values[start]  # std index i pairs raw[i] -> raw[i+1]
        bundle = engine.predict(run.models, window, anchor=anchor,
                                transform=run.transform,
                                threshold=config.gate_threshold,
                                soft_gate=config.soft_gate)
        truth = raw_values[start + 1:stop + 1]
        baseline = evaluation.persistence_forecast(raw_values[:start + 1],
                                                   config.f)
        results.append((bundle, truth, labels[start:stop], baseline))
    return results


def cmd_evaluate(args) -> int:
    run = engine.load_run(args.run_dir)
    config = run.config
    std, labels, _ = _load_preprocessed(Path(args.data))
    exog = _read_exog(args.exog or [], len(std))
    features = engine.assemble_features(std.values, run.gmm, exog)
    raw_values = _reconstruct_raw(std)
    spec = sampling.SplitSpec(h=config.h, f=config.f,
                              holdout_sections=config.holdout_sections,
                              val_ranges=config.val_ranges,
                              test_ranges=config.test_ranges,
                              seed=config.split_seed)
    split = sampling.make_split(len(std), spec)
    sections = split.val_sections if args.split == "val" else split.test_sections
    results = _section_eval(run, features, labels, raw_values, sections)
    preds = np.concatenate([r[0].raw_scale for r in results])
    truths = np.concatenate([r[1] for r in results])
    sec_labels = np.concatenate([r[2] for r in results])
    report = evaluation.per_class_report(preds, truths, sec_labels)
    print(evaluation.CSV_HEADER)
    print(report.csv_row(Path(args.run_dir).name, run.transform.source_id))
    if args.baseline:
        base = np.concatenate([r[3] for r in results])
        base_report = evaluation.per_class_report(base, truths, sec_labels)
        print(base_report.csv_row("persistence", run.transform.source_id))
        if args.wilcoxon:
            pairs = [(evaluation.rmse(r[0].raw_scale, r[1]),
                      evaluation.rmse(r[3], r[1])) for r in results]
            result = evaluation.wilcoxon_signed_rank(np.array(pairs))
            print(f"wilcoxon,T={result.statistic},p={result.p_value!r},n={result.n}")
    return 0


def _reconstruct_raw(std: series.StandardizedSeries) -> np.ndarray:
    """Raw series from the stored transform; raw[0] is unknown to the
    preprocessed artifacts, so rebuild from the anchor backwards."""
    increments = std.values * std.scale + std.location
    raw = np.empty(len(std) + 1)
    raw[0] = std.anchor - float(np.sum(increments))
    raw[1:] = raw[0] + np.cumsum(increments)
    return raw


def cmd_plotdata(args) -> int:
    run = engine.load_run(args.run_dir)
    config = run.config
    std, labels, _, stamps = _load_preprocessed(Path(args.data), with_timestamps=True)
    exog = _read_exog(args.exog or [], len(std))
    features = engine.assemble_features(std.values, run.gmm, exog)
    raw_values = _reconstruct_raw(std)
    spec = sampling.SplitSpec(h=config.h, f=config.f,
                              holdout_sections=config.holdout_sections,
                              val_ranges=config.val_ranges,
                              test_ranges=config.test_ranges,
                              seed=config.split_seed)
    split = sampling.make_split(len(std), spec)
    sections = split.test_sections
    if not (0 <= args.section < len(sections)):
        raise ConfigError(
            f"section index {args.section} out of range (0..{len(sections) - 1})")
    result = _section_eval(run, features, labels, raw_values,
                           [sections[args.section]])[0]
    bundle, truth, _, baseline = result
    start = sections[args.section][0]
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write("timestamp,truth,nec_plus,baseline\n")
        for i in range(config.f):
            out.write(f"{stamps[start + i]},{float(truth[i])!r},"
                      f"{float(bundle.raw_scale[i])!r},{float(baseline[i])!r}\n")
    finally:
        if args.out is not None:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="necplus",
        description="Extreme-adaptive multi-step forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic hourly series")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int, default=20000)
    p.add_argument("--spike-rate", type=float, default=0.002)
    p.add_argument("--spike-shape", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="fill gaps, difference, standardize, label")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--epsilon", type=float, default=1.5)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--fit-length", type=int, default=None,
                   help="fit location/scale on the first N raw points only")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit-gmm", help="fit the mixture indicator model")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--components", "-m", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fit_gmm)

    p = sub.add_parser("train", help="train the N/E/C triple")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="preprocessed directory")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--exog", nargs="*", default=[])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="forecast f steps from a raw CSV")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--origin-timestamp", default=None)
    p.add_argument("--exog", nargs="*", default=[])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score holdout sections")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True, help="preprocessed directory")
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--exog", nargs="*", default=[])
    p.add_argument("--baseline", action="store_true",
                   help="add a persistence baseline row")
    p.add_argument("--wilcoxon", action="store_true",
                   help="exact test over per-section RMSE pairs vs the baseline")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plotdata", help="aligned truth/forecast CSV for one section")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--section", type=int, default=0)
    p.add_argument("--exog", nargs="*", default=[])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plotdata)
    return parser


# glibc malloc options (malloc.h) and the highest values its dynamic
# thresholds reach on 64-bit hosts.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


@functools.cache
def _steady_malloc() -> None:
    """Fix glibc's heap thresholds at the values they settle at on their own.

    glibc starts by serving blocks over 128 KiB with mmap and trimming the
    heap top past 256 KiB, and raises both limits only as it sees larger
    blocks freed. Training allocates and frees (T, B, 4W) kernel arrays every
    batch, so until the limits have risen each batch faults its working set
    in afresh: a process's first `train` ran about 12% slower than later
    ones. Elsewhere than glibc this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def main(argv=None) -> int:
    _steady_malloc()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

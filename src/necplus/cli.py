"""Batch command-line frontend: arguments, each stage's library calls, output.

Subcommands: synth, preprocess, fit-gmm, train, predict, evaluate,
plotdata. Each one parses its arguments, calls the library (`series` for
the CSV files, `engine` for training, forecasting and the holdout
sections) and prints or writes the result. Exit codes: 0 success, 1 domain
error, 2 usage error. All randomness flows from named seeds in arguments or
the run config.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads its BLAS: train_nec
# already runs one process per usable CPU, and a BLAS pool in each of them
# only makes them wait for each other's CPUs. A value the user set wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from . import distributions, engine, evaluation, sampling, series, synth  # noqa: E402
from .errors import ConfigError, InvalidInputError, NecError, writing  # noqa: E402


def cmd_synth(args) -> int:
    raw, onsets = synth.generate(args.seed, args.length, args.spike_rate,
                                 args.spike_shape)
    series.write_series_csv(args.out, raw)
    spikes = Path(args.out).with_suffix(".spikes.csv")
    with writing(spikes):
        spikes.write_text("".join(f"{line}\n" for line in ["spike_index", *onsets.tolist()]),
                          encoding="utf-8")
    print(f"wrote {args.length} points to {args.out} ({len(onsets)} spikes)")
    return 0


def cmd_preprocess(args) -> int:
    raw = series.read_series_csv(args.input)
    filled = series.fill_gaps(raw)
    std = series.difference_standardize(filled)
    labels = series.label_extremes(std, args.epsilon)
    series.write_preprocessed(args.out_dir, filled, std, labels, args.epsilon)
    # self-test: the stored parameters must invert the transform
    recovered = series.invert_transform(std.values, std,
                                        anchor_override=filled.values[0])
    roundtrip = float(np.max(np.abs(recovered - filled.values[1:])))
    print(f"preprocessed {len(std)} points; extreme fraction "
          f"{labels.mean():.6f}; roundtrip max error {roundtrip:.3e}")
    return 0


def cmd_fit_gmm(args) -> int:
    std = series.read_preprocessed(args.in_dir)[0]
    model = distributions.fit_gmm(std.values, args.components, seed=args.seed)
    distributions.save_gmm(Path(args.in_dir) / "gmm.model", model)
    trace = model.log_likelihood_trace
    print(f"fit {model.n_components}-component mixture in {len(trace)} "
          f"iterations; log-likelihood {trace[0]:.3f} -> {trace[-1]:.3f}")
    return 0


def cmd_train(args) -> int:
    config = engine.load_config(args.config)
    std, labels, _ = engine.read_data(args.data, config)
    gmm_path = Path(args.data) / "gmm.model"
    if not gmm_path.exists():
        raise InvalidInputError(
            f"{gmm_path} not found: run `necplus fit-gmm --in-dir {args.data}` first")
    gmm = distributions.load_gmm(gmm_path)
    if gmm.n_components != config.gmm_components:
        raise ConfigError(f"config gmm_components_m {config.gmm_components} != "
                          f"{gmm.n_components} components in {gmm_path}")
    features = engine.assemble_features(std.values, gmm)
    split = sampling.make_split(len(std), config.split_spec())
    models, logs = engine.train_nec(config, features, labels, split)
    engine.save_run(args.out, config, gmm, std, models, logs, split)
    for name in engine.MEMBERS:
        log = logs[name]
        print(f"{name}: best epoch {log.best_epoch}, "
              f"val loss {log.val_losses[log.best_epoch]:.6f}")
    print(f"run saved to {args.out}")
    return 0


def cmd_predict(args) -> int:
    run = engine.load_run(args.run_dir)
    config = run.config
    window = series.read_window(args.input, args.origin_timestamp, config.h)
    std = series.standardize(window, run.transform.location, run.transform.scale)
    features = engine.assemble_features(std.values, run.gmm)
    bundle = engine.predict(run.models, features,
                            anchor=window.values[-1],
                            transform=run.transform,
                            threshold=config.gate_threshold)
    with _output(args.out) as out:
        out.write("step,n,e,c_prob,gate,composed,raw\n")
        for i in range(config.f):
            out.write(f"{i},{float(bundle.n_pred[i])!r},{float(bundle.e_pred[i])!r},"
                      f"{float(bundle.c_prob[i])!r},{int(bundle.gate[i])},"
                      f"{float(bundle.composed[i])!r},{float(bundle.raw_scale[i])!r}\n")
    return 0


@contextlib.contextmanager
def _output(path: str | None):
    """stdout, or the file `path` opened for writing."""
    if path is None:
        yield sys.stdout
    else:
        with writing(path), open(path, "w", encoding="utf-8") as out:
            yield out


def _holdout(args, which: str):
    """(run, its `which` sections, features, labels, raw values, timestamps)."""
    run = engine.load_run(args.run_dir)
    std, labels, stamps = engine.read_data(args.data, run.config, run.transform)
    features = engine.assemble_features(std.values, run.gmm)
    split = sampling.make_split(len(std), run.config.split_spec())
    sections = split.val_sections if which == "val" else split.test_sections
    return run, sections, features, labels, series.reconstruct_raw(std), stamps


def cmd_evaluate(args) -> int:
    run, sections, features, labels, raw_values, _ = _holdout(args, args.split)
    bundle, truth, sec_labels, baseline = engine.forecast_sections(
        run, features, labels, raw_values, sections)
    pred, sensor = bundle.raw_scale, run.transform.source_id
    # every row is computed before the first is printed: a stage that fails
    # writes no stdout
    rows = [evaluation.CSV_HEADER, evaluation.per_class_report(
        pred, truth, sec_labels).csv_row(Path(args.run_dir).name, sensor)]
    if args.baseline:
        rows.append(evaluation.per_class_report(baseline, truth, sec_labels)
                    .csv_row("persistence", sensor))
    if args.wilcoxon:
        result = evaluation.wilcoxon_signed_rank(np.column_stack(
            [evaluation.row_rmse(pred, truth), evaluation.row_rmse(baseline, truth)]))
        rows.append(f"wilcoxon,T={result.statistic},p={result.p_value!r},n={result.n}")
    print(*rows, sep="\n")
    return 0


def cmd_plotdata(args) -> int:
    run, sections, features, labels, raw_values, stamps = _holdout(args, "test")
    if not (0 <= args.section < len(sections)):
        raise ConfigError(
            f"section index {args.section} out of range (0..{len(sections) - 1})")
    start, stop = sections[args.section]
    bundle, truth, _, baseline = engine.forecast_sections(
        run, features, labels, raw_values, [sections[args.section]])
    with _output(args.out) as out:
        out.write("timestamp,truth,nec_plus,baseline\n")
        for i, stamp in enumerate(series._format_timestamps(stamps[start:stop])):
            out.write(f"{stamp},{float(truth[0, i])!r},"
                      f"{float(bundle.raw_scale[0, i])!r},{float(baseline[0, i])!r}\n")
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
    p.add_argument("--epsilon", type=float, default=engine.NecConfig.epsilon)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit-gmm", help="fit the mixture indicator model")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--components", "-m", type=int,
                   default=engine.NecConfig.gmm_components)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fit_gmm)

    p = sub.add_parser("train", help="train the N/E/C triple")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="preprocessed directory")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="forecast f steps from a raw CSV")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--origin-timestamp", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score holdout sections")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True, help="preprocessed directory")
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--baseline", action="store_true",
                   help="add a persistence baseline row")
    p.add_argument("--wilcoxon", action="store_true",
                   help="exact test over per-section RMSE pairs vs persistence")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plotdata", help="aligned truth/forecast CSV for one section")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--section", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

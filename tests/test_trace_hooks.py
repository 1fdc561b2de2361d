"""The benchmark's span tracer (`bench/tracing.py`) wraps necplus functions
and reads their arguments and results in its describe hooks. A change to the
data path that breaks a hook would only show when someone runs
`python3 bench/run.py --trace 1`; this test runs every hook on a tiny
train, predict and holdout forecast instead, and checks the window counts
the sampler and training hooks report."""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from necplus import engine, sampling, series, synth  # noqa: E402
from test_engine import training_inputs  # noqa: E402


def test_every_describe_hook_runs(tmp_path):
    csv = tmp_path / "series.csv"
    series.write_series_csv(csv, synth.generate(0, 50)[0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        series.read_series_csv(csv)
        config, features, labels, split, gmm = training_inputs()
        models, logs = engine.train_nec(config, features, labels, split)
        transform = series.StandardizedSeries(values=np.array([]), location=0.0,
                                              scale=1.0, anchor=0.0)
        run = engine.RunArtifacts(config=config, gmm=gmm, transform=transform,
                                  models=models)
        engine.predict(models, features[:config.h], 0.0, transform)
        raw_values = np.concatenate([[0.0], np.cumsum(features[:, 0])])
        engine.forecast_sections(run, features, labels, raw_values,
                                 split.test_sections)
    finally:
        tracer.uninstall()
    described = {t.span for t in tracing.TARGETS if t.describe is not None}
    with_attrs = {s.name for s in tracer.spans if s.attrs}
    assert described <= with_attrs, described - with_attrs
    # the hooks' values: each member's draw and its training, in member order
    draws = [sp.attrs for sp in tracer.spans if sp.name == "sampling.draw_samples"]
    trains = [sp.attrs for sp in tracer.spans if sp.name == "neural.training.train"]
    assert [t["member"] for t in trains] == list(engine.MEMBERS)
    for name, drawn, trained in zip(engine.MEMBERS, draws, trains, strict=True):
        spec = getattr(config, name)
        origins = sampling.draw_samples(
            features, labels, config.h, config.f, spec.volume,
            spec.oversampling_os, seed=spec.seed,
            train_mask=split.train_mask).origins
        extreme = sum(bool(labels[o + config.h:o + config.h + config.f].any())
                      for o in origins)
        assert drawn == {"windows": spec.volume, "extreme_windows": extreme}
        epochs = len(logs[name].train_losses)
        assert trained["epochs"] == epochs
        assert trained["windows"] == epochs * spec.volume
    # the wrappers are gone again
    assert engine.predict.__module__ == "necplus.engine"
    assert not hasattr(engine.predict, "__wrapped__")

"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the whole battery can be read
at a glance with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from necplus import distributions, engine, evaluation, kvtext, sampling, series
from necplus.cli import main
from necplus.errors import DegenerateSeriesError
from necplus.neural import NetStack, masked_mse_loss

from gradcheck import gradient_check


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_1_wilcoxon_exactness():
    t0 = time.time()
    method = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.25])
    other = np.array([2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 9.0])
    single = evaluation.wilcoxon_signed_rank(np.column_stack([method, other]))
    sweep = evaluation.wilcoxon_signed_rank(
        np.column_stack([np.arange(1.0, 10.0), np.arange(2.0, 20.0, 2.0)]))
    elapsed = time.time() - t0
    ok = (single.statistic == 1.0 and single.p_value == 0.0078125
          and sweep.statistic == 0.0 and sweep.p_value == 0.00390625
          and elapsed < 1.0)
    report(1, "wilcoxon exactness", ok,
           f"T=1 p={single.p_value}, sweep p={sweep.p_value}, {elapsed:.3f}s")


def test_2_gradient_fidelity():
    t0 = time.time()
    cases = [
        ("normal", 1.0, 1.0),
        ("extreme", 1.0, 1.0),
        ("classifier", 1.0, 1.0),
        ("classifier", 2.0, 0.5),
        ("classifier", 3.0, 0.45),
    ]
    worst = 0.0
    for head, alpha, beta in cases:
        rng = np.random.default_rng(10)
        model = NetStack(head, input_dim=3, width=8, n_layers=2, horizon=6,
                         seed=11)
        x = rng.normal(size=(2, 12, 3))
        target = rng.normal(size=(2, 6))
        mask = rng.uniform(size=(2, 6)) < 0.5
        mask[0, 0] = True
        if head in ("normal", "extreme"):
            # the normal head fits the positions the labels mark normal, the
            # extreme head those they mark extreme: complementary masking
            mask = ~mask
        error = gradient_check(model, x, target, mask, alpha=alpha,
                               beta=beta, eps=1e-4)
        worst = max(worst, error)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(2, "gradient fidelity", ok,
           f"max rel error {worst:.3e}, {elapsed:.1f}s")


def test_3_selected_backprop_oracle():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        f = int(rng.integers(2, 12))
        pred = rng.normal(size=f)
        target = rng.normal(size=f)
        mask = rng.uniform(size=f) < 0.5
        if not mask.any():
            mask[int(rng.integers(f))] = True
        loss, grad = masked_mse_loss(pred, target, mask)
        # independent oracle: overwrite unmasked targets with the
        # predictions, then take the squared error over the selected count
        count = int(mask.sum())
        overwritten = np.where(mask, target, pred)
        diff = pred - overwritten
        oracle_loss = float(np.sum(diff * diff) / count)
        oracle_grad = 2.0 * diff / count
        ok &= loss == oracle_loss
        ok &= bool(np.array_equal(grad, oracle_grad))
    report(3, "selected backprop equals perfect-prediction MSE", ok)


def test_4_preprocessing_round_trip():
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(10, 2000))
        values = rng.normal(loc=rng.uniform(-100, 100),
                            scale=rng.uniform(0.1, 50), size=n)
        raw = series.RawSeries("r", 3600 * np.arange(n), values)
        std = series.difference_standardize(raw)
        recovered = series.invert_transform(std.values, std,
                                            anchor_override=values[0])
        worst = max(worst, float(np.max(np.abs(recovered - values[1:]))))
    degenerate_raised = False
    try:
        series.difference_standardize(
            series.RawSeries("c", 3600 * np.arange(100), np.full(100, 5.0)))
    except DegenerateSeriesError:
        degenerate_raised = True
    ok = worst < 1e-9 and degenerate_raised
    report(4, "preprocessing round trip", ok, f"max error {worst:.3e}")


def test_5_em_properties():
    monotone = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        xs = np.concatenate([
            rng.normal(rng.uniform(-5, 5), rng.uniform(0.3, 2.0),
                       size=rng.integers(50, 300))
            for _ in range(3)])
        model = distributions.fit_gmm(xs, 3, seed=seed)
        trace = np.asarray(model.log_likelihood_trace)
        monotone &= bool(np.all(np.diff(trace) >= -1e-9))
    rng = np.random.default_rng(99)
    xs = rng.normal(2.5, 1.7, size=400)
    single = distributions.fit_gmm(xs, 1)
    closed_form = (single.weights[0] == 1.0
                   and single.means[0] == float(np.mean(xs))
                   and single.variances[0] == float(np.var(xs)))
    xs2 = np.concatenate([rng.normal(-3.0, 0.5, size=2000),
                          rng.normal(3.0, 0.5, size=2000)])
    two = distributions.fit_gmm(xs2, 2, seed=0)
    order = np.argsort(two.means)
    clusters = (abs(two.means[order[0]] + 3.0) < 0.1
                and abs(two.means[order[1]] - 3.0) < 0.1
                and np.all(np.abs(two.weights - 0.5) < 0.05))
    ok = monotone and closed_form and clusters
    report(5, "mixture EM properties", ok,
           f"monotone={monotone} closed_form={closed_form} clusters={clusters}")


def test_6_gev_diagnostics():
    rng = np.random.default_rng(7)
    true = distributions.GevParams(0.0, 1.0, 0.3)
    xs = distributions.sample_gev(true, 100_000, rng)
    loc, scale = distributions.fit_gaussian(xs)
    gauss_score = distributions.fit_quality(
        xs, lambda x: distributions.gaussian_pdf(x, loc, scale))
    gev_fit = distributions.fit_gev(xs)
    gev_score = distributions.fit_quality(
        xs, lambda x: distributions.gev_pdf(x, gev_fit))
    direction = gauss_score > gev_score

    grid = np.linspace(-2.0, 8.0, 200)
    delta = 1e-5
    fd = (distributions.gev_cdf(grid + delta, true)
          - distributions.gev_cdf(grid - delta, true)) / (2 * delta)
    fd_error = float(np.max(np.abs(fd - distributions.gev_pdf(grid, true))))

    near = distributions.GevParams(0.0, 1.0, 1e-9)
    gumbel = distributions.GevParams(0.0, 1.0, 0.0)
    cont = max(
        float(np.max(np.abs(distributions.gev_cdf(grid, near)
                            - distributions.gev_cdf(grid, gumbel)))),
        float(np.max(np.abs(distributions.gev_pdf(grid, near)
                            - distributions.gev_pdf(grid, gumbel)))))
    ok = direction and fd_error <= 1e-6 and cont <= 1e-6
    report(6, "extreme-tail diagnostics", ok,
           f"gauss {gauss_score:.5f} > gev {gev_score:.5f}, "
           f"fd {fd_error:.2e}, gumbel continuity {cont:.2e}")


def test_7_sampling_contracts():
    rng = np.random.default_rng(3)
    values = rng.normal(size=5000)
    values[::83] = 3.0
    labels = np.abs(values) > 1.5
    indicator = np.exp(-values**2)

    features = np.column_stack([values, indicator])
    full = sampling.draw_samples(features, labels, h=24, f=6,
                                 volume=500, os_ratio=1.0, seed=0)
    all_extreme = all(w.target_mask.any() for w in full)

    partial = sampling.draw_samples(features, labels, h=24, f=6,
                                    volume=1000, os_ratio=0.04, seed=1)
    n_extreme = sum(bool(w.target_mask.any()) for w in partial)

    spec = sampling.SplitSpec(h=24, f=6, holdout_sections=12,
                              val_ranges=((500, 1500),),
                              test_ranges=((2500, 4500),), seed=5)
    split = sampling.make_split(5000, spec)
    holdout = set()
    for start, stop in (*split.val_sections, *split.test_sections):
        holdout.update(range(start, stop))
    overlap_free = all(
        not (set(range(o, o + 30)) & holdout)
        for o in np.flatnonzero(split.train_mask))
    ok = all_extreme and n_extreme >= 40 and overlap_free
    report(7, "stratified sampling contracts", ok,
           f"OS=1 all extreme={all_extreme}, OS=0.04 count={n_extreme}/1000")


class _Stub:
    def __init__(self, out):
        self.out = np.asarray(out, dtype=np.float64)

    def forward(self, x):
        return self.out


def test_8_composition_identity(monkeypatch):
    # `forward_members` runs NetStacks only; the stubs give fixed outputs
    monkeypatch.setattr(engine, "forward_members",
                        lambda models, x: [m.forward(x) for m in models])
    rng = np.random.default_rng(4)
    transform = series.StandardizedSeries(values=np.array([]), location=0.2,
                                          scale=1.3, anchor=50.0)
    window = rng.normal(size=(8, 2))
    ok = True
    for _ in range(1000):
        f = int(rng.integers(1, 10))
        n_pred = rng.normal(size=f)
        e_pred = rng.normal(size=f)
        c_prob = rng.uniform(size=f)
        bundle = engine.predict({"n": _Stub(n_pred), "e": _Stub(e_pred),
                                 "c": _Stub(c_prob)}, window, 50.0, transform)
        for i in range(f):
            want = e_pred[i] if c_prob[i] > 0.5 else n_pred[i]
            ok &= bundle.composed[i] == want
    n_pred = rng.normal(size=6)
    reduced = engine.predict({"n": _Stub(n_pred), "e": _Stub(rng.normal(size=6)),
                              "c": _Stub(np.zeros(6))}, window, 50.0, transform)
    ok &= bool(np.array_equal(reduced.composed, n_pred))
    ok &= bool(np.array_equal(reduced.raw_scale,
                              series.invert_transform(n_pred, transform,
                                                      anchor_override=50.0)))
    report(8, "gated composition identity", ok)


REFERENCE_SEED = 1


def _desk_config(path):
    spec = engine.ModelSpec(layers=2, hidden=16, batch_size=32, volume=2000,
                            seed=1, patience=3)
    config = engine.NecConfig(
        h=24, f=6, epsilon=1.5, gmm_components=3,
        n=spec,
        e=engine.ModelSpec(layers=2, hidden=16, batch_size=32, volume=2000,
                           oversampling_os=1.0, seed=2, patience=4),
        c=engine.ModelSpec(layers=2, hidden=16, batch_size=32, volume=2000,
                           oversampling_os=1.0, seed=3, patience=4),
        holdout_sections=24, val_ranges=((2000, 8000),),
        test_ranges=((10000, 18000),), max_epochs=8)
    kvtext.write(path, engine.config_to_pairs(config))
    return config


def test_9_desk_scale_end_to_end(tmp_path):
    t0 = time.time()
    csv = tmp_path / "series.csv"
    data = tmp_path / "data"
    run_dir = tmp_path / "run"
    config_path = tmp_path / "config"
    assert main(["synth", "--seed", str(REFERENCE_SEED), "--length", "20000",
                 "--spike-rate", "0.01", "--out", str(csv)]) == 0
    assert main(["preprocess", "--input", str(csv), "--out-dir", str(data),
                 "--epsilon", "1.5"]) == 0
    assert main(["fit-gmm", "--in-dir", str(data), "--components", "3",
                 "--seed", "0"]) == 0
    config = _desk_config(config_path)
    assert main(["train", "--config", str(config_path), "--data", str(data),
                 "--out", str(run_dir)]) == 0
    assert main(["predict", "--run-dir", str(run_dir), "--input", str(csv),
                 "--out", str(tmp_path / "forecast.csv")]) == 0
    assert main(["evaluate", "--run-dir", str(run_dir), "--data", str(data),
                 "--split", "test", "--baseline"]) == 0

    run = engine.load_run(run_dir)
    std, labels, _, _ = series.read_preprocessed(data)
    features = engine.assemble_features(std.values, run.gmm)
    raw_values = series.reconstruct_raw(std)
    split = sampling.make_split(len(std), config.split_spec())

    preds, truths, sec_labels, e_raws, n_raws = [], [], [], [], []
    for start, stop in split.test_sections:
        window = features[start - config.h:start]
        anchor = raw_values[start]
        bundle = engine.predict(run.models, window, anchor, run.transform)
        preds.append(bundle.raw_scale)
        e_raws.append(series.invert_transform(bundle.e_pred, run.transform,
                                              anchor_override=anchor))
        n_raws.append(series.invert_transform(bundle.n_pred, run.transform,
                                              anchor_override=anchor))
        truths.append(raw_values[start + 1:stop + 1])
        sec_labels.append(labels[start:stop])
    preds = np.concatenate(preds)
    truths = np.concatenate(truths)
    sec_labels = np.concatenate(sec_labels)
    rep = evaluation.per_class_report(preds, truths, sec_labels)
    decomposition = (rep.rmse_total**2 * rep.n_total == pytest.approx(
        rep.rmse_normal**2 * rep.n_normal
        + rep.rmse_extreme**2 * rep.n_extreme, rel=1e-12))

    extreme = sec_labels
    e_rmse = evaluation.rmse(np.concatenate(e_raws)[extreme], truths[extreme])
    n_rmse = evaluation.rmse(np.concatenate(n_raws)[extreme], truths[extreme])
    elapsed = time.time() - t0
    ok = (decomposition and e_rmse < n_rmse and elapsed < 600.0
          and int(extreme.sum()) > 0)
    report(9, "desk-scale end to end", ok,
           f"seed {REFERENCE_SEED}: {int(extreme.sum())} extreme points, "
           f"E rmse_extreme {e_rmse:.4f} < N {n_rmse:.4f}, "
           f"rmse_total {rep.rmse_total:.4f}, {elapsed:.1f}s")

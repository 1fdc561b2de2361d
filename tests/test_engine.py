import numpy as np
import pytest

from necplus import distributions, engine, sampling, series
from necplus.errors import CheckpointError, ConfigError


class StubModel:
    """Fixed-output stand-in for a trained member."""

    def __init__(self, out):
        self.out = np.asarray(out, dtype=np.float64)

    def forward(self, x):
        return self.out


def identity_transform(anchor=0.0):
    return series.StandardizedSeries(values=np.array([]), location=0.0,
                                     scale=1.0, anchor=anchor)


def small_config(**overrides):
    spec = engine.ModelSpec(layers=1, hidden=4, batch_size=16, volume=30,
                            seed=0, patience=2)
    defaults = dict(
        h=12, f=4, epsilon=1.5, gmm_components=1,
        n=spec, e=engine.ModelSpec(layers=1, hidden=4, batch_size=16,
                                   volume=30, oversampling_os=1.0, seed=1,
                                   patience=2),
        c=engine.ModelSpec(layers=1, hidden=4, batch_size=16, volume=30,
                           oversampling_os=1.0, seed=2, patience=2),
        holdout_sections=2, val_ranges=((100, 200),),
        test_ranges=((300, 400),), max_epochs=2,
    )
    defaults.update(overrides)
    return engine.NecConfig(**defaults)


def training_inputs(n=600, seed=0):
    rng = np.random.default_rng(seed)
    std_values = rng.normal(size=n)
    std_values[::40] = 2.5  # guarantee extreme-containing windows
    labels = np.abs(std_values) > 1.5
    gmm = distributions.fit_gmm(std_values, 1)
    features = engine.assemble_features(std_values, gmm)
    config = small_config()
    spec = sampling.SplitSpec(h=config.h, f=config.f,
                              holdout_sections=config.holdout_sections,
                              val_ranges=config.val_ranges,
                              test_ranges=config.test_ranges, seed=0)
    split = sampling.make_split(n, spec)
    return config, features, labels, split, gmm


class TestPredictComposition:
    def test_hard_gate_identity_randomized(self):
        rng = np.random.default_rng(0)
        window = rng.normal(size=(8, 2))
        for _ in range(50):
            n_pred = rng.normal(size=5)
            e_pred = rng.normal(size=5)
            c_prob = rng.uniform(size=5)
            models = {"n": StubModel(n_pred), "e": StubModel(e_pred),
                      "c": StubModel(c_prob)}
            bundle = engine.predict(models, window, anchor=0.0,
                                    transform=identity_transform())
            for i in range(5):
                want = e_pred[i] if c_prob[i] > 0.5 else n_pred[i]
                assert bundle.composed[i] == want

    def test_constant_zero_classifier_equals_normal_model(self):
        rng = np.random.default_rng(1)
        n_pred = rng.normal(size=6)
        models = {"n": StubModel(n_pred), "e": StubModel(rng.normal(size=6)),
                  "c": StubModel(np.zeros(6))}
        transform = series.StandardizedSeries(values=np.array([]),
                                              location=0.3, scale=2.0,
                                              anchor=10.0)
        bundle = engine.predict(models, rng.normal(size=(8, 2)), anchor=10.0,
                                transform=transform)
        np.testing.assert_array_equal(bundle.composed, n_pred)
        np.testing.assert_array_equal(
            bundle.raw_scale, series.invert_transform(n_pred, transform))

    def test_composition_before_inversion(self):
        # inverting the composed standardized forecast must differ from
        # composing separately inverted member forecasts
        transform = series.StandardizedSeries(values=np.array([]),
                                              location=1.0, scale=2.0,
                                              anchor=5.0)
        models = {"n": StubModel([1.0, 1.0]), "e": StubModel([3.0, 3.0]),
                  "c": StubModel([0.9, 0.1])}
        bundle = engine.predict(models, np.zeros((4, 2)), anchor=5.0,
                                transform=transform)
        np.testing.assert_array_equal(bundle.composed, [3.0, 1.0])
        np.testing.assert_allclose(bundle.raw_scale, [5 + 7, 5 + 7 + 3])

    def test_gate_threshold(self):
        models = {"n": StubModel([0.0]), "e": StubModel([1.0]),
                  "c": StubModel([0.6])}
        low = engine.predict(models, np.zeros((4, 2)), 0.0,
                             identity_transform(), threshold=0.5)
        high = engine.predict(models, np.zeros((4, 2)), 0.0,
                              identity_transform(), threshold=0.7)
        assert low.composed[0] == 1.0 and high.composed[0] == 0.0

    def test_soft_gate_blend(self):
        models = {"n": StubModel([0.0]), "e": StubModel([1.0]),
                  "c": StubModel([0.25])}
        bundle = engine.predict(models, np.zeros((4, 2)), 0.0,
                                identity_transform(), soft_gate=True)
        assert bundle.composed[0] == pytest.approx(0.25)


class TestAssembleFeatures:
    def test_channel_layout(self):
        rng = np.random.default_rng(2)
        std_values = rng.normal(size=50)
        gmm = distributions.fit_gmm(std_values, 1)
        exog = [np.cos(std_values)]
        features = engine.assemble_features(std_values, gmm, exog)
        assert features.shape == (50, 3)
        np.testing.assert_array_equal(features[:, 0], std_values)
        np.testing.assert_array_equal(
            features[:, 1], distributions.gmm_indicator(gmm, std_values))
        np.testing.assert_array_equal(features[:, 2], exog[0])


class TestTrainNec:
    def test_head_kinds(self):
        config, features, labels, split, _ = training_inputs()
        models, logs = engine.train_nec(config, features, labels, split)
        assert models["n"].head_kind == "normal"
        assert models["e"].head_kind == "extreme"
        assert models["c"].head_kind == "classifier"
        assert all(len(logs[m].val_losses) >= 1 for m in engine.MEMBERS)


class TestConfigPairs:
    def test_round_trip(self):
        config = small_config(alpha=2.0, beta=0.5, n_exogenous=1)
        assert engine.config_from_pairs(engine.config_to_pairs(config)) == config

    def test_table_names_present(self):
        pairs = engine.config_to_pairs(small_config())
        for key in ("input_length_h", "extreme_threshold_epsilon",
                    "gmm_components_m", "n_batch_size", "e_hidden",
                    "c_layers", "n_volume", "e_oversampling_os",
                    "c_oversampling_os", "loss_alpha", "loss_beta"):
            assert key in pairs
        assert "n_oversampling_os" not in pairs

    def test_unknown_key_rejected(self):
        pairs = engine.config_to_pairs(small_config())
        pairs["mystery_knob"] = 7
        with pytest.raises(ConfigError):
            engine.config_from_pairs(pairs)

    def test_hash_sensitive_to_values(self):
        a = engine.config_hash(small_config())
        b = engine.config_hash(small_config(alpha=2.0))
        assert a != b
        assert a == engine.config_hash(small_config())

    def test_invalid_config_values(self):
        with pytest.raises(ConfigError):
            small_config(h=4, f=8)
        with pytest.raises(ConfigError):
            small_config(epsilon=0.0)
        with pytest.raises(ConfigError):
            small_config(alpha=0.5)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    config, features, labels, split, gmm = training_inputs()
    models, logs = engine.train_nec(config, features, labels, split)
    transform = series.StandardizedSeries(values=np.array([]),
                                          location=0.1, scale=1.2,
                                          anchor=100.0, source_id="s1")
    run_dir = tmp_path_factory.mktemp("run")
    engine.save_run(run_dir, config, gmm, transform, models, logs)
    return run_dir, config, models, features


class TestRunPersistence:
    def test_round_trip_predictions_bit_exact(self, trained_run):
        run_dir, config, models, features = trained_run
        run = engine.load_run(run_dir)
        assert run.config == config
        assert run.transform.anchor == 100.0
        assert run.epsilon == config.epsilon
        window = features[:config.h]
        before = engine.predict(models, window, 100.0, run.transform)
        after = engine.predict(run.models, window, 100.0, run.transform)
        np.testing.assert_array_equal(before.composed, after.composed)
        np.testing.assert_array_equal(before.raw_scale, after.raw_scale)

    def test_expected_files(self, trained_run):
        run_dir = trained_run[0]
        for name in ("config", "gmm.model", "transform.meta", "n.ckpt",
                     "e.ckpt", "c.ckpt", "train.log"):
            assert (run_dir / name).exists(), name

    def test_missing_member_rejected(self, trained_run, tmp_path):
        run_dir = trained_run[0]
        partial = tmp_path / "partial"
        partial.mkdir()
        for name in ("config", "gmm.model", "transform.meta", "n.ckpt",
                     "e.ckpt"):
            (partial / name).write_bytes((run_dir / name).read_bytes())
        with pytest.raises(CheckpointError, match="c.ckpt"):
            engine.load_run(partial)

    def test_config_tamper_detected(self, trained_run, tmp_path):
        run_dir = trained_run[0]
        tampered = tmp_path / "tampered"
        tampered.mkdir()
        for item in run_dir.iterdir():
            (tampered / item.name).write_bytes(item.read_bytes())
        text = (tampered / "config").read_text()
        (tampered / "config").write_text(
            text.replace("loss_alpha 1.0", "loss_alpha 3.0"))
        with pytest.raises(CheckpointError, match="hash"):
            engine.load_run(tampered)

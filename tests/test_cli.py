import contextlib
import errno
import inspect
import io
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import necplus
from necplus import distributions, engine, evaluation, kvtext, sampling, series
from necplus.cli import build_parser, main
from necplus.errors import NecError
from necplus.neural import load_checkpoint, save_checkpoint
from test_engine import assert_no_children, needs_fork, usable_cpus


def write_config(path, **overrides):
    spec = engine.ModelSpec(layers=1, hidden=4, batch_size=16, volume=30,
                            seed=0, patience=2)
    kwargs = dict(
        h=12, f=4, epsilon=1.5, gmm_components=2,
        n=spec,
        e=engine.ModelSpec(layers=1, hidden=4, batch_size=16, volume=30,
                           oversampling_os=1.0, seed=1, patience=2),
        c=engine.ModelSpec(layers=1, hidden=4, batch_size=16, volume=30,
                           oversampling_os=1.0, seed=2, patience=2),
        holdout_sections=2, val_ranges=((200, 600),),
        test_ranges=((1000, 1600),), max_epochs=2)
    kwargs.update(overrides)
    config = engine.NecConfig(**kwargs)
    kvtext.write(path, engine.config_to_pairs(config))
    return config


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full desk-scale run: synth -> preprocess -> fit-gmm -> train."""
    root = tmp_path_factory.mktemp("pipeline")
    csv = root / "series.csv"
    data = root / "data"
    run = root / "run"
    config = root / "config"
    assert main(["synth", "--seed", "42", "--length", "2000",
                 "--spike-rate", "0.01", "--out", str(csv)]) == 0
    assert main(["preprocess", "--input", str(csv), "--out-dir", str(data),
                 "--epsilon", "1.5"]) == 0
    assert main(["fit-gmm", "--in-dir", str(data), "--components", "2",
                 "--seed", "0"]) == 0
    write_config(config)
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(run)]) == 0
    return root, csv, data, run, config


def subprocess_env():
    """The environment of a child Python that imports this necplus."""
    src = str(Path(necplus.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_loads_no_scipy():
    """Every subcommand pays for what `necplus.cli` imports, and scipy is
    only a test dependency: the CLI loads none of it, and the GEV fit runs
    where it cannot be imported."""
    env = subprocess_env()
    probe = ("import sys, necplus.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"
    blocked = ("import sys; sys.modules['scipy'] = None; "
               "import numpy as np; from necplus import distributions as d; "
               "xs = d.sample_gev(d.GevParams(0.0, 1.0, 0.3), 1000, np.random.default_rng(0)); "
               "print(d.fit_gev(xs).shape > 0)")
    result = subprocess.run([sys.executable, "-c", blocked], env=env,
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout.strip()) == (0, "True"), result.stderr


def test_cli_import_loads_no_multiprocessing():
    """`train` forks its members with `os.fork`: no command pays for
    importing multiprocessing, a one-shot `necplus predict` least of all."""
    probe = "import sys, necplus.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc to count threads in")
def test_cli_runs_one_blas_thread_unless_told_otherwise():
    """`train` already runs one process per usable CPU, so `necplus.cli`
    asks for one BLAS thread before numpy loads; a value the user set wins.
    Without the variables, OpenBLAS would start one thread per CPU here."""
    probe = ("import os, necplus.cli, numpy as np; a = np.ones((400, 400)); "
             "a @ a; print(len(os.listdir('/proc/self/task')), "
             "os.environ['OPENBLAS_NUM_THREADS'])")
    unset = {k: v for k, v in subprocess_env().items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")}

    def threads_and_setting(env):
        return subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True).stdout.split()

    assert threads_and_setting(unset) == ["1", "1"]
    assert threads_and_setting({**unset, "OPENBLAS_NUM_THREADS": "2"})[1] == "2"


def test_every_text_file_is_opened_as_utf8(tmp_path):
    """The seven subcommands run with every open that falls back on the
    locale's encoding turned into an error: each text file they write or
    read is opened as UTF-8, whatever the platform."""
    write_config(tmp_path / "config")
    steps = [
        ["synth", "--seed", "42", "--length", "2000", "--spike-rate", "0.01",
         "--out", "series.csv"],
        ["preprocess", "--input", "series.csv", "--out-dir", "data", "--epsilon", "1.5"],
        ["fit-gmm", "--in-dir", "data", "--components", "2", "--seed", "0"],
        ["train", "--config", "config", "--data", "data", "--out", "run"],
        ["predict", "--run-dir", "run", "--input", "series.csv", "--out", "forecast.csv"],
        ["evaluate", "--run-dir", "run", "--data", "data", "--split", "test",
         "--baseline", "--wilcoxon"],
        ["plotdata", "--run-dir", "run", "--data", "data", "--section", "0",
         "--out", "plot.csv"]]
    for argv in steps:
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "necplus.cli", *argv],
            cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, (argv, result.stderr)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--input", "s.csv", "--out-dir", "d", "--max-degree", "2"],
        ["train", "--config", "c", "--data", "d", "--out", "r", "--exog", "x.csv"],
        ["predict", "--run-dir", "r", "--input", "s.csv", "--exog", "x.csv"],
        ["evaluate", "--run-dir", "r", "--data", "d", "--exog", "x.csv"],
        ["plotdata", "--run-dir", "r", "--data", "d", "--exog", "x.csv"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_removed_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_domain_error_returns_one(self, tmp_path, capsys):
        code = main(["synth", "--spike-rate", "1.5", "--length", "100",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        (["--seed", "-1"], "seed must be non-negative"),
        (["--spike-rate", "nan"], "spike_rate"),
        (["--spike-rate", "0.01", "--spike-shape", "nan"], "spike_shape"),
    ], ids=["negative_seed", "rate_nan", "shape_nan"])
    def test_bad_synth_parameter_exits_one(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.csv"
        assert main(["synth", "--length", "3000", "--out", str(out), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInputError:") and message in err
        assert not out.exists()

    @needs_fork
    def test_member_error_exits_one_as_in_process(self, pipeline, tmp_path,
                                                  monkeypatch, capsys):
        # at this epsilon nothing is extreme, so E cannot oversample
        _, csv, _, _, _ = pipeline
        data, config = tmp_path / "data", tmp_path / "config"
        assert main(["preprocess", "--input", str(csv), "--out-dir", str(data),
                     "--epsilon", "1000"]) == 0
        assert main(["fit-gmm", "--in-dir", str(data), "--components", "2",
                     "--seed", "0"]) == 0
        write_config(config, epsilon=1000.0)
        capsys.readouterr()
        errors = []
        for cpus in ({0}, {0, 1}):
            usable_cpus(monkeypatch, cpus)
            assert main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(tmp_path / "run")]) == 1
            errors.append(capsys.readouterr().err)
            assert_no_children()
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: StratificationInfeasibleError: ")
        assert not (tmp_path / "run").exists()

    @needs_fork
    def test_failed_fork_exits_one(self, pipeline, tmp_path, monkeypatch, capsys):
        # as under a process limit: train must end with one error line
        _, _, data, _, config = pipeline
        run = tmp_path / "run"

        def no_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        usable_cpus(monkeypatch, {0, 1})
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: TrainingFailureError: cannot start a process to "
                       f"train e and c: {os.strerror(errno.EAGAIN)}\n")
        assert not run.exists()

    def test_fit_gmm_negative_seed_exits_one(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline[2], data)
        before = (data / "gmm.model").read_text()
        assert main(["fit-gmm", "--in-dir", str(data), "--components", "2",
                     "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInputError:")
        assert "seed must be non-negative" in err
        assert (data / "gmm.model").read_text() == before


def test_flag_defaults_are_the_config_defaults():
    parser = build_parser()
    defaults = engine.NecConfig()
    preprocess = parser.parse_args(["preprocess", "--input", "s.csv", "--out-dir", "d"])
    fit_gmm = parser.parse_args(["fit-gmm", "--in-dir", "d"])
    assert preprocess.epsilon == defaults.epsilon
    assert fit_gmm.components == defaults.gmm_components
    threshold = inspect.signature(engine.predict).parameters["threshold"].default
    assert threshold == defaults.gate_threshold


class TestPipeline:
    def test_run_directory_contents(self, pipeline):
        run = pipeline[3]
        for name in ("config", "gmm.model", "transform.meta", "n.ckpt",
                     "e.ckpt", "c.ckpt", "train.log", "split.csv"):
            assert (run / name).exists(), name

    def test_preprocess_roundtrip_reported(self, pipeline, capsys):
        root, csv, data = pipeline[:3]
        assert main(["preprocess", "--input", str(csv),
                     "--out-dir", str(root / "data2"),
                     "--epsilon", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "roundtrip max error" in out
        error = float(out.rsplit("roundtrip max error", 1)[1])
        assert error < 1e-9

    def test_predict_writes_forecast(self, pipeline, tmp_path):
        _, csv, _, run, _ = pipeline
        out = tmp_path / "forecast.csv"
        assert main(["predict", "--run-dir", str(run), "--input", str(csv),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,n,e,c_prob,gate,composed,raw"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            _, n, e, c, gate, composed, raw = line.split(",")
            want = e if int(gate) else n
            assert composed == want
            assert 0.0 < float(c) < 1.0
            assert np.isfinite(float(raw))

    def test_evaluate_emits_report(self, pipeline, capsys):
        _, _, data, run, _ = pipeline
        assert main(["evaluate", "--run-dir", str(run), "--data", str(data),
                     "--split", "test", "--baseline", "--wilcoxon"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("run_id,sensor,rmse_total")
        fields = lines[1].split(",")
        assert fields[0] == "run"
        assert float(fields[2]) > 0  # rmse_total
        assert int(fields[6]) == 2 * 4  # two sections of f=4 points
        assert lines[2].startswith("persistence,")
        assert lines[3].startswith("wilcoxon,")

    def test_plotdata_aligned_columns(self, pipeline, tmp_path):
        _, _, data, run, _ = pipeline
        out = tmp_path / "plot.csv"
        assert main(["plotdata", "--run-dir", str(run), "--data", str(data),
                     "--section", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp,truth,nec_plus,baseline"
        assert len(lines) == 1 + 4
        truth = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(900.0 < t < 1300.0 for t in truth)

    def test_plotdata_section_out_of_range(self, pipeline, capsys):
        _, _, data, run, _ = pipeline
        assert main(["plotdata", "--run-dir", str(run), "--data", str(data),
                     "--section", "99"]) == 1

    def test_train_epsilon_mismatch(self, pipeline, tmp_path, capsys):
        _, _, data, _, _ = pipeline
        bad = tmp_path / "config"
        write_config(bad, epsilon=2.0)
        code = main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "epsilon" in capsys.readouterr().err

    def test_train_overlapping_holdout_ranges_exits_one(self, pipeline, tmp_path,
                                                       capsys):
        _, _, data, _, _ = pipeline
        bad = tmp_path / "config"
        write_config(bad, test_ranges=((500, 1600),))
        code = main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: SplitInfeasibleError: val range 200-600 overlaps test range "
            "500-1600\n")
        assert not (tmp_path / "run").exists()

    def test_train_rejects_test_sections_past_the_series(self, pipeline,
                                                         tmp_path, capsys):
        # the series has 1999 standardized steps: test sections placed in
        # 10000-60000 cannot be forecast, and train must say so before it
        # trains, not leave it to evaluate
        _, _, data, _, _ = pipeline
        bad = tmp_path / "config"
        config = write_config(bad, test_ranges=((10000, 60000),))
        start = sampling.make_split(1999, config.split_spec()).test_sections[0][0]
        assert start > 1999
        code = main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ConfigError: holdout section at {start} does not fit "
            "h=12, f=4 in 1999 steps\n")
        assert not (tmp_path / "run").exists()

    def test_train_needs_the_fitted_gmm(self, pipeline, tmp_path, capsys):
        _, _, data, _, config = pipeline
        bare = tmp_path / "data"
        shutil.copytree(data, bare)
        (bare / "gmm.model").unlink()
        code = main(["train", "--config", str(config), "--data", str(bare),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInputError:")
        assert str(bare / "gmm.model") in err and "fit-gmm" in err
        assert not (tmp_path / "run").exists()

    def test_train_gmm_component_mismatch(self, pipeline, tmp_path, capsys):
        # the data directory's gmm.model has 2 components
        _, _, data, _, _ = pipeline
        bad = tmp_path / "config"
        write_config(bad, gmm_components=3)
        code = main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:") and "gmm_components_m 3" in err
        assert not (tmp_path / "run").exists()


def per_section_rows(run_dir, data, split_name):
    """The evaluate rows from one B=1 predict per holdout section, the way
    the acceptance battery's end-to-end test computes its reference."""
    run = engine.load_run(run_dir)
    config = run.config
    std, labels, _, _ = series.read_preprocessed(data)
    features = engine.assemble_features(std.values, run.gmm)
    raw_values = series.reconstruct_raw(std)
    split = sampling.make_split(len(std), config.split_spec())
    sections = split.val_sections if split_name == "val" else split.test_sections
    preds, truths, sec_labels, bases, pairs = [], [], [], [], []
    for start, stop in sections:
        bundle = engine.predict(run.models, features[start - config.h:start],
                                raw_values[start], run.transform,
                                threshold=config.gate_threshold)
        truth = raw_values[start + 1:stop + 1]
        base = evaluation.persistence_forecast(raw_values[:start + 1], config.f)
        preds.append(bundle.raw_scale)
        truths.append(truth)
        sec_labels.append(labels[start:stop])
        bases.append(base)
        pairs.append((evaluation.rmse(bundle.raw_scale, truth),
                      evaluation.rmse(base, truth)))
    truths, sec_labels = np.concatenate(truths), np.concatenate(sec_labels)
    sensor = run.transform.source_id
    wilcoxon = evaluation.wilcoxon_signed_rank(np.array(pairs))
    return [evaluation.CSV_HEADER,
            evaluation.per_class_report(np.concatenate(preds), truths, sec_labels)
            .csv_row(run_dir.name, sensor),
            evaluation.per_class_report(np.concatenate(bases), truths, sec_labels)
            .csv_row("persistence", sensor),
            f"wilcoxon,T={wilcoxon.statistic},p={wilcoxon.p_value},n={wilcoxon.n}"]


def assert_rows_close(got, want, rel=1e-12):
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        got_fields = got_line.replace("=", ",").split(",")
        want_fields = want_line.replace("=", ",").split(",")
        assert len(got_fields) == len(want_fields), got_line
        for g, w in zip(got_fields, want_fields):
            try:
                assert float(g) == pytest.approx(float(w), rel=rel), got_line
            except ValueError:
                assert g == w, got_line


class TestDataMatchesRun:
    """`evaluate` and `plotdata` score a run only on a data directory made
    the way the run's was: same epsilon, same location and scale."""

    @pytest.fixture(scope="class")
    def other_data(self, pipeline):
        root, csv = pipeline[:2]
        relabelled, other_series = root / "data_eps03", root / "data_seed43"
        assert main(["preprocess", "--input", str(csv), "--out-dir",
                     str(relabelled), "--epsilon", "0.3"]) == 0
        other_csv = root / "seed43.csv"
        assert main(["synth", "--seed", "43", "--length", "2000",
                     "--spike-rate", "0.01", "--out", str(other_csv)]) == 0
        assert main(["preprocess", "--input", str(other_csv), "--out-dir",
                     str(other_series), "--epsilon", "1.5"]) == 0
        return {"epsilon": relabelled, "location": other_series}

    @pytest.mark.parametrize("command", [["evaluate"], ["plotdata"]])
    @pytest.mark.parametrize("mismatch", ["epsilon", "location"])
    def test_mismatched_data_exits_one(self, pipeline, other_data, capsys,
                                       command, mismatch):
        run = pipeline[3]
        capsys.readouterr()
        code = main([*command, "--run-dir", str(run),
                     "--data", str(other_data[mismatch])])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigError:")
        assert mismatch in captured.err and str(other_data[mismatch]) in captured.err
        assert captured.out == ""


class TestEvaluateBatched:
    @pytest.fixture(scope="class")
    def float64_run(self, pipeline, tmp_path_factory):
        """The pipeline's run with its checkpoints saved in float64."""
        run = tmp_path_factory.mktemp("float64") / "run"
        shutil.copytree(pipeline[3], run)
        for name in engine.MEMBERS:
            model, meta = load_checkpoint(run / f"{name}.ckpt")
            save_checkpoint(run / f"{name}.ckpt", model.astype(np.float64),
                            meta.get("extra"))
        return run

    # A batch and its windows one by one take BLAS calls of other shapes,
    # which may sum in another order: the run as trained (float32) is held
    # to float32's rounding, its float64 copy to float64's
    @pytest.mark.parametrize("dtype,rel", [("float32", 1e-6), ("float64", 1e-12)])
    @pytest.mark.parametrize("split_name", ["test", "val"])
    def test_rows_equal_the_per_section_loop(self, pipeline, float64_run, capsys,
                                             split_name, dtype, rel):
        _, _, data, run, _ = pipeline
        if dtype == "float64":
            run = float64_run
        assert engine.load_run(run).models["n"].dtype == dtype
        capsys.readouterr()
        assert main(["evaluate", "--run-dir", str(run), "--data", str(data),
                     "--split", split_name, "--baseline", "--wilcoxon"]) == 0
        got = capsys.readouterr().out.splitlines()
        assert_rows_close(got, per_section_rows(run, data, split_name), rel)

    def test_wilcoxon_p_value_prints_as_a_plain_float(self, pipeline, capsys):
        _, _, data, run, _ = pipeline
        capsys.readouterr()
        assert main(["evaluate", "--run-dir", str(run), "--data", str(data),
                     "--baseline", "--wilcoxon"]) == 0
        line = capsys.readouterr().out.splitlines()[3]
        p_value = line.split("p=")[1].split(",")[0]
        assert float(p_value) > 0 and "np." not in line

    def test_wilcoxon_past_its_limit_writes_nothing(self, pipeline, tmp_path, capsys):
        # 30 test sections are more pairs than the exact test enumerates:
        # evaluate must fail before it prints a row
        _, _, data, _, _ = pipeline
        config, run = tmp_path / "config", tmp_path / "run"
        write_config(config, holdout_sections=30)
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--run-dir", str(run), "--data", str(data),
                     "--baseline", "--wilcoxon"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: InvalidInputError: exact enumeration "
                                "supports at most 25 pairs\n")
        assert captured.out == ""

    def test_wilcoxon_needs_no_baseline_row(self, pipeline, capsys):
        _, _, data, run, _ = pipeline
        capsys.readouterr()
        argv = ["evaluate", "--run-dir", str(run), "--data", str(data)]
        assert main(argv + ["--baseline", "--wilcoxon"]) == 0
        both = capsys.readouterr().out.splitlines()
        assert main(argv + ["--wilcoxon"]) == 0
        assert capsys.readouterr().out.splitlines() == both[:2] + both[3:]


class TestMalformedInput:
    @pytest.mark.parametrize("line", ["input_length_h abc", "val_ranges 1-x",
                                      "soft_gate yes", "n_oversampling_os 0.5",
                                      "max_epochs 0", "holdout_sections 0",
                                      "extreme_threshold_epsilon nan",
                                      "extreme_threshold_epsilon inf",
                                      "loss_alpha nan", "gate_threshold nan",
                                      "gate_threshold 2.0", "lr_recurrent -1.0",
                                      "lr_fc nan", "split_seed -1", "n_seed -1",
                                      "c_seed -1", "gmm_seed 0", "n_exogenous 0"])
    def test_bad_config_value_exits_one(self, pipeline, tmp_path, capsys, line):
        _, _, data, _, _ = pipeline
        config = tmp_path / "config"
        write_config(config)
        key = line.split()[0]
        kept = [row for row in config.read_text().splitlines(True)
                if row.split()[0] != key]  # a key set twice is its own error
        config.write_text("".join(kept) + line + "\n")
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:") and key in err

    @pytest.mark.parametrize("name", ["config", "transform.meta", "gmm.model"])
    def test_repeated_key_exits_one(self, pipeline, tmp_path, capsys, name):
        # the file's first line again: the key is set twice
        data = tmp_path / "data"
        shutil.copytree(pipeline[2], data)
        config = tmp_path / "config"
        write_config(config)
        path = config if name == "config" else data / name
        text = path.read_text()
        path.write_text(text + text.splitlines()[0] + "\n")
        key = text.split()[0]
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: InvalidInputError: {path}: repeated key {key!r}\n")
        assert not (tmp_path / "run").exists()

    def test_bad_series_cell_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text("timestamp,value\n2020-01-01T00:00:00Z,1.0\n"
                       "2020-01-01T01:00:00Z,oops\n")
        code = main(["preprocess", "--input", str(csv), "--out-dir",
                     str(tmp_path / "data")])
        assert code == 1
        assert "series.csv:3" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    def test_preprocess_non_finite_epsilon_writes_nothing(self, pipeline, tmp_path,
                                                           capsys, epsilon):
        csv, out = pipeline[1], tmp_path / "data"
        code = main(["preprocess", "--input", str(csv), "--out-dir", str(out),
                     "--epsilon", epsilon])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: InvalidInputError: epsilon must be finite and positive\n")
        assert not out.exists()

    def test_preprocess_overflowing_differences_writes_nothing(self, tmp_path, capsys):
        """numpy's overflow warnings are errors under the tests' filter, so
        this also checks that none escapes."""
        csv, out = tmp_path / "series.csv", tmp_path / "data"
        csv.write_text("timestamp,value\n2020-01-01T00:00:00Z,1e308\n"
                       "2020-01-01T01:00:00Z,-1e308\n2020-01-01T02:00:00Z,1e308\n"
                       "2020-01-01T03:00:00Z,1.0\n")
        assert main(["preprocess", "--input", str(csv), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInputError: first differences not finite")
        assert not out.exists()

    def test_fit_gmm_names_a_deleted_row(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline[2], data)
        path = data / "preprocessed.csv"
        lines = path.read_text().splitlines(True)
        del lines[100]  # line 101: the row that was on line 102 moves up
        path.write_text("".join(lines))
        before = (data / "gmm.model").read_text()
        assert main(["fit-gmm", "--in-dir", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidInputError: {path}:101: ")
        assert "is not one hour after" in err
        assert (data / "gmm.model").read_text() == before

    def test_fit_gmm_rejects_a_value_whose_square_overflows(self, pipeline, tmp_path,
                                                            capsys):
        # the fit once overflowed here, warned, and failed on the weights
        data = tmp_path / "data"
        shutil.copytree(pipeline[2], data)
        path = data / "preprocessed.csv"
        lines = path.read_text().splitlines(True)
        lines[6] = re.sub(r",[^,]*,", ",1e200,", lines[6])
        path.write_text("".join(lines))
        before = (data / "gmm.model").read_text()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit-gmm", "--in-dir", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: InvalidInputError: sample value of magnitude "
                              "1e+200 is too large")
        assert (data / "gmm.model").read_text() == before

    def test_missing_input_directory_exits_one(self, tmp_path, capsys):
        code = main(["fit-gmm", "--in-dir", str(tmp_path / "missing")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInputError:")
        assert "missing/preprocessed.csv" in err

    def test_missing_predict_input_exits_one(self, pipeline, tmp_path, capsys):
        run = pipeline[3]
        code = main(["predict", "--run-dir", str(run),
                     "--input", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_config_not_utf8_exits_one(self, pipeline, tmp_path, capsys):
        _, _, data, _, _ = pipeline
        config = tmp_path / "config"
        write_config(config)
        config.write_bytes(config.read_bytes() + b"# caf\xe9\n")
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert f"{config}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("variance", ["-0.5", "nan", "0.0"])
    def test_bad_run_gmm_names_the_file(self, pipeline, tmp_path, capsys, variance):
        _, csv, _, run, _ = pipeline
        tampered = tmp_path / "run"
        shutil.copytree(run, tampered)
        gmm = tampered / "gmm.model"
        gmm.write_text(re.sub(r"(?m)^variance_0 .*$", f"variance_0 {variance}",
                              gmm.read_text()))
        code = main(["predict", "--run-dir", str(tampered), "--input", str(csv)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInputError:")
        assert f"{gmm}: mixture variances must be finite and positive" in err

    def test_run_gmm_with_a_zero_weight_serves(self, pipeline, tmp_path, capsys):
        # a weight of 0 once took log(0) and warned at every predict; the
        # component must add nothing to the indicator
        _, csv, data, run, _ = pipeline
        tampered = tmp_path / "run"
        shutil.copytree(run, tampered)
        gmm = tampered / "gmm.model"
        pairs = kvtext.read(gmm)
        pairs["weight_0"] = float(pairs["weight_0"]) + float(pairs["weight_1"])
        pairs["weight_1"] = 0.0
        kvtext.write(gmm, pairs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["predict", "--run-dir", str(tampered), "--input", str(csv),
                         "--out", str(tmp_path / "forecast.csv")]) == 0
        assert capsys.readouterr().err == ""
        model = engine.load_run(tampered).gmm
        assert model.weights[1] == 0.0
        alone = distributions.GmmModel(model.weights[:1], model.means[:1],
                                       model.variances[:1])
        xs = series.read_preprocessed(data)[0].values
        assert np.array_equal(distributions.gmm_indicator(model, xs),
                              distributions.gmm_indicator(alone, xs))

    @pytest.mark.parametrize("member,key", [("c", "fc0_w"), ("n", "lstm0_wh")])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_checkpoint_names_the_file(self, pipeline, tmp_path, capsys,
                                                  command, member, key):
        # a NaN in C's head once served gate 0 and exited 0, since NaN > 0.5
        # is false
        _, csv, data, run, _ = pipeline
        tampered = tmp_path / "run"
        shutil.copytree(run, tampered)
        ckpt = tampered / f"{member}.ckpt"
        model, meta = load_checkpoint(ckpt)
        model.params[key][0, 0] = np.nan
        save_checkpoint(ckpt, model, meta.get("extra"))
        if command == "predict":
            argv = ["predict", "--run-dir", str(tampered), "--input", str(csv),
                    "--out", str(tmp_path / "forecast.csv")]
        else:
            argv = ["evaluate", "--run-dir", str(tampered), "--data", str(data)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: CheckpointError: {ckpt}: corrupt checkpoint "
                                f"(non-finite parameter {key})\n")
        assert captured.out == ""
        assert not (tmp_path / "forecast.csv").exists()

    @pytest.mark.parametrize("value", ["0.0", "-1.0"])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_non_positive_scale_names_file_and_key(self, pipeline, tmp_path, capsys,
                                                   command, value):
        _, csv, data, run, config = pipeline
        edited = tmp_path / "edited"
        shutil.copytree(data if command == "train" else run, edited)
        meta = edited / "transform.meta"
        meta.write_text(re.sub(r"(?m)^scale .*$", f"scale {value}", meta.read_text()))
        if command == "train":
            argv = ["train", "--config", str(config), "--data", str(edited),
                    "--out", str(tmp_path / "run")]
        else:
            argv = ["predict", "--run-dir", str(edited), "--input", str(csv)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (f"error: InvalidInputError: {meta}: bad value {value!r} "
                       f"for key 'scale'\n")


def whole_series_forecast(run_dir, csv, origin_stamp):
    """The forecast CSV text `predict` wrote when it assembled the features
    of the whole series and then sliced the window before the origin."""
    run = engine.load_run(run_dir)
    config = run.config
    filled = series.fill_gaps(series.read_series_csv(csv))
    std = series.standardize(filled, run.transform.location, run.transform.scale)
    features = engine.assemble_features(std.values, run.gmm)
    origin = (len(filled) - 1 if origin_stamp is None else
              int(np.searchsorted(filled.timestamps, series._parse_timestamp(origin_stamp))))
    bundle = engine.predict(run.models, features[origin - config.h:origin],
                            anchor=filled.values[origin], transform=run.transform,
                            threshold=config.gate_threshold)
    lines = ["step,n,e,c_prob,gate,composed,raw\n"]
    for i in range(config.f):
        lines.append(f"{i},{float(bundle.n_pred[i])!r},{float(bundle.e_pred[i])!r},"
                     f"{float(bundle.c_prob[i])!r},{int(bundle.gate[i])},"
                     f"{float(bundle.composed[i])!r},{float(bundle.raw_scale[i])!r}\n")
    return "".join(lines)


class TestPredictWindow:
    """`predict` builds features for its h-step window only; its output must
    not differ from slicing the features of the whole series."""

    def test_forecast_bytes_equal_the_whole_series_features(self, pipeline, tmp_path):
        _, csv, _, run, _ = pipeline
        stamps = [line.split(",")[0] for line in csv.read_text().splitlines()[1:]]
        for index in (12, 13, 500, 1234, len(stamps) - 2, None):
            origin = None if index is None else stamps[index]
            out = tmp_path / "forecast.csv"
            argv = ["predict", "--run-dir", str(run), "--input", str(csv),
                    "--out", str(out)]
            assert main(argv + ([] if origin is None
                                else ["--origin-timestamp", origin])) == 0
            assert out.read_text() == whole_series_forecast(run, csv, origin)

    def test_too_early_origin_is_rejected(self, pipeline, capsys):
        _, csv, _, run, _ = pipeline
        origin = csv.read_text().splitlines()[11].split(",")[0]  # index 10 < h
        code = main(["predict", "--run-dir", str(run), "--input", str(csv),
                     "--origin-timestamp", origin])
        assert code == 1
        assert "history steps" in capsys.readouterr().err

    @pytest.mark.parametrize("origin", ["yesterday", "2020-13-01T00:00:00Z", ""])
    def test_unparsable_origin_exits_one(self, pipeline, tmp_path, capsys, origin):
        _, csv, _, run, _ = pipeline
        out = tmp_path / "forecast.csv"
        code = main(["predict", "--run-dir", str(run), "--input", str(csv),
                     "--out", str(out), "--origin-timestamp", origin])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: --origin-timestamp {origin!r}:")
        assert "Traceback" not in err
        assert not out.exists()


BOM = b"\xef\xbb\xbf"  # UTF-8's byte-order mark, as Excel and Notepad write it


def with_bom(path, copy):
    """`copy`, written as the file `path` with a UTF-8 byte-order mark."""
    copy.parent.mkdir(parents=True, exist_ok=True)
    copy.write_bytes(BOM + path.read_bytes())
    return copy


class TestByteOrderMark:
    """A text file that starts with a UTF-8 byte-order mark reads as the
    same file without it."""

    def test_preprocess_writes_the_same_bytes(self, pipeline, tmp_path):
        _, csv, data = pipeline[:3]
        bom_csv = with_bom(csv, tmp_path / "bom" / csv.name)
        out = tmp_path / "data"
        assert main(["preprocess", "--input", str(bom_csv), "--out-dir", str(out),
                     "--epsilon", "1.5"]) == 0
        for name in ("preprocessed.csv", "transform.meta"):
            assert (out / name).read_bytes() == (data / name).read_bytes(), name

    def test_predict_writes_the_same_forecast(self, pipeline, tmp_path):
        _, csv, _, run, _ = pipeline
        bom_csv = with_bom(csv, tmp_path / "bom" / csv.name)
        out = tmp_path / "forecast.csv"
        stamps = [line.split(",")[0] for line in csv.read_text().splitlines()[1:]]
        # the first origin with h steps before it, an interior one and the tail
        for origin in (stamps[12], stamps[500], None):
            argv = ["predict", "--run-dir", str(run), "--out", str(out)]
            if origin is not None:
                argv += ["--origin-timestamp", origin]
            forecasts = []
            for source in (csv, bom_csv):
                assert main(argv + ["--input", str(source)]) == 0
                forecasts.append(out.read_bytes())
            assert forecasts[0] == forecasts[1], origin

    def test_config_loads_to_an_equal_config(self, pipeline, tmp_path):
        config = pipeline[4]
        bom_config = with_bom(config, tmp_path / "config")
        assert engine.load_config(bom_config) == engine.load_config(config)

    @pytest.mark.parametrize("name", ["transform.meta", "gmm.model"])
    def test_data_meta_reads_to_the_same_pairs(self, pipeline, tmp_path, name):
        path = pipeline[2] / name
        assert kvtext.read(with_bom(path, tmp_path / name)) == kvtext.read(path)


class TestTrainServeAgree:
    """The two data paths to a forecast: `plotdata` reads the preprocessed
    series, `predict` the raw CSV. Both must give the same raw forecast."""

    def test_predict_before_each_test_section_equals_plotdata(self, pipeline, tmp_path):
        _, csv, data, run, _ = pipeline
        plot, forecast = tmp_path / "plot.csv", tmp_path / "forecast.csv"
        for section in range(engine.load_run(run).config.holdout_sections):
            assert main(["plotdata", "--run-dir", str(run), "--data", str(data),
                         "--section", str(section), "--out", str(plot)]) == 0
            rows = [line.split(",") for line in plot.read_text().splitlines()[1:]]
            origin = series._format_timestamps(
                series._parse_timestamp(rows[0][0]) - series.HOUR)
            assert main(["predict", "--run-dir", str(run), "--input", str(csv),
                         "--origin-timestamp", origin, "--out", str(forecast)]) == 0
            raw = [line.split(",")[6] for line in forecast.read_text().splitlines()[1:]]
            assert raw == [row[2] for row in rows]


def fillable_away_from_window(cells, first, last):
    """Whether every gap of the series cells that holds no point of the
    window [first, last] is one `fill_gaps` fills in the whole series."""
    missing = np.array([cell == "" for cell in cells])
    observed = np.flatnonzero(~missing)
    for start, stop in series._gap_runs(missing):
        k = (stop - start + 1) // 2
        if (stop <= first or start > last) and (
                stop - start > series.MAX_GAP
                or np.searchsorted(observed, start) < k
                or len(observed) - np.searchsorted(observed, stop) < k):
            return False
    return True


@st.composite
def forecast_inputs(draw, h):
    """(CSV text, origin stamp or None for the end) of a forecast with an
    h-step window: an hourly series with gaps near the window's edges and
    among their anchors, maybe a bad cell inside the window, blank lines,
    and \\n, \\r\\n or \\r line ends."""
    n = draw(st.integers(h + 1, 900))
    origin = draw(st.one_of(st.none(), st.integers(h, n - 1)))
    last = n - 1 if origin is None else origin
    first = last - h
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = [repr(v) for v in (1000.0 + rng.normal(size=n).cumsum()).tolist()]
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.sampled_from([first, last])) + draw(
            st.one_of(st.integers(-20, 20), st.integers(-400, 400)))
        length = draw(st.one_of(st.integers(1, 12),
                                st.sampled_from([40, 200, 336, 337, 500])))
        for i in range(max(start, 0), min(start + length, n)):
            cells[i] = ""
    assume(fillable_away_from_window(cells, first, last))
    if draw(st.integers(0, 9)) == 0:
        cells[draw(st.integers(first, last))] = draw(st.sampled_from(["oops", "inf", "1e999"]))
    stamps = series._format_timestamps(
        946684800 + series.HOUR * (draw(st.integers(0, 200_000)) + np.arange(n)))
    lines = ["timestamp,value"] + [f"{ts},{cell}" for ts, cell in zip(stamps, cells)]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  "])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from(["", end, end * 3, end + "  " + end]))
    return end.join(lines) + tail, None if origin is None else stamps[origin]


def outcome(forecast):
    """The forecast CSV text `forecast()` returns, or the error line `main`
    prints for the NecError it raises."""
    try:
        return forecast()
    except NecError as exc:
        return f"error: {type(exc).__name__}: {exc}\n"


class TestPredictSpan:
    """`predict` reads only the rows around its window, found by a binary
    search on byte offsets or in a tail of the file; it must forecast, or
    fail, exactly as the whole-file path does."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_whole_file(self, pipeline, tmp_path_factory, data):
        run = pipeline[3]
        text, origin = data.draw(forecast_inputs(engine.load_run(run).config.h))
        root = tmp_path_factory.mktemp("span")
        csv, out = root / "series.csv", root / "forecast.csv"
        csv.write_bytes(text.encode())
        argv = ["predict", "--run-dir", str(run), "--input", str(csv), "--out", str(out)]
        argv += [] if origin is None else ["--origin-timestamp", origin]

        def span():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            return out.read_text() if code == 0 else err.getvalue()

        assert span() == outcome(lambda: whole_series_forecast(run, csv, origin))

    def test_predict_never_reads_the_whole_file(self, pipeline, tmp_path, monkeypatch):
        _, csv, _, run, _ = pipeline
        interior = csv.read_text().splitlines()[1001].split(",")[0]
        want = {origin: whole_series_forecast(run, csv, origin)
                for origin in (None, interior)}

        def whole_file(path):
            raise AssertionError(f"predict read all of {path}")

        monkeypatch.setattr(series, "read_series_csv", whole_file)
        out = tmp_path / "forecast.csv"
        for origin, forecast in want.items():
            argv = ["predict", "--run-dir", str(run), "--input", str(csv), "--out", str(out)]
            assert main(argv + ([] if origin is None else ["--origin-timestamp", origin])) == 0
            assert out.read_text() == forecast

    @pytest.mark.parametrize("fault,error", [
        ("bad_row", "InvalidInputError: {csv}:7: "),
        ("missing_hour", "InvalidInputError: {csv}:7: "),
        ("long_gap", "UnfillableGapError: gap of 337 points")])
    def test_only_preprocess_rejects_a_fault_far_from_the_window(
            self, pipeline, tmp_path, capsys, fault, error):
        """Behaviour since predict reads a span: a fault in a row it does
        not read no longer fails it, and preprocess still rejects it."""
        _, csv, _, run, _ = pipeline
        lines = csv.read_text().splitlines(True)
        origin = lines[1500].split(",")[0]
        if fault == "bad_row":
            lines[6] = lines[6].replace(",", ",oops", 1)
        elif fault == "missing_hour":
            del lines[6]
        else:
            lines[6:7 + series.MAX_GAP] = [line.split(",")[0] + ",\n"
                                           for line in lines[6:7 + series.MAX_GAP]]
        faulty = tmp_path / "series.csv"
        faulty.write_text("".join(lines))
        out = tmp_path / "forecast.csv"
        for stamp in (None, origin):
            argv = ["predict", "--run-dir", str(run), "--input", str(faulty),
                    "--out", str(out)] + ([] if stamp is None else ["--origin-timestamp", stamp])
            assert main(argv) == 0
            assert out.read_text() == whole_series_forecast(run, csv, stamp)
        capsys.readouterr()
        assert main(["preprocess", "--input", str(faulty), "--out-dir",
                     str(tmp_path / "data")]) == 1
        assert capsys.readouterr().err.startswith("error: " + error.format(csv=faulty))


class TestUnwritableOutput:
    """Every path a subcommand writes ends as exit 1 naming it when it
    cannot be written, here because its directory is missing or a file."""

    def assert_names(self, capsys, path):
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInputError:"), err
        assert f"{path}: cannot write" in err

    def test_synth(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "s.csv"
        assert main(["synth", "--length", "50", "--out", str(out)]) == 1
        self.assert_names(capsys, out)

    def test_preprocess(self, pipeline, tmp_path, capsys):
        csv = pipeline[1]
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["preprocess", "--input", str(csv),
                     "--out-dir", str(blocker / "data")])
        assert code == 1
        self.assert_names(capsys, blocker / "data" / "preprocessed.csv")

    def test_train(self, pipeline, tmp_path, capsys):
        _, _, data, _, config = pipeline
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(blocker / "run")])
        assert code == 1
        self.assert_names(capsys, blocker / "run")

    def test_train_split_dump(self, pipeline, tmp_path, capsys):
        _, _, data, _, config = pipeline
        run = tmp_path / "run"
        (run / "split.csv").mkdir(parents=True)
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(run)])
        assert code == 1
        self.assert_names(capsys, run / "split.csv")

    def test_predict(self, pipeline, tmp_path, capsys):
        _, csv, _, run, _ = pipeline
        out = tmp_path / "nodir" / "f.csv"
        code = main(["predict", "--run-dir", str(run), "--input", str(csv),
                     "--out", str(out)])
        assert code == 1
        self.assert_names(capsys, out)

    def test_plotdata(self, pipeline, tmp_path, capsys):
        _, _, data, run, _ = pipeline
        out = tmp_path / "nodir" / "p.csv"
        code = main(["plotdata", "--run-dir", str(run), "--data", str(data),
                     "--out", str(out)])
        assert code == 1
        self.assert_names(capsys, out)

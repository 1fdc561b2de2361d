import contextlib
import errno
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necplus import distributions, engine, evaluation, kvtext, sampling, series
from necplus.errors import (
    CheckpointError,
    ConfigError,
    DimensionError,
    NecError,
    TrainingFailureError,
)
from necplus.neural import training


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


def usable_cpus(monkeypatch, cpus):
    """Make `engine.train_nec` see the CPU set `cpus`: with one CPU it trains
    the members in process, with more it trains the first share of them and
    forks a child for each other share."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")


def _rates(lr, e_seed, e_patience):
    return lambda config: dict(
        max_epochs=8, lr_recurrent=lr, lr_fc=lr,
        e=replace(config.e, seed=e_seed, patience=e_patience))


# training plans: (small-config overrides, epochs in E's log). At eight
# epochs a two-CPU child trains E's first four, and N stops early. With
# patience equal to its epochs E trains them all. At rate 0.3 and seed 1 E's
# best epoch is its first; at rate 0.1 and seed 2 its fourth, the child's
# last, so the best parameters cross the handoff
SPLIT_CASES = {
    **{f"epochs{n}": (lambda config, n=n: dict(
        max_epochs=n, e=replace(config.e, patience=n)), n)
       for n in (1, 2, 3, 8)},
    "e-stops-in-head": (_rates(0.3, 1, 2), 3),
    "e-stops-at-handoff": (_rates(0.3, 1, 3), 4),
    "e-stops-in-tail": (_rates(0.1, 2, 1), 5),
    "e-best-in-head-stops-in-tail": (_rates(0.3, 1, 5), 6),
}


def assert_no_children():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def running(pid):
    """Whether process `pid` exists and has not ended: a zombie, whose
    parent has not reaped it, has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def training_inputs(n=600, seed=0):
    rng = np.random.default_rng(seed)
    std_values = rng.normal(size=n)
    std_values[::40] = 2.5  # guarantee extreme-containing windows
    labels = np.abs(std_values) > 1.5
    gmm = distributions.fit_gmm(std_values, 1)
    features = engine.assemble_features(std_values, gmm)
    config = small_config()
    split = sampling.make_split(n, config.split_spec())
    return config, features, labels, split, gmm


class TestPredictComposition:
    @pytest.fixture(autouse=True)
    def stub_members(self, monkeypatch):
        # `forward_members` runs NetStacks only; the stubs give fixed outputs
        monkeypatch.setattr(engine, "forward_members",
                            lambda models, x: [m.forward(x) for m in models])

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


class TestPredictFusedMembers:
    """engine.predict runs the three NetStacks as one wavefront per depth
    and width; its member outputs must be those of each model's training
    forward, bit for bit, and of its own forward, to rounding."""

    @staticmethod
    def members_and_windows(config, seed=0, dtype=np.float32):
        models = {name: engine._member_model(config, name).astype(dtype)
                  for name in engine.MEMBERS}
        rng = np.random.default_rng(seed)
        for model in models.values():
            for value in model.params.values():
                value[...] = value + rng.normal(scale=0.1, size=value.shape)
        return models, rng.normal(size=(24, config.h, 2))

    # the layer-by-layer forward sums in another order: float32 rounds at
    # 6e-8 (test_network's TestForwardMembers), float64 at 1e-16
    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (np.float64, 1e-15)],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("overrides", [
        {},
        {"e": engine.ModelSpec(hidden=8, oversampling_os=1.0, seed=2),
         "c": engine.ModelSpec(hidden=24, oversampling_os=1.0, seed=3)},
        {"c": engine.ModelSpec(layers=3, oversampling_os=1.0, seed=3)},
    ], ids=["default", "hidden_widths_differ", "c_layers_differ"])
    def test_members_equal_their_own_forward(self, overrides, dtype, atol):
        config = replace(engine.NecConfig(h=48, f=6), **overrides)
        models, windows = self.members_and_windows(config, dtype=dtype)
        for window in (windows[0], windows):  # predict (B=1), holdout (B=S)
            bundle = engine.predict(models, window, np.zeros(window.shape[:-2]),
                                    identity_transform())
            for name, field in (("n", "n_pred"), ("e", "e_pred"), ("c", "c_prob")):
                out = getattr(bundle, field)
                assert out.dtype == dtype
                np.testing.assert_array_equal(
                    out, models[name]._forward_cached(window)[0])
                np.testing.assert_allclose(out, models[name].forward(window),
                                           rtol=0, atol=atol)

    def test_peak_memory_below_one_training_batch(self):
        # the wavefront holds all three members at once; dropping each
        # layer's gradient cache keeps a 24-window predict under one
        # training batch
        config = engine.NecConfig()
        models, windows = self.members_and_windows(config)
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(32, config.h, 2))
        target = rng.normal(size=(32, config.f))
        labels = np.zeros((32, config.f), dtype=bool)  # every position normal

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        predict_peak = peak(lambda: engine.predict(models, windows, np.zeros(24),
                                                   identity_transform()))
        train_peak = peak(lambda: models["n"].loss_and_grads(batch, target, labels))
        assert predict_peak < train_peak, (predict_peak, train_peak)


class TestAssembleFeatures:
    def test_channel_layout(self):
        rng = np.random.default_rng(2)
        std_values = rng.normal(size=50)
        gmm = distributions.fit_gmm(std_values, 1)
        features = engine.assemble_features(std_values, gmm)
        assert features.shape == (50, 2)
        np.testing.assert_array_equal(features[:, 0], std_values)
        np.testing.assert_array_equal(
            features[:, 1], distributions.gmm_indicator(gmm, std_values))


class TestTrainNec:
    def test_head_kinds(self):
        config, features, labels, split, _ = training_inputs()
        models, logs = engine.train_nec(config, features, labels, split)
        assert models["n"].head_kind == "normal"
        assert models["e"].head_kind == "extreme"
        assert models["c"].head_kind == "classifier"
        assert all(len(logs[m].val_losses) >= 1 for m in engine.MEMBERS)

    @needs_fork
    @pytest.mark.parametrize("cpus, forks", [({0, 1}, 1), ({0, 1, 2, 3}, 2)])
    def test_forked_and_in_process_paths_give_the_same_bits(self, monkeypatch,
                                                            cpus, forks):
        # one busy process per usable CPU, and never more than the members
        config, features, labels, split, _ = training_inputs()
        usable_cpus(monkeypatch, {0})
        models, logs = engine.train_nec(config, features, labels, split)
        forked = []
        real_fork = os.fork

        def counted_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        usable_cpus(monkeypatch, cpus)
        forked_models, forked_logs = engine.train_nec(config, features, labels, split)
        assert len(forked) == forks
        assert_no_children()
        for name in engine.MEMBERS:
            params, other = models[name].params, forked_models[name].params
            assert list(other) == list(params)
            for key in params:
                assert other[key].dtype == params[key].dtype
                assert other[key].tobytes() == params[key].tobytes(), (name, key)
        assert forked_logs == logs

    def test_without_fork_every_member_trains_here(self, monkeypatch):
        config, features, labels, split, _ = training_inputs()
        usable_cpus(monkeypatch, {0})
        models, logs = engine.train_nec(config, features, labels, split)

        def refused():
            raise AssertionError("one share needs no pipe and no fork")

        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.setattr(os, "pipe", refused)
        usable_cpus(monkeypatch, {0, 1})
        trained = []
        real_train = engine.train

        def recorded_train(model, samples, val, cfg):
            trained.append((os.getpid(), model.head_kind))
            return real_train(model, samples, val, cfg)

        monkeypatch.setattr(engine, "train", recorded_train)
        here_models, here_logs = engine.train_nec(config, features, labels, split)
        assert trained == [(os.getpid(), kind)
                           for kind in ("normal", "extreme", "classifier")]
        for name in engine.MEMBERS:
            params, other = models[name].params, here_models[name].params
            assert list(other) == list(params)
            for key in params:
                assert other[key].tobytes() == params[key].tobytes(), (name, key)
        assert here_logs == logs

    @needs_fork
    def test_a_failed_fork_is_a_training_failure(self, monkeypatch):
        # on three CPUs the first fork starts the child for E, the second
        # one fails: that child is ended and reaped before the error leaves
        config, features, labels, split, _ = training_inputs()
        real_fork, forks = os.fork, []

        def fork_once():
            if forks:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork_once)
        usable_cpus(monkeypatch, {0, 1, 2})
        with pytest.raises(TrainingFailureError,
                           match=r"^cannot start a process to train c: "
                                 + re.escape(os.strerror(errno.EAGAIN)) + "$"):
            engine.train_nec(config, features, labels, split)
        assert len(forks) == 1
        assert_no_children()

    def test_a_failed_pipe_is_a_training_failure(self, monkeypatch):
        config, features, labels, split, _ = training_inputs()

        def no_pipe():
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"),
                            raising=False)
        monkeypatch.setattr(os, "pipe", no_pipe)
        usable_cpus(monkeypatch, {0, 1})
        with pytest.raises(TrainingFailureError,
                           match=r"^cannot start a process to train e and c: "
                                 + re.escape(os.strerror(errno.EMFILE)) + "$"):
            engine.train_nec(config, features, labels, split)

    @needs_fork
    def test_a_child_killed_mid_training_is_a_training_failure(self, monkeypatch):
        # on two CPUs the child trains E's first epochs, through train_epochs
        config, features, labels, split, _ = training_inputs()
        parent, real_train_epochs = os.getpid(), engine.train_epochs

        def train_or_die(state, samples, val, stop=None):
            if os.getpid() != parent and state.model.head_kind == "extreme":
                os.kill(os.getpid(), signal.SIGKILL)
            return real_train_epochs(state, samples, val, stop)

        monkeypatch.setattr(engine, "train_epochs", train_or_die)
        usable_cpus(monkeypatch, {0, 1})
        with pytest.raises(TrainingFailureError,
                           match=r"the process training e and c ended without a "
                                 r"result \(exit code -9\)"):
            engine.train_nec(config, features, labels, split)
        assert_no_children()

    @needs_fork
    def test_a_child_killed_while_training_c_is_a_training_failure(self, monkeypatch):
        # the child has handed E on: this process trains E's last epochs,
        # then finds the child gone before it sent C
        config, features, labels, split, _ = training_inputs()
        parent, real_train = os.getpid(), engine.train
        resumed = []

        def train_or_die(model, samples, val, cfg, state=None):
            if os.getpid() != parent and model.head_kind == "classifier":
                os.kill(os.getpid(), signal.SIGKILL)
            if state is not None:
                resumed.append((os.getpid(), model.head_kind, state.epoch))
            return real_train(model, samples, val, cfg, state)

        monkeypatch.setattr(engine, "train", train_or_die)
        usable_cpus(monkeypatch, {0, 1})
        with pytest.raises(TrainingFailureError,
                           match=r"^the process training e and c ended without a "
                                 r"result \(exit code -9\)$"):
            engine.train_nec(config, features, labels, split)
        assert resumed == [(parent, "extreme", 1)]
        assert_no_children()

    @needs_fork
    @pytest.mark.parametrize("case", SPLIT_CASES)
    def test_every_plan_gives_the_same_bits(self, monkeypatch, case):
        overrides, e_epochs = SPLIT_CASES[case]
        config, features, labels, split, _ = training_inputs()
        config = replace(config, **overrides(config))
        usable_cpus(monkeypatch, {0})
        models, logs = engine.train_nec(config, features, labels, split)
        assert len(logs["e"].val_losses) == e_epochs
        if config.max_epochs == 8:  # N stops early, before E's last epochs
            assert logs["n"].stopped_early
            assert len(logs["n"].val_losses) < 8
        parent, real_train = os.getpid(), engine.train
        resumed = []

        def recorded(model, samples, val, cfg, state=None):
            if state is not None:
                resumed.append((os.getpid(), model.head_kind, state.epoch, state.done))
            return real_train(model, samples, val, cfg, state)

        monkeypatch.setattr(engine, "train", recorded)
        for cpus in ({0, 1}, {0, 1, 2}):
            resumed.clear()
            usable_cpus(monkeypatch, cpus)
            got_models, got_logs = engine.train_nec(config, features, labels, split)
            assert_no_children()
            head = config.max_epochs // 2
            # on two CPUs this process finishes E from the child's state,
            # which is done already where E stopped in the child's epochs
            split_here = len(cpus) == 2 and head > 0
            assert resumed == ([(parent, "extreme", min(head, e_epochs),
                                 e_epochs <= head)] if split_here else [])
            assert got_logs == logs
            for name in engine.MEMBERS:
                params, other = models[name].params, got_models[name].params
                assert list(other) == list(params)
                for key in params:
                    assert other[key].dtype == params[key].dtype
                    assert other[key].tobytes() == params[key].tobytes(), (name, key)

    @needs_fork
    @pytest.mark.parametrize("fails, raised", [
        ({"extreme": 1}, "extreme"),
        ({"extreme": 6}, "extreme"),
        ({"extreme": 1, "classifier": 2}, "extreme"),
        ({"extreme": 6, "classifier": 2}, "extreme"),
        ({"classifier": 2}, "classifier"),
        ({"classifier": 6}, "classifier"),
        ({"extreme": 6, "normal": 1}, "normal"),
    ], ids=["e-head", "e-tail", "e-head-c", "e-tail-c", "c-early", "c-late",
            "e-tail-n"])
    def test_every_plan_raises_the_first_failed_member(self, monkeypatch,
                                                       fails, raised):
        # eight epochs: E fails at epoch 1 in the child's first four, or at
        # 6 in this process's last four; C and N fail before they stop early
        config, features, labels, split, _ = training_inputs()
        config = replace(config, max_epochs=8, e=replace(config.e, patience=8))
        real_train_epochs = training.train_epochs

        def failing(state, samples, val, stop=None):
            kind = state.model.head_kind
            stop = state.cfg.max_epochs if stop is None else stop
            if kind in fails and state.epoch <= fails[kind] < stop:
                real_train_epochs(state, samples, val, fails[kind])
                if not state.done:
                    raise TrainingFailureError(f"{kind} failed at epoch {state.epoch}")
            return real_train_epochs(state, samples, val, stop)

        # `train` calls the training module's binding, a split piece engine's
        monkeypatch.setattr(training, "train_epochs", failing)
        monkeypatch.setattr(engine, "train_epochs", failing)
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            usable_cpus(monkeypatch, cpus)
            with pytest.raises(TrainingFailureError) as excinfo:
                engine.train_nec(config, features, labels, split)
            assert type(excinfo.value) is TrainingFailureError
            assert str(excinfo.value) == f"{raised} failed at epoch {fails[raised]}", cpus
            assert_no_children()

    @needs_fork
    @pytest.mark.parametrize("widened", [True, False], ids=["widened", "default"])
    def test_a_large_extreme_state_hands_off_without_a_hang(self, widened):
        # E at width 64 pickles to more than a default 64 KiB pipe buffer:
        # in a widened pipe the child sends it at once, in a default one it
        # waits for this process to read it; neither may hang
        script = f"""
import os, pickle, sys
from dataclasses import replace
sys.path.insert(0, {str(Path(__file__).parent)!r})
from necplus import engine
from necplus.neural import TrainConfig, TrainState
from test_engine import training_inputs
config, features, labels, split, _ = training_inputs()
config = replace(config, max_epochs=4, e=replace(config.e, hidden=64))
# the handed-on state holds this much and Adam's moments besides
fresh = TrainState.start(engine._member_model(config, "e"), TrainConfig())
assert len(pickle.dumps(fresh)) > 65536, len(pickle.dumps(fresh))
if not {widened}:
    engine._widen_pipe = lambda fd: None
runs = []
for cpus in ({{0}}, {{0, 1}}):
    os.sched_getaffinity = lambda pid, cpus=cpus: cpus
    runs.append(engine.train_nec(config, features, labels, split))
(models, logs), (split_models, split_logs) = runs
assert split_logs == logs
for name in engine.MEMBERS:
    for key, value in models[name].params.items():
        assert split_models[name].params[key].tobytes() == value.tobytes(), (name, key)
"""
        src = str(Path(engine.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="pipe sizes are Linux's")
    def test_a_childs_pipe_holds_a_large_handoff(self):
        cap = Path("/proc/sys/fs/pipe-max-size")
        if int(cap.read_text()) < engine.PIPE_BYTES and os.geteuid() != 0:
            pytest.skip("this host caps pipes below PIPE_BYTES")
        import fcntl
        reader, writer = os.pipe()
        try:
            engine._widen_pipe(writer)
            assert fcntl.fcntl(writer, fcntl.F_GETPIPE_SZ) == engine.PIPE_BYTES
        finally:
            os.close(reader)
            os.close(writer)

    @needs_fork
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="pipe sizes are Linux's")
    def test_the_child_trains_c_while_this_process_trains_n(self, monkeypatch,
                                                            tmp_path):
        # E at width 64 pickles to more than a default pipe buffer holds: the
        # child's pipe takes it at once, so the child starts C before this
        # process, still training N, has read E's state
        cap = Path("/proc/sys/fs/pipe-max-size")
        if int(cap.read_text()) < engine.PIPE_BYTES and os.geteuid() != 0:
            pytest.skip("this host caps pipes below PIPE_BYTES")
        config, features, labels, split, _ = training_inputs()
        config = replace(config, max_epochs=4, e=replace(config.e, hidden=64))
        started = tmp_path / "c-started"
        parent, real_train = os.getpid(), engine.train

        def marked(model, samples, val, cfg, state=None):
            if os.getpid() != parent and model.head_kind == "classifier":
                started.touch()
            if os.getpid() == parent and model.head_kind == "normal":
                deadline = time.monotonic() + 60
                while not started.exists():
                    assert time.monotonic() < deadline, "C waited for E's handoff"
                    time.sleep(0.01)
            return real_train(model, samples, val, cfg, state)

        monkeypatch.setattr(engine, "train", marked)
        usable_cpus(monkeypatch, {0, 1})
        engine.train_nec(config, features, labels, split)
        assert_no_children()

    @needs_fork
    def test_children_end_when_the_parent_is_killed(self, tmp_path):
        # each child kills the parent once it has trained a member; every
        # result overflows a pipe's buffer, so a child still holding a
        # reading end would block on its send for ever
        pids = tmp_path / "pids"
        script = f"""
import os, signal, sys
from dataclasses import replace
sys.path.insert(0, {str(Path(__file__).parent)!r})
from necplus import engine
from test_engine import training_inputs
config, features, labels, split, _ = training_inputs()
config = replace(config, **{{name: replace(getattr(config, name), hidden=64)
                             for name in engine.MEMBERS}})
parent, real_train = os.getpid(), engine.train

def train_then_kill_parent(*args):
    result = real_train(*args)
    if os.getpid() != parent:
        with open({str(pids)!r}, "a") as fh:
            fh.write(f"{{os.getpid()}}\\n")
        os.kill(parent, signal.SIGKILL)
    return result

engine.train = train_then_kill_parent
os.sched_getaffinity = lambda pid: {{0, 1, 2}}
engine.train_nec(config, features, labels, split)
"""
        src = str(Path(engine.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            # the children inherit stdout: it ends when the last one exits
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, timeout=60)
        finally:
            for pid in pids.read_text().split() if pids.exists() else ():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(pid), signal.SIGKILL)
        assert result.returncode == -signal.SIGKILL, result.stderr
        assert pids.read_text().split()

    @needs_fork
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the parent-death signal is Linux's")
    def test_children_end_with_their_killed_parent(self, tmp_path):
        # the parent SIGKILLs itself as it starts its own share, so no
        # `finally` of its ends the child, whose share would train for hours
        pids, log = tmp_path / "pids", tmp_path / "stderr"
        script = f"""
import os, signal, sys
from dataclasses import replace
sys.path.insert(0, {str(Path(__file__).parent)!r})
from necplus import engine
from test_engine import training_inputs
config, features, labels, split, _ = training_inputs()
config = replace(config, max_epochs=10**6, c=replace(config.c, patience=10**6))
parent, real_fork, real_train = os.getpid(), os.fork, engine.train

def fork_and_record():
    pid = real_fork()
    if pid:
        with open({str(pids)!r}, "a") as fh:
            fh.write(f"{{pid}}\\n")
    return pid

def train_or_die(*args):
    if os.getpid() == parent:
        os.kill(parent, signal.SIGKILL)
    return real_train(*args)

os.fork, engine.train = fork_and_record, train_or_die
os.sched_getaffinity = lambda pid: {{0, 1}}
engine.train_nec(config, features, labels, split)
"""
        src = str(Path(engine.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            with open(log, "w", encoding="utf-8") as err:
                # not a pipe: the child would hold it open while it lives
                returncode = subprocess.run(
                    [sys.executable, "-c", script], env=env,
                    stdout=subprocess.DEVNULL, stderr=err, timeout=60).returncode
            assert returncode == -signal.SIGKILL, log.read_text(encoding="utf-8")
            children = [int(pid) for pid in pids.read_text().split()]
            assert len(children) == 1
            deadline = time.monotonic() + 5.0
            while any(map(running, children)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, children))
        finally:
            for pid in pids.read_text().split() if pids.exists() else ():
                if running(int(pid)):
                    os.kill(int(pid), signal.SIGKILL)


def field_paths():
    """The path from a NecConfig to each of its fields: its own, then each
    member's ModelSpec fields."""
    for f in fields(engine.NecConfig):
        if f.name in engine.MEMBERS:
            yield from ((f.name, g.name) for g in fields(engine.ModelSpec))
        else:
            yield (f.name,)


def with_field_changed(config, path):
    """`config` with the field at `path` alone set to a valid value other
    than its own."""
    value = reduce(getattr, path, config)
    candidates = ([((2000, 8000),)] if isinstance(value, tuple)
                  else [type(value)(value + 1), type(value)(value / 2)])
    for candidate in candidates:
        if len(path) == 1:
            kwargs = {path[0]: candidate}
        else:
            kwargs = {path[0]: replace(getattr(config, path[0]), **{path[1]: candidate})}
        try:
            return replace(config, **kwargs)
        except ConfigError:
            continue
    raise AssertionError(f"no valid other value for {'.'.join(path)}")


class TestConfigPairs:
    def test_keys_are_the_fields(self):
        assert sorted(engine.CONFIG_KEYS.values()) == sorted(field_paths())

    # n_oversampling_os has one valid value: TestConfigParsing covers it
    @pytest.mark.parametrize("path", [path for path in field_paths()
                                      if path != ("n", "oversampling_os")], ids=".".join)
    def test_each_field_round_trips_and_moves_the_hash(self, path):
        default = engine.NecConfig()
        config = with_field_changed(default, path)
        assert config != default
        text = kvtext.dumps(engine.config_to_pairs(config))
        assert engine.config_from_pairs(kvtext.loads(text, "config")) == config
        assert engine.config_hash(config) != engine.config_hash(default)

    def test_round_trip(self):
        config = small_config(alpha=2.0, beta=0.5)
        assert engine.config_from_pairs(engine.config_to_pairs(config)) == config

    def test_table_names_present(self):
        pairs = engine.config_to_pairs(small_config())
        for key in ("input_length_h", "extreme_threshold_epsilon",
                    "gmm_components_m", "n_batch_size", "e_hidden",
                    "c_layers", "n_volume", "e_oversampling_os",
                    "c_oversampling_os", "loss_alpha", "loss_beta"):
            assert key in pairs
        assert "n_oversampling_os" not in pairs

    def test_default_config_text_and_hash_are_pinned(self):
        # every checkpoint carries this digest: a renamed, reordered or
        # reformatted key orphans every saved run
        config = engine.NecConfig()
        assert kvtext.dumps(engine.config_to_pairs(config)) == (
            "input_length_h 360\nforecast_length_f 72\n"
            "extreme_threshold_epsilon 1.5\ngmm_components_m 3\n"
            "loss_alpha 1.0\nloss_beta 1.0\ngate_threshold 0.5\n"
            "holdout_sections 24\nval_ranges \ntest_ranges \nsplit_seed 0\n"
            "max_epochs 50\nlr_recurrent 0.001\nlr_fc 0.0005\n"
            "n_batch_size 32\nn_hidden 16\nn_layers 2\nn_volume 1000\n"
            "n_seed 1\nn_patience 3\n"
            "e_batch_size 32\ne_hidden 16\ne_layers 2\ne_volume 1000\n"
            "e_oversampling_os 1.0\ne_seed 2\ne_patience 4\n"
            "c_batch_size 32\nc_hidden 16\nc_layers 2\nc_volume 1000\n"
            "c_oversampling_os 1.0\nc_seed 3\nc_patience 4\n")
        assert engine.config_hash(config) == (
            "9fd63cf1bc8a883256eee9b053429f9ef4f4fce4bfd589bd9e694b99b5916cf4")

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
    engine.save_run(run_dir, config, gmm, transform, models, logs, split)
    return run_dir, config, models, features


class TestRunPersistence:
    def test_round_trip_predictions_bit_exact(self, trained_run):
        run_dir, config, models, features = trained_run
        run = engine.load_run(run_dir)
        assert run.config == config
        assert run.transform.anchor == 100.0
        window = features[:config.h]
        before = engine.predict(models, window, 100.0, run.transform)
        after = engine.predict(run.models, window, 100.0, run.transform)
        np.testing.assert_array_equal(before.composed, after.composed)
        np.testing.assert_array_equal(before.raw_scale, after.raw_scale)

    def test_expected_files(self, trained_run):
        run_dir = trained_run[0]
        for name in ("config", "gmm.model", "transform.meta", "n.ckpt",
                     "e.ckpt", "c.ckpt", "train.log", "split.csv"):
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


class TestSplitSpec:
    def test_fields_come_from_the_config(self):
        config = small_config(split_seed=7)
        assert config.split_spec() == sampling.SplitSpec(
            h=12, f=4, holdout_sections=2, val_ranges=((100, 200),),
            test_ranges=((300, 400),), seed=7)


class TestConfigParsing:
    def test_normal_model_oversampling_rejected(self):
        # config_to_pairs never writes n_oversampling_os, so a run that
        # oversampled N would be saved and hashed as one that did not
        with pytest.raises(ConfigError, match="n_oversampling_os"):
            engine.config_from_pairs({"n_oversampling_os": "0.5"})
        with pytest.raises(ConfigError):
            small_config(n=engine.ModelSpec(oversampling_os=0.5))
        assert engine.config_from_pairs({"n_oversampling_os": "0"}) == engine.NecConfig()

    @pytest.mark.parametrize("text", ["yes", "no", "", "TRUE", "2", "on"])
    def test_soft_gate_rejects_other_text(self, text):
        # soft gating is gone: the key is unknown, whatever its value
        with pytest.raises(ConfigError, match="unknown config key 'soft_gate'"):
            engine.config_from_pairs({"soft_gate": text})

    @pytest.mark.parametrize("key,text", [
        ("input_length_h", "abc"), ("loss_alpha", "1.0.0"), ("val_ranges", "1-x"),
        ("test_ranges", "5"), ("e_hidden", "16.5"), ("c_oversampling_os", "")])
    def test_malformed_value_names_the_key(self, key, text):
        with pytest.raises(ConfigError, match=key):
            engine.config_from_pairs({key: text})


CONFIG_KEY_NAMES = sorted(engine.CONFIG_KEYS)
VALUE_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=("Cs", "Zl", "Zp", "Cc")), max_size=12),
    st.from_regex(r"-?[0-9]{1,4}(\.[0-9]{0,3})?(e-?[0-9])?", fullmatch=True),
    st.from_regex(r"([0-9x]{0,4}-[0-9x]{0,4};?){0,3}", fullmatch=True),
    st.sampled_from(["0", "1", "true", "nan", "inf", "-1", "1e400", "24", "0.5"]))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.one_of(st.sampled_from(CONFIG_KEY_NAMES),
                                 st.text(min_size=1, max_size=8)),
                       VALUE_TEXT, max_size=6))
def test_fuzzed_config_raises_only_domain_errors(pairs):
    lines = [f"{key} {value}" for key, value in pairs.items()
             if key.strip() and " " not in key and "\n" not in key]
    try:
        config = engine.config_from_pairs(kvtext.loads("\n".join(lines), "config"))
    except NecError:
        return
    assert isinstance(config, engine.NecConfig)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_fuzzed_config_text_raises_only_domain_errors(text):
    try:
        engine.config_from_pairs(kvtext.loads(text, "config"))
    except NecError:
        pass


@pytest.fixture(scope="module")
def holdout_run(trained_run):
    run = engine.load_run(trained_run[0])
    features = trained_run[3]
    rng = np.random.default_rng(5)
    raw_values = 100.0 + np.concatenate([[0.0], np.cumsum(rng.normal(size=len(features)))])
    labels = np.abs(features[:, 0]) > 1.5
    starts = np.sort(rng.choice(np.arange(run.config.h, len(features) - run.config.f),
                                size=20, replace=False))
    sections = tuple((int(s), int(s) + run.config.f) for s in starts)
    return run, features, labels, raw_values, sections


# A batch and its windows one by one take BLAS calls of other shapes, which
# may sum in another order. The run's own float32 members agree to float32's
# rounding (n_pred by at most 9.3e-9, 2.1e-6 relative, measured), float64
# copies of them to float64's; the gates are equal in both
BATCHED_TOL = {np.float32: {"rtol": 1e-6, "atol": 1e-7},
               np.float64: {"rtol": 1e-12, "atol": 1e-15}}
BATCHED_DTYPES = pytest.mark.parametrize("dtype", list(BATCHED_TOL),
                                         ids=["float32", "float64"])


def models_in(run, dtype):
    """The run's members with their parameters in `dtype`: the run's own
    stacks where they already are."""
    return {name: model if model.dtype == dtype else model.astype(dtype)
            for name, model in run.models.items()}


class TestBatchedForecast:
    @BATCHED_DTYPES
    def test_stack_equals_single_windows(self, holdout_run, dtype):
        run, features, _, raw_values, sections = holdout_run
        assert {model.dtype for model in run.models.values()} == {np.dtype(np.float32)}
        models = models_in(run, dtype)
        h = run.config.h
        starts = [s for s, _ in sections]
        windows = np.stack([features[s - h:s] for s in starts])
        batched = engine.predict(models, windows, raw_values[starts], run.transform)
        singles = [engine.predict(models, features[s - h:s], raw_values[s],
                                  run.transform) for s in starts]
        assert batched.n_pred.shape == (len(starts), run.config.f)
        np.testing.assert_array_equal(batched.gate, np.stack([b.gate for b in singles]))
        for name in ("n_pred", "e_pred", "c_prob", "composed", "raw_scale"):
            np.testing.assert_allclose(getattr(batched, name),
                                       np.stack([getattr(b, name) for b in singles]),
                                       err_msg=name, **BATCHED_TOL[dtype])

    @BATCHED_DTYPES
    def test_sections_equal_the_per_section_loop(self, holdout_run, dtype):
        run, features, labels, raw_values, sections = holdout_run
        run = replace(run, models=models_in(run, dtype))
        bundle, truth, sec_labels, baseline = engine.forecast_sections(
            run, features, labels, raw_values, sections)
        config = run.config
        for i, (start, stop) in enumerate(sections):
            single = engine.predict(run.models, features[start - config.h:start],
                                    raw_values[start], run.transform,
                                    threshold=config.gate_threshold)
            np.testing.assert_array_equal(bundle.gate[i], single.gate)
            np.testing.assert_allclose(bundle.raw_scale[i], single.raw_scale,
                                       rtol=BATCHED_TOL[dtype]["rtol"])
            np.testing.assert_array_equal(truth[i], raw_values[start + 1:stop + 1])
            np.testing.assert_array_equal(sec_labels[i], labels[start:stop])
            np.testing.assert_array_equal(
                baseline[i], evaluation.persistence_forecast(raw_values[:start + 1],
                                                             config.f))

    def test_single_section_is_bit_identical_to_predict(self, holdout_run):
        run, features, labels, raw_values, sections = holdout_run
        start = sections[3][0]
        bundle = engine.forecast_sections(run, features, labels, raw_values,
                                          [sections[3]])[0]
        single = engine.predict(run.models, features[start - run.config.h:start],
                                raw_values[start], run.transform)
        for name in ("n_pred", "e_pred", "c_prob", "gate", "composed", "raw_scale"):
            np.testing.assert_array_equal(getattr(bundle, name)[0], getattr(single, name))

    @pytest.mark.parametrize("sections", [(), ((5, 9),), ((597, 601),)])
    def test_unforecastable_sections_rejected(self, holdout_run, sections):
        run, features, labels, raw_values, _ = holdout_run
        with pytest.raises(ConfigError, match="section"):
            engine.forecast_sections(run, features, labels, raw_values, sections)

    def test_wrong_rank_window_rejected(self, holdout_run):
        run = holdout_run[0]
        with pytest.raises(DimensionError):
            engine.predict(run.models, np.zeros(12), 0.0, run.transform)

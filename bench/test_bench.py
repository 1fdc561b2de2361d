"""Tests of the benchmark's own arithmetic, output checks and tracing."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _path in (str(ROOT / "src"), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import measures  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_with_nested_spans():
    tracer = tracing.Tracer(targets=(), clock=FakeClock(
        [0.0, 1.0, 1.5, 3.0, 4.0, 5.0, 8.0, 10.0]))
    with tracer.span("train"):
        with tracer.span("step"):
            with tracer.span("forward"):
                pass
        with tracer.span("step"):
            pass
    names = [s.name for s in tracer.spans]
    assert names == ["train", "step", "forward", "step"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == [4.0, 1.5, 1.5, 3.0]
    totals = tracing._Totals(tracer.spans)
    assert totals.get("step", "calls") == 2
    assert totals.get("step", "s") == 6.0
    assert totals.get("step", "self_s") == 4.5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measures.tail_percentile(19) is None
    assert measures.tail_percentile(20) == 50.0
    assert measures.tail_percentile(99) == 50.0
    assert measures.tail_percentile(100) == 90.0
    assert measures.tail_percentile(999) == 90.0
    assert measures.tail_percentile(1000) == 99.0
    assert measures.tail_percentile(10000) == 99.9
    values = list(range(1, 101))
    assert measures.percentile(values, 90) == 90
    assert measures.samples_beyond(100, 90) == 10
    assert measures.percentile(values, 50) == 50
    assert measures.percentile([7.0], 90) == 7.0


TRAIN_LOG = """\
model n best_epoch 1 stopped_early 1
model n epoch 0 train 0.5 val 0.25
model n epoch 1 train 0.4 val 0.125
model n epoch 2 train 0.3 val 0.2
model e best_epoch 0 stopped_early 0
model e epoch 0 train 9.0 val 4.5
model c best_epoch 1 stopped_early 0
model c epoch 0 train 0.7 val 0.69
model c epoch 1 train 0.6 val 0.61
"""


def test_train_windows_per_second_from_train_log():
    volumes = {"n": 2000, "e": 1000, "c": 500}
    windows = measures.trained_windows(TRAIN_LOG, volumes)
    assert windows == {"n": 6000, "e": 1000, "c": 1000}
    assert sum(windows.values()) / 4.0 == 2000.0
    assert measures.best_val_losses(TRAIN_LOG) == {"n": 0.125, "e": 4.5, "c": 0.61}


def _bindings():
    """Every attribute of every necplus module and traced class."""
    snapshot = {}
    for name, module in sys.modules.items():
        if name == "necplus" or name.startswith("necplus."):
            for key, value in vars(module).items():
                snapshot[(name, key)] = value
    from necplus.neural import network, optimizers
    for cls in (network.NetStack, optimizers.Sgd, optimizers.Adam):
        for key, value in vars(cls).items():
            snapshot[(cls.__name__, key)] = value
    return snapshot


def test_wrappers_cover_every_binding_and_are_restored():
    from necplus import engine, neural
    from necplus.neural import losses, network, training

    tracer = tracing.Tracer()
    before = _bindings()
    original_loss = losses.masked_mse_loss
    model = network.NetStack("normal", input_dim=2, width=4, n_layers=1, horizon=2)
    tracer.install()
    try:
        for owner in (losses, network, training, neural):
            assert owner.masked_mse_loss is not original_loss
        assert engine.train is training.train
        assert training.train is not before[("necplus.neural.training", "train")]
        model.forward(np.zeros((5, 2)))
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == [
        "neural.network.NetStack.forward", "neural.network.lstm_forward"]
    assert tracer.spans[1].attrs["steps"] == 5
    assert _bindings() == before
    model.forward(np.zeros((5, 2)))
    assert len(tracer.spans) == 2


def test_overhead_share_from_alternating_units():
    tracer = tracing.Tracer(targets=(), clock=FakeClock(
        [0.0, 1.0, 1.0, 2.2, 2.2, 3.2, 3.2, 4.4]))
    for traced in (False, True, False, True):
        with tracer.span(tracing.UNIT_SPAN, traced=traced):
            pass
    share = tracing.layer_metrics(tracer.spans)["trace.overhead_share"][0]
    assert share == pytest.approx(0.2)


EVALUATE_OUT = """\
run_id,sensor,rmse_total,rmse_normal,rmse_extreme,mape,n_total,n_extreme
run,series,{total!r},{normal!r},{extreme!r},0.5,4,1
persistence,series,2.0,2.0,,0.4,4,0
wilcoxon,T=1.0,p=np.float64(0.25),n=4
"""


def test_evaluate_check_needs_the_rmse_decomposition():
    normal, extreme = 1.0, 3.0
    total = float(np.sqrt((3 * normal**2 + extreme**2) / 4))
    facts = workloads._check_evaluate(EVALUATE_OUT.format(
        total=total, normal=normal, extreme=extreme))
    assert facts["rmse_rel"] == total / 2.0
    with pytest.raises(workloads.CheckFailed):
        workloads._check_evaluate(EVALUATE_OUT.format(
            total=total * (1 + 1e-9), normal=normal, extreme=extreme))


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

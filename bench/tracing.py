"""Span tracing of necplus from outside: wrappers around each module's public
functions, installed at every place the function is bound and removed again.

A span records name, start, end and parent; spans stay in memory until the
run ends. Per-layer metrics are computed from the spans afterwards. The
private helpers `_sigmoid` and `_stack_windows` are not wrapped, so their
cost shows in their caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

MEMBER_OF_HEAD = {"normal": "n", "extreme": "e", "classifier": "c"}
MEMBERS = ("n", "e", "c")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end, parent, attrs):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "attrs": self.attrs}


# ---------------------------------------------------------------------------
# What is wrapped


def _nbytes(obj) -> int:
    """Bytes of every array in obj, looking inside lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(o) for o in obj.values())
    return 0


def _lstm_forward(args, kwargs, result):
    w_x, w_h, _, x = args
    batch, steps, d_in = np.shape(x)
    width = w_h.shape[1]
    # the two GEMMs per step; gate nonlinearities are not counted
    flops = 2 * batch * steps * 4 * width * (d_in + width)
    return {"steps": steps, "flops": flops,
            "bytes": _nbytes(args) + _nbytes(result)}


def _lstm_backward(args, kwargs, result):
    w_x, w_h, x = args[:3]
    batch, steps, d_in = np.shape(x)
    width = w_h.shape[1]
    # four GEMMs per step: d_wx, d_wh, d_x and dh_next
    flops = 4 * batch * steps * 4 * width * (d_in + width)
    return {"steps": steps, "flops": flops,
            "bytes": _nbytes(args) + _nbytes(result)}


def _train(args, kwargs, result):
    model, samples = args[0], args[1]
    epochs = len(result[1].train_losses)
    return {"member": MEMBER_OF_HEAD[model.head_kind], "epochs": epochs,
            "windows": epochs * len(samples)}


def _draw_samples(args, kwargs, result):
    return {"windows": len(result),
            "extreme_windows": sum(bool(w.target_mask.any()) for w in result)}


@dataclass(frozen=True)
class Target:
    module: str            # module that defines the function or class
    attr: str              # "function" or "Class.method"
    describe: Callable | None = None

    @property
    def span(self) -> str:
        return f"{self.module.removeprefix('necplus.')}.{self.attr}"


TARGETS = (
    Target("necplus.neural.network", "lstm_forward", _lstm_forward),
    Target("necplus.neural.network", "lstm_backward", _lstm_backward),
    Target("necplus.neural.network", "NetStack.forward"),
    Target("necplus.neural.network", "NetStack.backward"),
    Target("necplus.neural.network", "NetStack.loss_and_grads"),
    Target("necplus.neural.network", "save_checkpoint"),
    Target("necplus.neural.network", "load_checkpoint"),
    Target("necplus.neural.losses", "masked_mse_loss"),
    Target("necplus.neural.losses", "classifier_loss"),
    Target("necplus.neural.optimizers", "Sgd.step"),
    Target("necplus.neural.optimizers", "Adam.step"),
    Target("necplus.neural.training", "train", _train),
    Target("necplus.neural.training", "evaluate_loss"),
    Target("necplus.sampling", "draw_samples", _draw_samples),
    Target("necplus.sampling", "make_split"),
    Target("necplus.series", "read_series_csv",
           lambda a, k, r: {"rows": len(r)}),
    Target("necplus.series", "fill_gaps"),
    Target("necplus.series", "difference_standardize"),
    Target("necplus.series", "label_extremes"),
    Target("necplus.series", "write_preprocessed"),
    Target("necplus.series", "invert_transform"),
    Target("necplus.distributions", "fit_gmm",
           lambda a, k, r: {"iterations": len(r.log_likelihood_trace)}),
    Target("necplus.distributions", "gmm_indicator"),
    Target("necplus.engine", "assemble_features"),
    Target("necplus.engine", "train_nec"),
    Target("necplus.engine", "predict"),
    Target("necplus.engine", "load_run"),
    Target("necplus.engine", "save_run"),
    Target("necplus.evaluation", "per_class_report"),
    Target("necplus.evaluation", "wilcoxon_signed_rank"),
    Target("necplus.evaluation", "persistence_forecast"),
    Target("necplus.synth", "generate"),
)


# ---------------------------------------------------------------------------
# Recording


class Tracer:
    """Records spans; `install` swaps the wrappers in, `uninstall` restores
    the original objects at every place they were bound."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock
        self._patches = self._plan(targets)
        self.installed = False

    def _plan(self, targets):
        """(owner, attribute, original, wrapper) for every binding site."""
        for target in targets:
            importlib.import_module(target.module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "necplus" or name.startswith("necplus.")]
        patches = []
        for target in targets:
            owner = sys.modules[target.module]
            cls_name, _, method = target.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                sites = [(cls, method)]
            else:
                original = getattr(owner, target.attr)
                sites = [(m, key) for m in modules
                         for key, value in vars(m).items() if value is original]
            wrapper = self.wrap(original, target.span, target.describe)
            patches.extend((obj, key, original, wrapper) for obj, key in sites)
        return patches

    def install(self) -> None:
        for obj, key, _, wrapper in self._patches:
            setattr(obj, key, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for obj, key, original, _ in reversed(self._patches):
            setattr(obj, key, original)
        self.installed = False

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self._clock(), None, parent, {}))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index].end = self._clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, around a call it makes."""
        index = self.begin(name)
        self.spans[index].attrs.update(attrs)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn, name: str, describe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if describe is not None:
                self.spans[index].attrs.update(describe(args, kwargs, result))
            return result
        return wrapper


# ---------------------------------------------------------------------------
# Per-layer metrics


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


class _Totals:
    def __init__(self, spans):
        self.spans = spans
        self.by_name: dict = {}
        for span, own in zip(spans, self_times(spans)):
            agg = self.by_name.setdefault(
                span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += span.duration
            agg["self_s"] += own
            for key, value in span.attrs.items():
                if isinstance(value, (int, float)):
                    agg[key] = agg.get(key, 0) + value

    def get(self, name: str, stat: str):
        default = 0.0 if stat in ("s", "self_s") else 0
        return self.by_name.get(name, {}).get(stat, default)

    def per_step_us(self, name: str) -> float:
        steps = self.get(name, "steps")
        return 1e6 * self.get(name, "self_s") / steps if steps else 0.0

    def gflop_s(self) -> float:
        names = ("neural.network.lstm_forward", "neural.network.lstm_backward")
        busy = sum(self.get(n, "self_s") for n in names)
        flops = sum(self.get(n, "flops") for n in names)
        return flops / busy / 1e9 if busy else 0.0

    def member(self, name: str, member: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in self.spans
                   if s.name == name and s.attrs.get("member") == member)

    def batches(self, member: str) -> int:
        trains = {i for i, s in enumerate(self.spans)
                  if s.name == "neural.training.train"
                  and s.attrs.get("member") == member}
        return sum(1 for s in self.spans
                   if s.name == "neural.network.NetStack.loss_and_grads"
                   and s.parent in trains)

    def data_wait_s(self) -> float:
        """From each train entry to its first loss_and_grads call."""
        first: dict = {}
        for s in self.spans:
            if (s.name == "neural.network.NetStack.loss_and_grads"
                    and s.parent is not None and s.parent not in first):
                first[s.parent] = s.start
        return sum(start - self.spans[i].start for i, start in first.items()
                   if self.spans[i].name == "neural.training.train")

    def extreme_share(self, member: str) -> float:
        """Share of the windows drawn for a member whose target holds an
        extreme; the k-th draw under one train_nec is member k."""
        drawn = extreme = 0
        order: dict = {}
        for s in self.spans:
            if s.name != "sampling.draw_samples" or s.parent is None:
                continue
            k = order.get(s.parent, 0)
            order[s.parent] = k + 1
            if k < len(MEMBERS) and MEMBERS[k] == member:
                drawn += s.attrs["windows"]
                extreme += s.attrs["extreme_windows"]
        return extreme / drawn if drawn else 0.0

    def overhead_share(self) -> float:
        """Median traced timed unit over median untraced one, minus 1."""
        units = {True: [], False: []}
        for s in self.spans:
            if s.name == UNIT_SPAN:
                units[bool(s.attrs["traced"])].append(s.duration)
        if not (units[True] and units[False]):
            return 0.0
        return statistics.median(units[True]) / statistics.median(units[False]) - 1.0


def _stat(span: str, stat: str):
    return lambda t: t.get(span, stat)


_NET = "neural.network."
# Span the benchmark opens around each timed unit of a traced run; units
# alternate between wrappers installed and removed.
UNIT_SPAN = "bench.unit"
CLI_STAGES = ("synth", "preprocess", "fit-gmm", "train", "predict", "evaluate")

# (metric, unit, better, value from the run's span totals). Which end-to-end
# metric each one should move, and on which workload, is in bench/README.md.
LAYER_METRICS = [
    *[(f"{_NET}{fn}.{stat}", unit, "lower", _stat(_NET + fn, stat))
      for fn in ("lstm_forward", "lstm_backward")
      for stat, unit in (("calls", "count"), ("steps", "count"), ("self_s", "s"))],
    (f"{_NET}lstm_forward.us_per_step", "us", "lower",
     lambda t: t.per_step_us(_NET + "lstm_forward")),
    (f"{_NET}lstm_backward.us_per_step", "us", "lower",
     lambda t: t.per_step_us(_NET + "lstm_backward")),
    (f"{_NET}lstm.flops", "flop-computed", "lower",
     lambda t: t.get(_NET + "lstm_forward", "flops")
     + t.get(_NET + "lstm_backward", "flops")),
    (f"{_NET}lstm.bytes", "byte-computed", "lower",
     lambda t: t.get(_NET + "lstm_forward", "bytes")
     + t.get(_NET + "lstm_backward", "bytes")),
    (f"{_NET}lstm.gflop_s", "GFLOP/s", "higher", lambda t: t.gflop_s()),
    (f"{_NET}head_forward.self_s", "s", "lower",
     _stat(_NET + "NetStack.forward", "self_s")),
    (f"{_NET}head_backward.self_s", "s", "lower",
     _stat(_NET + "NetStack.backward", "self_s")),
    (f"{_NET}save_checkpoint.s", "s", "lower", _stat(_NET + "save_checkpoint", "s")),
    (f"{_NET}load_checkpoint.s", "s", "lower", _stat(_NET + "load_checkpoint", "s")),
    *[(f"neural.losses.{fn}.{stat}", unit, "lower",
       _stat(f"neural.losses.{fn}", stat))
      for fn in ("masked_mse_loss", "classifier_loss")
      for stat, unit in (("calls", "count"), ("self_s", "s"))],
    *[(f"neural.optimizers.{alias}.{stat}", unit, "lower",
       _stat(f"neural.optimizers.{cls}.step", stat))
      for alias, cls in (("sgd_step", "Sgd"), ("adam_step", "Adam"))
      for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("neural.training.train.self_s", "s", "lower",
     _stat("neural.training.train", "self_s")),
    ("neural.training.data_wait_s", "s", "lower", lambda t: t.data_wait_s()),
    ("neural.training.evaluate_loss.s", "s", "lower",
     _stat("neural.training.evaluate_loss", "s")),
    *[(f"neural.training.batches.{m}", "count", "lower",
       lambda t, m=m: t.batches(m)) for m in MEMBERS],
    *[(f"neural.training.epochs.{m}", "count", "lower",
       lambda t, m=m: t.member("neural.training.train", m, "epochs"))
      for m in MEMBERS],
    *[(f"neural.training.windows.{m}", "count", "higher",
       lambda t, m=m: t.member("neural.training.train", m, "windows"))
      for m in MEMBERS],
    ("sampling.draw_samples.calls", "count", "lower",
     _stat("sampling.draw_samples", "calls")),
    ("sampling.draw_samples.s", "s", "lower", _stat("sampling.draw_samples", "s")),
    ("sampling.make_split.s", "s", "lower", _stat("sampling.make_split", "s")),
    *[(f"sampling.extreme_window_share.{m}", "ratio", "higher",
       lambda t, m=m: t.extreme_share(m)) for m in MEMBERS],
    ("series.read_series_csv.calls", "count", "lower",
     _stat("series.read_series_csv", "calls")),
    ("series.read_series_csv.s", "s", "lower", _stat("series.read_series_csv", "s")),
    ("series.read_series_csv.rows", "count", "lower",
     _stat("series.read_series_csv", "rows")),
    *[(f"series.{fn}.s", "s", "lower", _stat(f"series.{fn}", "s"))
      for fn in ("fill_gaps", "difference_standardize", "label_extremes",
                 "write_preprocessed", "invert_transform")],
    ("distributions.fit_gmm.s", "s", "lower", _stat("distributions.fit_gmm", "s")),
    ("distributions.fit_gmm.iterations", "count", "lower",
     _stat("distributions.fit_gmm", "iterations")),
    ("distributions.gmm_indicator.calls", "count", "lower",
     _stat("distributions.gmm_indicator", "calls")),
    ("distributions.gmm_indicator.s", "s", "lower",
     _stat("distributions.gmm_indicator", "s")),
    *[(f"engine.{fn}.s", "s", "lower", _stat(f"engine.{fn}", "s"))
      for fn in ("assemble_features", "train_nec", "load_run", "save_run")],
    ("engine.predict.calls", "count", "lower", _stat("engine.predict", "calls")),
    ("engine.predict.s", "s", "lower", _stat("engine.predict", "s")),
    *[(f"evaluation.{fn}.s", "s", "lower", _stat(f"evaluation.{fn}", "s"))
      for fn in ("per_class_report", "wilcoxon_signed_rank",
                 "persistence_forecast")],
    *[(f"cli.{stage}.self_s", "s", "lower", _stat(f"cli.{stage}", "self_s"))
      for stage in CLI_STAGES],
    ("synth.generate.s", "s", "lower", _stat("synth.generate", "s")),
    ("trace.spans", "count", "lower", lambda t: len(t.spans)),
    ("trace.overhead_share", "ratio", "lower", lambda t: t.overhead_share()),
]


def layer_metrics(spans) -> dict:
    """{metric: (value, unit)} for every entry of LAYER_METRICS."""
    totals = _Totals(spans)
    return {name: (value(totals), unit) for name, unit, _, value in LAYER_METRICS}

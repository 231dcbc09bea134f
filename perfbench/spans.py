"""Span and count recorder for the benchmark's traced runs.

Wraps the public functions of each quantcal module from outside the
package. The modules import each other by name (`from .ckl import
total_loss`), so a wrapper has to replace every module attribute bound to
the original function, not only the one in the defining module; `install`
scans all loaded quantcal modules for such bindings and `uninstall` puts
the originals back.

Spans are kept in memory as (layer, parent id, start, end, invocation)
and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter


def _rows(value):
    return int(getattr(value, "value", value).shape[0])


# layer name -> (module, attribute names). Several attributes may share one
# layer: the MC and ensemble aggregators are the same mixture computation.
LAYERS = {
    "datasets.load_csv": ("quantcal.datasets", ("load_csv",)),
    "datasets.standardize": ("quantcal.datasets", ("standardize",)),
    "ndgrad.gradients": ("quantcal.ndgrad", ("gradients",)),
    "softsort.soft_sorted": ("quantcal.softsort", ("soft_sorted",)),
    "ckl.quantile_reg_loss": ("quantcal.ckl", ("quantile_reg_loss",)),
    "gaussian.gaussian_nll": ("quantcal.gaussian", ("gaussian_nll",)),
    "gaussian.pit": ("quantcal.gaussian", ("pit",)),
    "gaussian.aggregate": ("quantcal.gaussian", ("aggregate_mc", "aggregate_ensemble")),
    "models.mlp_forward": ("quantcal.models", ("mlp_forward",)),
    "models.fgsm_perturb": ("quantcal.models", ("fgsm_perturb",)),
    "models.adam_step": ("quantcal.models", ("adam_step",)),
    "models.train": ("quantcal.models", ("train",)),
    "models.mc_dropout_predict": ("quantcal.models", ("mc_dropout_predict",)),
    "models.save_params": ("quantcal.models", ("save_params",)),
    "models.load_params": ("quantcal.models", ("load_params",)),
    "recalib.pav": ("quantcal.recalib", ("pav",)),
    "recalib.fit_calibration_map": ("quantcal.recalib", ("fit_calibration_map",)),
    "recalib.apply_map": ("quantcal.recalib", ("apply_map",)),
    "metrics.calibration_error": ("quantcal.metrics", ("calibration_error",)),
}

# MetricsReport.evaluate is a classmethod, so it is wrapped on its class.
EVALUATE_LAYER = "metrics.evaluate"

# layer -> (count name, function of (args, result) giving the amount)
COUNTERS = {
    "ckl.quantile_reg_loss": ("ckl.penalty_pairs", lambda args, out: _rows(args[0]) ** 2),
    "models.mlp_forward": ("models.mlp_forward_rows", lambda args, out: _rows(args[1])),
    "recalib.pav": ("recalib.pav_points", lambda args, out: _rows(args[0])),
    "datasets.load_csv": ("datasets.load_csv_rows", lambda args, out: len(out)),
}

# the span the benchmark opens around each call of quantcal.cli.main
CLI_LAYER = "cli"


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.invocation = -1
        self._stack = []
        self._restore = []

    def _wrap(self, layer, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(layer)
        calls = layer + "_calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (layer, parent, start, end, self.invocation)
            counts[calls] += 1
            if counter is not None:
                counts[counter[0]] += counter[1](args, out)
            return out

        return traced

    def span(self, layer, fn, *args):
        """Call fn(*args) inside a span named `layer`."""
        return self._wrap(layer, fn)(*args)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "quantcal" or name.startswith("quantcal."))]
        for layer, (module_name, attrs) in LAYERS.items():
            home = sys.modules[module_name]
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._restore.append((module, key, original))
        report_cls = sys.modules["quantcal.metrics"].MetricsReport
        original = report_cls.__dict__["evaluate"]
        report_cls.evaluate = classmethod(self._wrap(EVALUATE_LAYER, original.__func__))
        self._restore.append((report_cls, "evaluate", original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self, invocations):
        """Layer -> summed self time (s) over the spans of `invocations`:
        each span's duration minus the durations of its direct children.
        Spans nest strictly (one thread), so children never overlap."""
        child_time = Counter()
        for layer, parent, start, end, inv in self.spans:
            if parent >= 0 and inv in invocations:
                child_time[parent] += end - start
        out = Counter()
        for sid, (layer, parent, start, end, inv) in enumerate(self.spans):
            if inv in invocations:
                out[layer] += (end - start) - child_time[sid]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (layer, parent, start, end, inv) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "start": start, "end": end, "invocation": inv}))
                fh.write("\n")

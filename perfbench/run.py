"""quantcal benchmark: CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload mc_penalized --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a quantcal checkout; the package is imported from its
`src/`. Each run sets up (imports plus input generation, repeated), runs one
untimed warm-up `train` through `quantcal.cli.main`, then timed cycles of
CLI verbs until `--seconds` would be exceeded. Every verb invocation is
checked: exit code 0, finite values in metrics.csv and recalib.csv, and
byte-identical outputs across the invocations of the run.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` the timed cycles alternate untraced and traced, and it carries
per-layer self times and exact counts from the traced cycles, plus the
tracing overhead (median traced minus median untraced verb time). A JSON
record with the machine, samples, digests and counts is printed before the
last line and written, with the spans of a traced run, under
.bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

from spans import CLI_LAYER, EVALUATE_LAYER, LAYERS, Tracer
from workloads import PROTEIN_FEATURES, PROTEIN_ROWS, WORKLOADS, write_protein_csv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 3
# glibc mallopt parameters and the values the benchmark pins them to
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's own upper limit for the dynamic threshold
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
MALLOC_PINNED = False  # set by main, recorded with the machine
MIN_TIMED_CYCLES = 2
MIN_TRACED_CYCLES = 4  # two untraced, two traced

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "recalibrate_s": "s",
    "train_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = {f"{layer}_s": layer for layer in [*LAYERS, EVALUATE_LAYER]}
LAYER_TIMES["cli.self_s"] = CLI_LAYER
EXACT_COUNTS = [
    "ckl.quantile_reg_loss_calls",
    "ckl.penalty_pairs",
    "softsort.soft_sorted_calls",
    "ndgrad.gradients_calls",
    "models.fgsm_perturb_calls",
    "models.mlp_forward_rows",
    "models.adam_step_calls",
    "datasets.load_csv_rows",
    "recalib.pav_points",
]
OVERHEAD = {"trace.overhead_train_s": "train", "trace.overhead_recalibrate_s": "recalibrate"}
PER_LAYER = {**{name: "s" for name in LAYER_TIMES}, **{name: "count" for name in EXACT_COUNTS},
             **{name: "s" for name in OVERHEAD}}

# columns that must parse as finite numbers, per checked CSV
FINITE_FIELDS = {
    "metrics.csv": ("lam", "split", "n_train", "n_test", "calib_error", "rmse", "nll"),
    "recalib.csv": ("lam", "split", "pre_calib_error", "post_calib_error"),
}
# files each verb must leave behind, all compared byte for byte across the run
VERB_OUTPUTS = {
    "train": ("metrics.csv", "summary.csv"),
    "recalibrate": ("recalib.csv",),
    "report": ("summary.csv", "report.txt"),
}


def import_cli():
    """quantcal.cli from this checkout's src/, never from an installed copy."""
    package = SRC / "quantcal"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run the benchmark from a quantcal checkout")
    sys.path.insert(0, str(SRC))
    import quantcal.cli

    if Path(quantcal.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported quantcal from {quantcal.cli.__file__}, not {package}")
    return quantcal.cli


def pin_malloc_thresholds():
    """Fix glibc malloc's mmap and trim thresholds for this process.

    glibc raises both thresholds as a process frees large blocks, so where
    a verb's arrays come from depends on the process's allocation history.
    In some processes the arrays of a short verb are mapped and unmapped on
    every call, each time paying page faults to zero fresh pages; in others
    they are reused from the heap. That made whole runs of the same code
    differ by 30%. Pinning the thresholds at the value the dynamic one
    would reach gives every run the same allocator behaviour. Returns
    whether the thresholds were set (False off glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.split()[-1].lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "malloc_thresholds_pinned": MALLOC_PINNED,
    }


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _csv_problems(path):
    fields = FINITE_FIELDS.get(path.name)
    if fields is None:
        return []
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return [f"{path.name} has no rows"]
    for i, row in enumerate(rows):
        for field in fields:
            try:
                ok = math.isfinite(float(row[field]))
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                return [f"{path.name} row {i} {field}={row.get(field)!r} is not a finite number"]
    return []


class Runner:
    """Runs one workload's verb cycles in this process and checks them."""

    def __init__(self, cli, workload, seed, work):
        self.cli = cli
        self.workload = workload
        self.data_dir = work / "data"
        self.config_path = work / "config.json"
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.digests = {}  # (verb, file) -> sha256 of the first invocation's output
        self.data_dir.mkdir(parents=True)
        config = dict(workload.config, seed=seed, data_dir=str(self.data_dir))
        self.config_path.write_text(json.dumps(config, indent=2))

    def _invoke(self, verb, out_dir, traced):
        argv = [verb, "--config", str(self.config_path), "--out", str(out_dir)]
        self.tracer.invocation += 1
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if traced:
                    rc = self.tracer.span(CLI_LAYER, self.cli.main, argv)
                else:
                    rc = self.cli.main(argv)
        except Exception:  # any escape from main is a failed invocation
            traceback.print_exc()
            rc = None
        return rc, perf_counter() - start

    def verb(self, verb, out_dir, traced=False):
        """Run and check one invocation; its wall time, or None if it failed."""
        rc, seconds = self._invoke(verb, out_dir, traced)
        self.attempted += 1
        problems = [] if rc == 0 else [f"exit code {rc}"]
        for name in VERB_OUTPUTS[verb] if rc == 0 else ():
            path = out_dir / name
            if not path.is_file():
                problems.append(f"{name} missing")
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if self.digests.setdefault((verb, name), digest) != digest:
                problems.append(f"{name} differs from the first {verb}")
            problems += _csv_problems(path)
        if problems:
            self.failed += 1
            print(f"error: {self.workload.name} {verb}: {'; '.join(problems)}", file=sys.stderr)
            return None
        return seconds

    def cycle(self, out_dir, traced=False):
        """train, recalibrate x R, report. Returns (train_s, [recalibrate_s]) or
        None at the first failed invocation."""
        if traced:
            self.tracer.counts.clear()
            self.tracer.install()
        try:
            train_s = self.verb("train", out_dir, traced)
            if train_s is None:
                return None
            recal = []
            for _ in range(self.workload.recalibrations):
                seconds = self.verb("recalibrate", out_dir, traced)
                if seconds is None:
                    return None
                recal.append(seconds)
            if self.verb("report", out_dir, traced) is None:
                return None
            return train_s, recal
        finally:
            if traced:
                self.tracer.uninstall()

    def rows_trained(self, metrics_csv):
        """rows x epochs x members, summed over the (lambda, split) rows."""
        with open(metrics_csv, newline="") as fh:
            n_train = sum(int(r["n_train"]) for r in csv.DictReader(fh))
        return n_train * self.workload.config["epochs"] * self.workload.members()


def measure_setup(workload, seed, data_dir, repeats):
    """`repeats` set-up times, each a fresh interpreter importing
    quantcal.cli plus generating the workload's input files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import quantcal.cli"], env=env, check=True,
                       timeout=120)
        if workload.needs_protein_csv:
            write_protein_csv(data_dir / "protein.csv", seed)
        times.append(perf_counter() - start)
    return times


def run_workload(cli, workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    """One benchmark run in this process. Returns (result line, record)."""
    work = BUILD / "work" / f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli, workload, seed, work)
    try:
        setup = measure_setup(workload, seed, runner.data_dir, setup_repeats)
        # the first train in a process is the slowest by far; later verbs are not
        ok = runner.verb("train", work / "warmup") is not None
        rows_trained = runner.rows_trained(work / "warmup" / "metrics.csv") if ok else None
        shutil.rmtree(work / "warmup", ignore_errors=True)
        train, recal, traced_cycles = {False: [], True: []}, {False: [], True: []}, []
        counts_repeat = True
        min_cycles = MIN_TRACED_CYCLES if trace else MIN_TIMED_CYCLES
        deadline = perf_counter() + seconds
        i = 0
        while ok:
            traced = bool(trace) and i % 2 == 1
            first_inv = runner.tracer.invocation + 1
            start = perf_counter()
            result = runner.cycle(work / f"cycle{i}", traced)
            elapsed = perf_counter() - start
            shutil.rmtree(work / f"cycle{i}", ignore_errors=True)
            i += 1
            if result is None:
                ok = False
                break
            train[traced].append(result[0])
            recal[traced].extend(result[1])
            if traced:
                invocations = set(range(first_inv, runner.tracer.invocation + 1))
                layer_s = runner.tracer.self_times(invocations)
                counts = {name: runner.tracer.counts[name] for name in EXACT_COUNTS}
                if traced_cycles and counts != traced_cycles[0][1]:
                    counts_repeat = False
                    print(f"error: counts differ between traced cycles: {counts} vs "
                          f"{traced_cycles[0][1]}", file=sys.stderr)
                traced_cycles.append((layer_s, counts))
            if i >= min_cycles and perf_counter() + elapsed > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            BUILD.joinpath("results").mkdir(parents=True, exist_ok=True)
            runner.tracer.write(BUILD / "results" / f"{workload.name}-seed{seed}-spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    if trace and traced_cycles:
        for name, layer in LAYER_TIMES.items():
            metrics[name] = statistics.median(c[0][layer] for c in traced_cycles)
        metrics.update(traced_cycles[0][1])
        for name, verb in OVERHEAD.items():
            samples = train if verb == "train" else recal
            if samples[False] and samples[True]:
                metrics[name] = statistics.median(samples[True]) - statistics.median(samples[False])
    elif not trace and train[False]:
        metrics["setup_s"] = statistics.median(setup)
        metrics["train_s"] = statistics.median(train[False])
        metrics["recalibrate_s"] = statistics.median(recal[False])
        metrics["train_rows_per_s"] = rows_trained / metrics["train_s"]
        metrics["peak_rss_mb"] = peak_rss_mb
    units = PER_LAYER if trace else END_TO_END
    correct = ok and counts_repeat and runner.failed == 0 and set(metrics) == set(units)
    line = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "machine": machine_info(),
        "ops_failed_frac": runner.failed / max(runner.attempted, 1),
        "samples": {
            "setup_s": _stats(setup),
            **({"train_s": _stats(train[False]), "recalibrate_s": _stats(recal[False])}
               if train[False] else {}),
            **({"traced_train_s": _stats(train[True]), "traced_recalibrate_s": _stats(recal[True])}
               if train[True] else {}),
        },
        "rows_trained_per_train": rows_trained,
        "digests": {f"{verb}:{name}": d for (verb, name), d in sorted(runner.digests.items())},
        "counts": traced_cycles[0][1] if traced_cycles else None,
        "counts_repeat": counts_repeat,
    }
    return line, record


def smoke(cli):
    """Every workload at a tiny size, untraced and traced: every metric is
    present with its unit, and the layers a workload bypasses stay at zero."""
    from quantcal.datasets import load_from_descriptor

    failures = []
    for workload in WORKLOADS.values():
        tiny = dataclasses.replace(workload, config={**workload.config, **workload.smoke})
        for trace in (0, 1):
            line, record = run_workload(cli, tiny, seed=0, seconds=0, trace=trace, setup_repeats=1)
            tag = f"{workload.name} trace={trace}"
            units = PER_LAYER if trace else END_TO_END
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                failures.append(f"{tag}: not correct: {json.dumps(record)}")
            for name, unit in units.items():
                got = line["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    failures.append(f"{tag}: metric {name} missing or not in {unit}")
            if not trace:
                continue
            metrics = {k: v["value"] for k, v in line["metrics"].items()}
            expect_zero = []
            if workload.name != "mc_penalized":
                expect_zero += [k for k in metrics if k.startswith(("ckl.", "softsort."))]
            if workload.name != "ensemble_fgsm":
                expect_zero += ["models.fgsm_perturb_calls", "models.fgsm_perturb_s"]
            nonzero = [k for k in expect_zero if metrics.get(k) != 0]
            if nonzero:
                failures.append(f"{tag}: predicted zero but got {nonzero}")
        print(f"smoke {workload.name}: done, {len(failures)} failure(s) so far")
    data_dir = BUILD / "work" / f"smoke-protein-{os.getpid()}"
    data_dir.mkdir(parents=True, exist_ok=True)
    try:
        write_protein_csv(data_dir / "protein.csv", seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds = load_from_descriptor("protein", data_dir)
        if caught or (len(ds), ds.n_features) != (PROTEIN_ROWS, PROTEIN_FEATURES):
            failures.append(f"protein CSV: shape {(len(ds), ds.n_features)}, warnings "
                            f"{[str(w.message) for w in caught]}")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metric set")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    global MALLOC_PINNED
    MALLOC_PINNED = pin_malloc_thresholds()
    cli = import_cli()
    if args.smoke:
        return smoke(cli)
    line, record = run_workload(cli, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    BUILD.joinpath("results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BUILD / "results" / name).write_text(json.dumps({"result": line, "record": record}, indent=2))
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

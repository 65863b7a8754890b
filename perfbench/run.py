"""egowarp benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload c5-128 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last stdout line is a JSON object carrying the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics from a traced
run, and the spans are written to ``perfbench/out/``. Every operation's
output is checked; ``failed`` counts the operations whose check failed.
``--workload all`` runs every workload in this one process, one after the
other, and prints one result line per workload before a combined line.

The process is single-threaded: BLAS and OpenMP pools are pinned to one
thread before numpy is imported. Operations run in a closed loop, each one
starting when the previous one returns (checks run in between, untimed),
until the next one would take the time spent in operations past
``--seconds``. At least two operations run untraced, and at least one
untraced/traced pair with ``--trace 1``. In the untraced run a fixed
reference kernel (``calib.py``) is timed every half second throughout, and
the gated ``op_rel`` is the median over operations of each one's time over
the reference time measured while it ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# Untimed runs make at least this many operations, so that one slow phase
# of a shared machine does not decide a run's median alone.
MIN_OPS = 2
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import egowarp, egowarp.cli; print(time.perf_counter() - t)"
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The gated end-to-end metrics, reported by every workload.
END_TO_END = {"setup_s": "s", "op_rel": "ref", "peak_rss_mb": "MB"}


def _die(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_egowarp():
    if not (SRC / "egowarp" / "__init__.py").is_file():
        _die(f"no egowarp package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import egowarp

    if Path(egowarp.__file__).resolve().parent != (SRC / "egowarp").resolve():
        _die(f"imported egowarp from {egowarp.__file__}, not from {SRC}")
    return egowarp


def _timed_import() -> float:
    """Seconds a fresh interpreter takes to import the package."""
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(res.stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if len(values) * (1.0 - q) >= 10:
            best = (label, sorted(values)[int(q * len(values))])
    return best


def _metadata() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    import numpy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "egowarp").glob("*.py"))
    )
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": commit, "src_egowarp_lines": src_lines,
    }


class Run:
    """One workload at one seed: set-up, closed loop, checks."""

    def __init__(self, egowarp, workload, seed: int, seconds: float, trace: bool):
        self.egowarp = egowarp
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.failures: list[str] = []
        self.failed_ops = 0
        self.values: list[dict] = []

    def _setup(self, workdir: Path) -> tuple[object, float]:
        reps = []
        state = None
        for _ in range(SETUP_REPEATS):
            imp = _timed_import()
            t0 = time.perf_counter()
            state = self.wl.setup(self.seed, workdir)
            reps.append(imp + time.perf_counter() - t0)
        return state, statistics.median(reps)

    def _check(self, state, inp, out, i: int) -> None:
        failures, values = self.wl.check(state, inp, out, i)
        self.values.append(values)
        if failures:
            self.failed_ops += 1
            self.failures.extend(f"op {i}: {f}" for f in failures)

    def _loop(self, step, min_ops: int = 1) -> int:
        """Call step(i), which returns the seconds it spent in operations,
        until the next call would take the total past the budget."""
        spent = 0.0
        i = 0
        while True:
            spent += step(i)
            i += 1
            if i >= min_ops and spent + spent / i > self.seconds:
                return i

    def end_to_end(self, workdir: Path) -> dict:
        state, setup_s = self._setup(workdir)
        spans: list[tuple[float, float]] = []
        phases: dict[str, list[float]] = {}

        def step(i: int) -> None:
            inp = self.wl.inputs(state, i)
            t0 = time.perf_counter()
            out, ph = self.wl.op(state, inp)
            spans.append((t0, time.perf_counter()))
            for k, v in ph.items():
                phases.setdefault(k, []).append(v)
            self._check(state, inp, out, i)
            return spans[-1][1] - t0

        with calib.Sampler() as sampler:
            n = self._loop(step, MIN_OPS)
        op_s = [end - start - sampler.paused(start, end) for start, end in spans]
        op_rel = [sampler.relative(start, end) for start, end in spans]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The median over operations of each one's time relative to the
        # reference kernel timed through it: the ratio cancels the machine's
        # drift, and the median drops the odd operation whose line searches
        # backtrack twice as often.
        values = {"setup_s": setup_s, "op_rel": statistics.median(op_rel),
                  "peak_rss_mb": peak_rss_mb}
        gated = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        named = {
            "op_s": {"value": statistics.fmean(op_s), "unit": "s"},
            "ref_s": {"value": statistics.median(t[2] for t in sampler.ticks), "unit": "s"},
        }
        for name, vals in phases.items():
            named[name] = {"value": statistics.median(vals), "unit": "s"}
        if "grad_eval_s" in phases:
            named["grad_eval_per_s"] = {
                "value": 1.0 / statistics.median(phases["grad_eval_s"]), "unit": "1/s"}
            named["warp_eval_per_s"] = {
                "value": 1.0 / statistics.median(phases["warp_eval_s"]), "unit": "1/s"}
        iters = [v["align_iters"] for v in self.values if "align_iters" in v]
        if iters:
            named["align_iters"] = {"value": statistics.median(iters), "unit": "count"}
        named["fail_frac"] = {"value": self.failed_ops / n, "unit": "frac"}
        named["op_s.p50"] = {"value": statistics.median(op_s), "unit": "s"}
        tail = _tail(op_s)
        if tail:
            named[f"op_s.{tail[0]}"] = {"value": tail[1], "unit": "s"}
        named["op_s.samples"] = {"value": n, "unit": "count"}
        return {"attempted": n, "metrics": gated, "named": named, "op_times": op_s,
                "op_rel": op_rel}

    def per_layer(self, workdir: Path) -> dict:
        tracer = Tracer(self.egowarp)
        with tracer:
            state, _ = self._setup(workdir)
        untraced: list[float] = []
        traced: list[float] = []

        def step(i: int) -> None:
            inp = self.wl.inputs(state, i)
            t0 = time.perf_counter()
            self.wl.op(state, inp)
            untraced.append(time.perf_counter() - t0)
            tracer.op = i
            with tracer:
                t0 = time.perf_counter()
                out, _ = self.wl.op(state, inp)
                traced.append(time.perf_counter() - t0)
            tracer.op = -1
            self._check(state, inp, out, i)
            return untraced[-1] + traced[-1]

        n = self._loop(step)
        metrics, absent = layer_metrics(tracer.spans, set(tracer.functions), n, self.values)
        overhead = [t - u for t, u in zip(traced, untraced)]
        metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
        spans_file = OUT / f"{self.wl.name}-seed{self.seed}.spans.jsonl"
        with open(spans_file, "w", encoding="ascii") as fh:
            for row in tracer.spans:
                fh.write(json.dumps(row, default=str) + "\n")
        named = {
            "untraced_op_s": {"value": statistics.median(untraced), "unit": "s"},
            "traced_op_s": {"value": statistics.median(traced), "unit": "s"},
            "spans": {"value": len(tracer.spans), "unit": "count"},
        }
        return {"attempted": n, "metrics": metrics, "named": named, "absent": absent,
                "spans_file": str(spans_file.relative_to(ROOT))}

    def execute(self) -> dict:
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{self.wl.name}-", dir=OUT))
        try:
            res = self.per_layer(workdir) if self.trace else self.end_to_end(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        res["failed"] = self.failed_ops
        res["failures"] = self.failures
        res["op_values"] = self.values
        res["correct"] = self.failed_ops == 0
        return res


def _print_result(name: str, res: dict) -> None:
    for key in ("metrics", "named"):
        for metric, m in res[key].items():
            print(f"{name}  {metric:<34} {m['value']:>14.6g} {m['unit']}")
    if res.get("absent"):
        print(f"{name}  absent layers: {', '.join(res['absent'])}")
    for f in res["failures"]:
        print(f"{name}  FAILED {f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _die("--seconds must be positive")

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    egowarp = _import_egowarp()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = _metadata()
    results = {}
    for name in names:
        res = Run(egowarp, WORKLOADS[name], args.seed, args.seconds, bool(args.trace)).execute()
        results[name] = res
        _print_result(name, res)
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "meta": meta, **res}
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=float) + "\n")
        if len(names) > 1:
            print(json.dumps(_summary({name: res})))
    print(json.dumps(_summary(results)))
    return 0


def _summary(results: dict) -> dict:
    """The result line: one workload's metrics, or all of them prefixed."""
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())

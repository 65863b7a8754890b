"""In-memory span tracing of egowarp's public functions, and the per-layer
metrics derived from the spans.

A Tracer replaces every public function of every egowarp module, in every
egowarp namespace that binds it, with a wrapper that records a span: name,
start, end, parent span and operation id. Callers look functions up through
their own module's globals (``egowarp.align.loss_gradients``,
``egowarp.losses.inverse_warp``, ...), so patching each binding is what makes
calls across modules visible. The layers are the modules of ``src/egowarp``.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

# Private functions traced in addition to the public ones, for counts the
# public surface cannot give: align._backtrack returns None when a line
# search is rejected, which gives the accepted-step ratio.
EXTRA_PRIVATE = ("align._backtrack",)

ALIGN_ROOTS = ("align.align_pose", "align.align_pose_pair")
N_LEVELS = 3  # align.*.L0..L2; coarser levels fold into L2

# Span rows: [name, start, end, parent index, op id, note]
NAME, START, END, PARENT, OP, NOTE = range(6)


def _height(args, kwargs):
    return getattr(args[0], "height", None) if args else None


def _align_note(args, kwargs):
    # align_pose(target, source, depth, k, init, opts) and
    # align_pose_pair(target, source, dt, ds, k, init_f, init_b, opts).
    opts = kwargs.get("opts")
    if opts is None and args and len(args) in (6, 8):
        opts = args[-1]
    return {
        "size": _height(args, kwargs),
        "max_iters": getattr(opts, "max_iters", 100),
        "mode": getattr(opts, "mode", "pose_only"),
    }


def _first_arg(args, kwargs):
    """The subcommand of cli.main(argv) or the component of grad_check."""
    first = args[0] if args else None
    if isinstance(first, (list, tuple)):
        first = first[0] if first else None
    return first


# Per-function notes recorded on the span at call time (before the call).
CALL_NOTES = {
    "losses.loss_gradients": _height,
    "warp.inverse_warp": lambda a, kw: (a[0].height, a[0].width) if a else None,
    "align.align_pose": _align_note,
    "align.align_pose_pair": _align_note,
    "cli.main": _first_arg,
    "gradcheck.grad_check": _first_arg,
}
# Notes recorded from the result.
RESULT_NOTES = {"align._backtrack": lambda result: result is not None}


def discover(package) -> dict[str, tuple[object, list[tuple[object, str]]]]:
    """Map qualified name -> (function, [(namespace module, attribute)]).

    A function qualifies when it is defined in an egowarp module and is
    public, or listed in EXTRA_PRIVATE. Every module of the package,
    including the package root, is scanned for bindings.
    """
    prefix = package.__name__ + "."
    namespaces = [package] + [
        mod for name, mod in sorted(sys.modules.items())
        if name.startswith(prefix) and mod is not None
    ]
    found: dict[str, tuple[object, list]] = {}
    for ns in namespaces:
        for attr, obj in vars(ns).items():
            if not inspect.isfunction(obj):
                continue
            home = getattr(obj, "__module__", "") or ""
            if not home.startswith(prefix):
                continue
            qual = f"{home[len(prefix):]}.{obj.__name__}"
            if obj.__name__.startswith("_") and qual not in EXTRA_PRIVATE:
                continue
            found.setdefault(qual, (obj, []))[1].append((ns, attr))
    return found


class Tracer:
    """Patch egowarp's functions to record spans while active.

    Use as a context manager; the originals are restored on exit. ``op`` is
    the operation id stamped on new spans (-1 for set-up work).
    """

    def __init__(self, package):
        self.functions = discover(package)
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, qual: str, fn):
        spans, stack = self.spans, self._stack
        call_note = CALL_NOTES.get(qual)
        result_note = RESULT_NOTES.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [qual, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            if call_note is not None:
                row[NOTE] = call_note(args, kwargs)
            stack.append(len(spans))
            spans.append(row)
            row[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()
            if result_note is not None:
                row[NOTE] = result_note(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for qual, (fn, bindings) in self.functions.items():
            wrapper = self._wrap(qual, fn)
            for ns, attr in bindings:
                self._patched.append((ns, attr, getattr(ns, attr)))
                setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        self._stack.clear()


# ---------------------------------------------------------------- metrics


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric and the traced functions it is computed from.

    ``arg`` selects the spans of requires[0] whose note (the subcommand or
    gradcheck component) equals it.
    """

    name: str
    unit: str
    requires: tuple[str, ...] = field(default=())
    arg: str | None = None


def _calls(fn):
    return LayerMetric(f"{fn}.calls", "count", (fn,))


def _ms(fn, name=None, arg=None):
    return LayerMetric(name or f"{fn}.ms", "ms", (fn,), arg)


_ALIGN = ("losses.loss_gradients", "warp.inverse_warp") + ALIGN_ROOTS
_CLI = ("synth", "align", "gradcheck", "eval-depth", "eval-ate")
_GRADCHECK = ("reproject", "warp", "losses", "attention")

LAYER_METRICS: tuple[LayerMetric, ...] = (
    _calls("camera.reproject_grid"),
    _ms("camera.reproject_grid"),
    _calls("camera.reproject_jacobian_grid"),
    _ms("camera.reproject_jacobian_grid"),
    _calls("warp.inverse_warp"),
    _ms("warp.inverse_warp"),
    _calls("warp.warp_jacobians"),
    _ms("warp.warp_jacobians"),
    _calls("warp.sample_grid"),
    _ms("warp.sample_grid"),
    _calls("warp.sample_grad_grid"),
    _ms("warp.sample_grad_grid"),
    LayerMetric("warp.mpix_per_s", "Mpix/s", ("warp.inverse_warp",)),
    _calls("losses.loss_gradients"),
    _ms("losses.loss_gradients"),
    _ms("losses.smoothness"),
    *(LayerMetric(f"align.grad_evals.L{i}", "count", _ALIGN) for i in range(N_LEVELS)),
    *(LayerMetric(f"align.loss_evals.L{i}", "count", _ALIGN) for i in range(N_LEVELS)),
    LayerMetric("align.accept_ratio", "ratio", _ALIGN + ("align._backtrack",)),
    LayerMetric("align.maxiter_levels", "count", _ALIGN),
    *(LayerMetric(name, unit) for name, unit in (
        ("align.pose.rot_err_deg", "deg"), ("align.pose.trans_err_rel", "ratio"),
        ("align.pair.rot_err_deg", "deg"), ("align.pair.trans_err_rel", "ratio"),
        ("align.pair.bf_term", "loss"), ("align.depth.abs_rel", "ratio"),
        ("align.final_loss", "loss"),
    )),
    _calls("se3.exp_so3"),
    _calls("se3.bf_consistency_grad"),
    _ms("pyramid.image_pyramid"),
    _calls("pyramid.upsample2x"),
    _ms("pyramid.upsample2x"),
    _ms("synthetic.render_pair"),
    _ms("fileio.read_image"),
    _ms("fileio.write_image"),
    _ms("fileio.read_depth"),
    _ms("fileio.write_depth"),
    *(_ms("cli.main", f"cli.main.{c.replace('-', '_')}.ms", c) for c in _CLI),
    *(_ms("gradcheck.grad_check", f"gradcheck.{c}.ms", c) for c in _GRADCHECK),
    _ms("metrics.depth_metrics"),
    _ms("metrics.ate_snippet"),
    _calls("attention.ag_forward"),
    _calls("attention.ag_backward"),
)

# Entry points whose work is all in traced callees: their .ms is the median
# inclusive time per call, so that it reads as the cost of the command,
# component or render. Every other .ms is the median self time.
INCLUSIVE = ("cli.main", "gradcheck.grad_check", "synthetic.render_pair")


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span not covered by its direct children."""
    out = [row[END] - row[START] for row in spans]
    for row in spans:
        if row[PARENT] >= 0:
            out[row[PARENT]] -= row[END] - row[START]
    return out


def _root(spans, i):
    """Index of the outermost align entry point enclosing span i, or -1."""
    found = -1
    while i >= 0:
        if spans[i][NAME] in ALIGN_ROOTS:
            found = i
        i = spans[i][PARENT]
    return found


def _inside(spans, i, name):
    i = spans[i][PARENT]
    while i >= 0:
        if spans[i][NAME] == name:
            return True
        i = spans[i][PARENT]
    return False


def _level(root_size, size) -> int:
    lvl = int(round(math.log2(root_size / size))) if root_size and size else 0
    return min(max(lvl, 0), N_LEVELS - 1)


def align_counts(spans: list[list]) -> dict[str, float]:
    """Per-level gradient and loss evaluations of aligner entry points.

    A gradient eval is a loss_gradients call inside an aligner; a loss eval
    is an inverse_warp call inside an aligner but outside loss_gradients
    (the line-search and level-start warps). The level is log2 of the
    aligner's input height over the call's input height, so L0 is the
    finest. A level hits max_iters when its gradient evals equal max_iters
    times the evals per iteration (two in pair and pose_and_depth modes).
    """
    grad = [0] * N_LEVELS
    loss = [0] * N_LEVELS
    per_root: dict[int, list[int]] = {}
    accepted = 0
    for i, row in enumerate(spans):
        name = row[NAME]
        if row[OP] < 0:
            continue
        if name == "align._backtrack":
            accepted += bool(row[NOTE])
            continue
        if name not in ("losses.loss_gradients", "warp.inverse_warp"):
            continue
        r = _root(spans, i)
        if r < 0:
            continue
        root_note = spans[r][NOTE] or {}
        if name == "losses.loss_gradients":
            lvl = _level(root_note.get("size"), row[NOTE])
            grad[lvl] += 1
            per_root.setdefault(r, [0] * N_LEVELS)[lvl] += 1
        elif not _inside(spans, i, "losses.loss_gradients"):
            loss[_level(root_note.get("size"), row[NOTE] and row[NOTE][0])] += 1
    maxiter_levels = 0
    for r, counts in per_root.items():
        note = spans[r][NOTE] or {}
        per_iter = 2 if spans[r][NAME] == "align.align_pose_pair" or note.get(
            "mode") == "pose_and_depth" else 1
        cap = note.get("max_iters", 0) * per_iter
        maxiter_levels += sum(1 for c in counts if cap and c >= cap)
    out = {f"align.grad_evals.L{i}": float(grad[i]) for i in range(N_LEVELS)}
    out.update({f"align.loss_evals.L{i}": float(loss[i]) for i in range(N_LEVELS)})
    total_loss = sum(loss)
    out["align.accept_ratio"] = accepted / total_loss if total_loss else 0.0
    out["align.maxiter_levels"] = float(maxiter_levels)
    return out


def layer_metrics(
    spans: list[list], present: set[str], n_ops: int, outputs: list[dict]
) -> tuple[dict[str, dict], list[str]]:
    """Per-layer metrics from spans of ``n_ops`` traced operations.

    Counts are per operation (spans with op >= 0 over n_ops); times are
    medians in ms over every span, set-up included. accept_ratio is over
    all operations together. Metrics without a
    function (solver accuracy and loss) are medians of the same-named
    values in ``outputs``, one dict per operation. A metric whose function
    is not in ``present`` is reported as absent: value 0, name listed. A
    metric the workload does not exercise reads 0.
    """
    selfs = self_times(spans)
    n_ops = max(n_ops, 1)
    by_name: dict[str, list[int]] = {}
    for i, row in enumerate(spans):
        by_name.setdefault(row[NAME], []).append(i)
    counts = align_counts(spans)
    out: dict[str, dict] = {}
    absent: list[str] = []
    for m in LAYER_METRICS:
        if not all(req in present for req in m.requires):
            absent.append(m.name)
            out[m.name] = {"value": 0.0, "unit": m.unit}
            continue
        if not m.requires:
            vals = [o[m.name] for o in outputs if m.name in o]
            out[m.name] = {"value": float(statistics.median(vals)) if vals else 0.0,
                           "unit": m.unit}
            continue
        fn = m.requires[0]
        idx = by_name.get(fn, [])
        if m.arg is not None:
            idx = [i for i in idx if spans[i][NOTE] == m.arg]
        if m.name in counts:
            value = counts[m.name] / (n_ops if m.unit == "count" else 1)
        elif m.name.endswith(".calls"):
            value = sum(1 for i in idx if spans[i][OP] >= 0) / n_ops
        elif m.name == "warp.mpix_per_s":
            idx = [i for i in idx if spans[i][NOTE]]
            pix = sum(spans[i][NOTE][0] * spans[i][NOTE][1] for i in idx)
            busy = sum(spans[i][END] - spans[i][START] for i in idx)
            value = pix / busy / 1e6 if busy > 0 else 0.0
        else:
            durs = [
                spans[i][END] - spans[i][START] if fn in INCLUSIVE else selfs[i]
                for i in idx
            ]
            value = statistics.median(durs) * 1e3 if durs else 0.0
        out[m.name] = {"value": value, "unit": m.unit}
    return out, absent

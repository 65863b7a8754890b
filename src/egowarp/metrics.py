"""Depth-prediction error metrics and snippet-based absolute trajectory error.

Depth metrics follow the standard seven-number protocol (Abs Rel, Sq Rel,
RMSE, RMSE log, delta < 1.25^k) restricted to ground-truth pixels inside the
depth caps. ATE is evaluated on sliding snippets re-expressed relative to
each snippet's first frame, with a least-squares scale fit per snippet.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .exceptions import (
    AssociationError,
    DegenerateInputError,
    DegenerateSnippetError,
    _check_count,
)
from .se3 import SE3Transform, compose, inverse
from .warp import DepthMap, _check_same_size

DEFAULT_MIN_DEPTH = 1e-3
DEFAULT_MAX_DEPTH = 80.0
DEFAULT_SNIPPET_LEN = 5


@dataclass(frozen=True)
class DepthMetrics:
    """Seven-number depth evaluation record."""

    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    d1: float
    d2: float
    d3: float

    def __post_init__(self) -> None:
        vals = [getattr(self, f.name) for f in fields(self)]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("metrics must be finite")
        if any(v < 0 for v in vals):
            raise ValueError("metrics must be non-negative")
        if not (self.d1 <= self.d2 <= self.d3 <= 1.0):
            raise ValueError("delta fractions must satisfy d1 <= d2 <= d3 <= 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Timestamped camera-to-world poses, timestamps strictly increasing."""

    timestamps: np.ndarray
    poses: tuple[SE3Transform, ...]

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise ValueError("timestamps must be a non-empty 1-d array")
        if not np.all(np.isfinite(ts)):
            raise ValueError("timestamps must be finite")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        poses = tuple(self.poses)
        if len(poses) != ts.size:
            raise ValueError(
                f"{ts.size} timestamps but {len(poses)} poses"
            )
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "poses", poses)

    def __len__(self) -> int:
        return len(self.poses)


@dataclass(frozen=True)
class AteResult:
    """Mean and standard deviation over all per-frame snippet errors."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mean) and np.isfinite(self.std)):
            raise ValueError("ATE statistics must be finite")
        if self.mean < 0 or self.std < 0:
            raise ValueError("ATE statistics must be non-negative")


def depth_metrics(
    pred: DepthMap,
    gt: DepthMap,
    min_depth: float = DEFAULT_MIN_DEPTH,
    max_depth: float = DEFAULT_MAX_DEPTH,
) -> DepthMetrics:
    """Compute the seven standard metrics over gt pixels inside the caps.

    Args:
        pred: predicted depth (already scale-aligned if desired).
        gt: ground-truth depth, same shape.
        min_depth: pixels with gt below this are excluded.
        max_depth: pixels with gt above this are excluded.

    Raises:
        DegenerateInputError: no gt pixel inside the caps.
    """
    _check_same_size(pred, gt, "pred", "gt")
    if not (0 < min_depth < max_depth):
        raise ValueError("caps must satisfy 0 < min_depth < max_depth")
    sel = (gt.data >= min_depth) & (gt.data <= max_depth)
    if not np.any(sel):
        raise DegenerateInputError("no ground-truth pixels inside the depth caps")
    d_hat = pred.data[sel]
    d = gt.data[sel]
    err = d_hat - d
    ratio = np.maximum(d_hat / d, d / d_hat)
    return DepthMetrics(
        abs_rel=float(np.mean(np.abs(err) / d)),
        sq_rel=float(np.mean(err * err / d)),
        rmse=float(np.sqrt(np.mean(err * err))),
        rmse_log=float(np.sqrt(np.mean((np.log(d_hat) - np.log(d)) ** 2))),
        d1=float(np.mean(ratio < 1.25)),
        d2=float(np.mean(ratio < 1.25**2)),
        d3=float(np.mean(ratio < 1.25**3)),
    )


def median_scale_align(pred: DepthMap, gt: DepthMap) -> DepthMap:
    """Scale pred by median(gt) / median(pred) over all pixels.

    Every DepthMap pixel is positive and finite, so both medians are too.
    """
    _check_same_size(pred, gt, "pred", "gt")
    med_pred = float(np.median(pred.data))
    med_gt = float(np.median(gt.data))
    return DepthMap(pred.data * (med_gt / med_pred))


def _associate(pred: Trajectory, gt: Trajectory) -> list[tuple[int, int]]:
    """Nearest-timestamp matching within 0.5 * the smallest frame interval."""
    tolerances = []
    for ts in (pred.timestamps, gt.timestamps):
        if ts.size > 1:
            tolerances.append(float(np.min(np.diff(ts))))
    if not tolerances:
        raise AssociationError("cannot associate single-frame trajectories")
    tol = 0.5 * min(tolerances)
    matches: list[tuple[int, int]] = []
    last_j = -1
    for i, t in enumerate(pred.timestamps):
        j = int(np.argmin(np.abs(gt.timestamps - t)))
        dt = abs(float(gt.timestamps[j] - t))
        if dt > tol:
            raise AssociationError(
                f"pred frame {i} (t={t:.6f}) has no gt frame within {tol:.6f}s"
            )
        if j <= last_j:
            raise AssociationError(
                f"pred frames {i - 1} and {i} both match gt frame {j}"
            )
        last_j = j
        matches.append((i, j))
    return matches


def _snippet_translations(
    poses: list[SE3Transform] | tuple[SE3Transform, ...]
) -> np.ndarray:
    """Translations of each pose re-expressed relative to the first frame."""
    base_inv = inverse(poses[0])
    return np.array([compose(base_inv, p).t for p in poses])


def ate_snippet(
    pred: Trajectory, gt: Trajectory, snippet_len: int = DEFAULT_SNIPPET_LEN
) -> AteResult:
    """Snippet ATE with per-snippet least-squares scale alignment.

    Every window of `snippet_len` consecutive associated frames (stride 1) is
    re-expressed relative to its first frame; the scale
    s* = sum <p_hat, p> / sum <p_hat, p_hat> minimizes the L2 error over the
    window's translations, and per-frame errors ||s* p_hat - p|| from all
    windows are pooled into mean and (population) std.

    Raises:
        AssociationError: timestamps cannot be matched within tolerance.
        DegenerateSnippetError: a window has zero predicted motion.
        ValueError: fewer associated frames than snippet_len.
    """
    _check_count(snippet_len, "snippet_len", 2)
    matches = _associate(pred, gt)
    if len(matches) < snippet_len:
        raise ValueError(
            f"{len(matches)} associated frames < snippet length {snippet_len}"
        )
    errors: list[float] = []
    for start in range(len(matches) - snippet_len + 1):
        window = matches[start : start + snippet_len]
        p_hat = _snippet_translations([pred.poses[i] for i, _ in window])
        p = _snippet_translations([gt.poses[j] for _, j in window])
        denom = float(np.sum(p_hat * p_hat))
        if denom == 0.0:
            raise DegenerateSnippetError(
                f"snippet starting at frame {window[0][0]} has zero predicted motion"
            )
        scale = float(np.sum(p_hat * p)) / denom
        errors.extend(np.linalg.norm(scale * p_hat - p, axis=1).tolist())
    err = np.array(errors)
    return AteResult(mean=float(np.mean(err)), std=float(np.std(err)))

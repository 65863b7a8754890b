"""Differentiable bilinear sampling and depth-based inverse warping.

Sampling convention: a continuous point p = (u, v) is valid iff it lies in
[0, w-1] x [0, h-1] (pixel centers at integer coordinates, up to a 1e-9
border epsilon so that identity reprojection never flags border pixels).
Out-of-bounds samples return 0 and are marked invalid (zero fill, never
clamped). Corner rule: a point reads the cell whose top-left corner is its
floor (floor binning), so on an integer grid line the gradient takes the
right/lower cell's linear piece; the last column and row use the cell
before them, and along an axis one pixel long the gradient is 0.

One gather serves every sampler: points are clipped into the image and
their four corners read by flat index from the source itself. Values and
(u, v) derivatives share those corners, and inverse_warp, warp_jacobians
and loss_gradients share one reprojection.
Derivatives leave it as the sampler gradient and the transformed points:
camera's _channel_rows chains each channel through them into the rows that
warp_jacobians masks and the solver's IRLS curvature is built from, and
loss_gradients' gradient contracts the channels first (reverse mode).

Points travel from the rays through the gather to the chain rule as a pair
of broadcastable arrays (u, v), and the gather returns d/du and d/dv apart,
all unfilled where invalid: the warp masks once, with in-front and
in-bounds together. The stacked (..., 2) form and the zero fills belong to
the public samplers, sample_grid and sample_grad_grid, alone. The warp's
rays K^-1 (u, v, 1) are separable: a row of x parts from the columns u and
a column of y parts from the rows v, w + h floats per call.

The kernels here and in camera and losses build their full-size temporaries
in place: out= and in-place ufuncs write into arrays the kernel allocated
itself. Each formula keeps its order of operations, so the results are the
plain expressions' bit for bit. A temporary is let go before the next large
allocation, since at 256 x 256 RGB a fresh page costs more than the
arithmetic done on it. A caller's input is never written, and every
returned array is freshly allocated and the caller's. Points and pose rows
are camera's (3, ...) and (6, ...) stacks of planes, and the channel axis,
last, is contracted with plane arithmetic, x[..., 0] + x[..., 1] + ...: a
numpy reduction runs several times slower on a short axis.

The five per-pixel types (ImageBuffer, DepthMap and ValidityMask here,
WeightMask in losses and FeatureMap in attention) share one checked base,
_PixelArray; each states only its own rules. float64 and bool data are
stored without a copy. The check is one pass: the data is converted once,
and for a float type one min and one max decide finiteness, the value range
and DepthMap's > 0 rule, since a NaN carries through both and an infinity
shows in one. The rules still run in their order: finite, range, then > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .camera import (CameraIntrinsics, _channel_rows, _masked_rows, _project_grid, _rays,
                     _stacked_points, _transform_grid)
from .exceptions import _holds_bool
from .se3 import SE3Transform

# Tolerance for the in-bounds test; absorbs reprojection round-off at borders.
BORDER_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class _PixelArray:
    """Checked per-pixel array, the base of the five public per-pixel types.

    `data` is stored as a _DTYPE array, not copied when it already is one,
    with the axes _AXES, at least one pixel, finite values, when _RANGE is
    set values in that closed range, and when _POSITIVE is set values > 0;
    for a float type, bool data (a bool array, or a bool at any depth of
    nested lists) is no number, and no type takes strings, bytes or complex
    numbers. A subclass's __post_init__ adds its own rules. Every rejection
    is a ValueError that names the type.
    """

    data: np.ndarray

    _AXES: ClassVar[str] = "hw"
    _DTYPE: ClassVar[type] = float
    _RANGE: ClassVar[tuple[float, float] | None] = None
    _POSITIVE: ClassVar[bool] = False

    def __post_init__(self) -> None:
        name = type(self).__name__
        if self._DTYPE is float and _holds_bool(self.data):
            raise ValueError(f"{name} values must be a number, got a bool array")
        data = np.asarray(self.data)
        if data.dtype.kind in "USc":
            raise ValueError(f"{name} values must be real, got a {data.dtype} array")
        data = data.astype(self._DTYPE, copy=False)
        if data.ndim != len(self._AXES) or data.size == 0:
            axes = ", ".join(self._AXES)
            raise ValueError(f"{name} must be a non-empty ({axes}) array, got {data.shape}")
        if self._DTYPE is float:  # bool data is finite and in [0, 1] anyway
            # NaN carries through both reductions and an infinity shows in
            # one, so the two extremes decide every value rule.
            lo = np.minimum.reduce(data, axis=None)
            hi = np.maximum.reduce(data, axis=None)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} values must be finite")
            if self._RANGE is not None:
                low, high = self._RANGE
                if lo < low or hi > high:
                    raise ValueError(f"{name} values must lie in [{low}, {high}]")
            if self._POSITIVE and lo <= 0.0:
                raise ValueError(f"{name} values must be > 0")
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class ImageBuffer(_PixelArray):
    """Dense image, shape (h, w, c), c in {1, 3}, values in [0, 1]."""

    _AXES = "hwc"
    _RANGE = (0.0, 1.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.channels not in (1, 3):
            raise ValueError(f"ImageBuffer must have 1 or 3 channels, got {self.channels}")

    @classmethod
    def grayscale(cls, plane: np.ndarray) -> "ImageBuffer":
        """Wrap an (h, w) array as a single-channel image."""
        return cls(np.asarray(plane)[..., None])

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class DepthMap(_PixelArray):
    """Per-pixel positive depth, shape (h, w)."""

    _POSITIVE = True


@dataclass(frozen=True, eq=False)
class ValidityMask(_PixelArray):
    """Boolean per-pixel validity, shape (h, w); 0/1 entries become bool."""

    _DTYPE = bool

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.dtype != np.bool_ and not np.all((data == 0) | (data == 1)):
            raise ValueError("ValidityMask entries must be 0/1")
        super().__post_init__()

    @classmethod
    def all_valid(cls, height: int, width: int) -> "ValidityMask":
        return cls(np.ones((height, width), dtype=bool))

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.data))


def _check_same_size(a: _PixelArray, b: _PixelArray, name_a: str, name_b: str) -> None:
    """Raise ValueError naming both arguments unless a and b have the same
    size and, when both are images, the same channel count."""
    if a.data.shape[:2] != b.data.shape[:2]:
        raise ValueError(
            f"{name_a} {a.height}x{a.width} and {name_b} {b.height}x{b.width} sizes differ"
        )
    if isinstance(a, ImageBuffer) and isinstance(b, ImageBuffer) and a.channels != b.channels:
        raise ValueError(
            f"{name_a} has {a.channels} channels and {name_b} {b.channels}; they must match")


def pixel_grid(height: int, width: int) -> np.ndarray:
    """(h, w, 2) array of (u, v) pixel-center coordinates."""
    v, u = np.mgrid[0:height, 0:width].astype(float)
    return np.stack([u, v], axis=-1)


def _bilinear(data: np.ndarray, u: np.ndarray, v: np.ndarray, grad: bool) -> tuple:
    """(values, in-bounds mask, (d_u, d_v) or None) from one corner gather.

    u and v are float arrays that broadcast to the points' shape; values,
    d_u and d_v have that shape plus the channel axis and are unfilled where
    the mask is False. Corner (u0, v0) is at flat index v0 * w + u0, with
    u0 in [0, w - 2] and v0 in [0, h - 2] (the module's corner rule); on an
    axis one pixel long the neighbour is the pixel itself.
    """
    h, w, c = data.shape
    valid = ((u >= -BORDER_EPS) & (u <= w - 1 + BORDER_EPS)
             & (v >= -BORDER_EPS) & (v <= h - 1 + BORDER_EPS))
    # out= keeps a 0-d point an array, so the in-place steps below apply.
    fu = np.maximum(u, 0.0, out=np.empty(np.shape(u)))
    fv = np.maximum(v, 0.0, out=np.empty(np.shape(v)))
    np.minimum(fu, float(w - 1), out=fu)
    np.minimum(fv, float(h - 1), out=fv)
    u0, v0 = np.minimum(np.floor(fu), max(w - 2, 0)), np.minimum(np.floor(fv), max(h - 2, 0))
    idx = v0.astype(np.intp) * w + u0.astype(np.intp)
    fu -= u0
    fv -= v0
    del u0, v0
    fu, fv = fu[..., None], fv[..., None]
    gu, gv = 1.0 - fu, 1.0 - fv
    du, dv = min(w - 1, 1), w * min(h - 1, 1)
    flat = data.reshape(-1, c)
    # The corners in the blend's order, at idx + 0, du, dv and du + dv. Every
    # index is in flat for finite coordinates, and mode="clip" skips numpy's
    # bounds check, which costs about as much as the gather. part is one
    # corner's weighted term; without derivatives the corners are read into it too.
    corners, vals, part = [], None, None
    for step, wu, wv in ((0, gu, gv), (du, fu, gv), (dv - du, gu, fv), (du, fu, fv)):
        idx += step
        corner = np.take(flat, idx, axis=0, mode="clip", out=None if grad else part)
        if grad:
            corners.append(corner)
        part = np.multiply(corner, wu, out=part if grad else corner)
        part *= wv
        if vals is None:
            vals, part = part, None
        else:
            vals += part
    if not grad:
        return vals, valid, None
    # d_u = (i10 - i00) gv + (i11 - i01) fv and d_v = (i01 - i00) gu + (i11 - i10) fu,
    # in the corners' buffers and the blend's scratch.
    i00, i10, i01, i11 = corners
    d_u = np.subtract(i10, i00, out=part)
    d_v = np.subtract(i01, i00, out=i00)
    np.subtract(i11, i01, out=i01)
    np.subtract(i11, i10, out=i11)
    d_u *= gv
    i01 *= fv
    d_u += i01
    d_v *= gu
    i11 *= fu
    d_v += i11
    return vals, valid, (d_u, d_v)


def sample_grid(img: ImageBuffer, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear-sample an image at many points.

    Args:
        img: source image.
        uv: (..., 2) sample coordinates.

    Returns:
        (values, valid): (..., c) interpolated values (0 where invalid) and
        the bool in-bounds mask.
    """
    uv = _stacked_points(uv)
    vals, valid, _ = _bilinear(img.data, uv[..., 0], uv[..., 1], grad=False)
    return np.where(valid[..., None], vals, 0.0), valid


def sample_grad_grid(img: ImageBuffer, uv: np.ndarray) -> np.ndarray:
    """d(sampled value)/d(u, v) at many points.

    Returns:
        (..., 2, c) array; row 0 is d/du, row 1 is d/dv. Out-of-bounds points
        get zeros (callers mask them anyway).
    """
    uv = _stacked_points(uv)
    _, valid, d_uv = _bilinear(img.data, uv[..., 0], uv[..., 1], grad=True)
    return np.where(valid[..., None, None], np.stack(d_uv, axis=-2), 0.0)


def _resample(arr: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Read an (h, w) or (h, w, c) array on the grid of columns u by rows v.

    _bilinear clips the coordinates to the array's extent, so a resize reads
    the border sample where its map points past it. Returns a
    (len(v), len(u)) or (len(v), len(u), c) array.
    """
    arr = np.asarray(arr, dtype=float)
    h, w = arr.shape[:2]
    vals = _bilinear(arr.reshape(h, w, -1), u[None, :], v[:, None], grad=False)[0]
    return vals.reshape((len(v), len(u)) + arr.shape[2:])


def _warp_eval(
    source: ImageBuffer, depth: DepthMap, pose: SE3Transform, k: CameraIntrinsics,
    jacobians: bool,
) -> tuple:
    """(recon, valid, grad, transformed) from one reprojection and one gather.

    grad is the pair (d_u, d_v) of (h, w, c) sampler gradients at the
    reprojected points, unfilled where valid is False, and transformed the
    _transform_grid result they were projected from; both are None unless
    asked for. valid = in front & in bounds is the warp's one mask.
    """
    _check_same_size(source, depth, "source", "depth")
    rays = _rays(np.arange(depth.width, dtype=float),
                 np.arange(depth.height, dtype=float)[:, None], k)
    transformed = _transform_grid(rays, depth.data, pose)
    u_src, v_src = _project_grid(transformed, k)
    in_front = transformed[2]
    if not jacobians:
        transformed = None
    vals, in_bounds, grad = _bilinear(source.data, u_src, v_src, jacobians)
    valid = in_front & in_bounds
    np.copyto(vals, 0.0, where=~valid[..., None])
    return np.clip(vals, 0.0, 1.0, out=vals), valid, grad, transformed


def inverse_warp(
    source: ImageBuffer, depth: DepthMap, pose: SE3Transform, k: CameraIntrinsics
) -> tuple[ImageBuffer, ValidityMask]:
    """Reconstruct the target view by sampling the source at reprojections.

    recon(p_t) = sample_grid(source, reproject_grid(p_t, depth(p_t), pose, k)[0]).

    Args:
        source: source view image.
        depth: target-view depth, same spatial size.
        pose: target-to-source transform.
        k: shared intrinsics.

    Returns:
        (recon, mask): reconstruction (clamped to [0, 1]; zero where invalid)
        and validity mask, False where the reprojection lands out of bounds
        or behind the camera.
    """
    recon, valid, _, _ = _warp_eval(source, depth, pose, k, jacobians=False)
    return ImageBuffer(recon), ValidityMask(valid)


def warp_jacobians(
    source: ImageBuffer, depth: DepthMap, pose: SE3Transform, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel derivatives of the reconstruction.

    Chain rule through the sampler: with g = d(sample)/d(u, v) at the
    reprojected point, d(recon)/d(depth) = g^T @ d(p_s)/d(depth) and
    d(recon)/d(pose) = g^T @ d(p_s)/d(pose).

    Returns:
        (d_depth, d_pose): shapes (h, w, c) and (h, w, c, 6). Rows of
        invalid pixels are zero. Values are one-sided on bilinear grid
        lines and undefined across validity flips; gradient checks exclude
        those pixels.
    """
    _, valid, grad, transformed = _warp_eval(source, depth, pose, k, jacobians=True)
    return _masked_rows(_channel_rows(grad, transformed, depth.data, k), valid)

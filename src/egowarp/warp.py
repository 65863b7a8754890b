"""Differentiable bilinear sampling and depth-based inverse warping.

Sampling convention: a continuous point p = (u, v) is valid iff it lies in
[0, w-1] x [0, h-1] (pixel centers at integer coordinates, up to a 1e-9
border epsilon so that identity reprojection never flags border pixels).
Out-of-bounds samples return 0 and are marked invalid (zero fill, never
clamped). On integer grid lines the gradient takes the right/lower cell's
linear piece (floor binning).

One gather serves every sampler: points are clipped into the image and
their four corners read by flat index from the source padded with a zero
bottom row and right column, so a corner past the edge reads 0 (where its
weight is 0 anyway). Values and (u, v) derivatives share those corners, and
inverse_warp, warp_jacobians and loss_gradients share one reprojection.
Derivatives leave it as the sampler gradient and the transformed points:
warp_jacobians chains each channel through d(u, v)/d(X'), and
loss_gradients contracts the channels first (reverse mode).

The warp's rays K^-1 (u, v, 1) of the pixel grid depend only on the image
size and the intrinsics, so they are built once and cached, read-only, on
the key (h, w, k) (CameraIntrinsics is frozen and compares by value). K^-1
is separable, so an entry is one row of x parts and one column of y parts,
h + w floats; the cache holds at most _RAY_CACHE_SIZE entries.

The six per-pixel types (ImageBuffer, DepthMap and ValidityMask here,
WeightMask in losses, FeatureMap and AttentionMap in attention) share one
checked base, _PixelArray; each states only its own rules. float64 and
bool data are stored without a copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .camera import (
    CameraIntrinsics,
    _pose_rows,
    _project_grid,
    _projection_vjp,
    _rays,
    _transform_grid,
)
from .se3 import SE3Transform

# Tolerance for the in-bounds test; absorbs reprojection round-off at borders.
BORDER_EPS = 1e-9
# Entries of the pixel-ray cache: a pyramid's few sizes under one or two
# intrinsics. An entry holds h + w floats.
_RAY_CACHE_SIZE = 8


@dataclass(frozen=True, eq=False)
class _PixelArray:
    """Checked per-pixel array, the base of the six public per-pixel types.

    `data` is stored as a _DTYPE array, not copied when it already is one,
    with the axes _AXES, at least one pixel, finite values and, when _RANGE
    is set, values in that closed range. A subclass's __post_init__ adds its
    own rules. Every rejection is a ValueError that names the type.
    """

    data: np.ndarray

    _AXES: ClassVar[str] = "hw"
    _DTYPE: ClassVar[type] = float
    _RANGE: ClassVar[tuple[float, float] | None] = None

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=self._DTYPE)
        name = type(self).__name__
        if data.ndim != len(self._AXES) or data.size == 0:
            axes = ", ".join(self._AXES)
            raise ValueError(f"{name} must be a non-empty ({axes}) array, got {data.shape}")
        if self._DTYPE is float:  # bool data is finite and in [0, 1] anyway
            if not np.all(np.isfinite(data)):
                raise ValueError(f"{name} values must be finite")
            if self._RANGE is not None:
                low, high = self._RANGE
                if data.min() < low or data.max() > high:
                    raise ValueError(f"{name} values must lie in [{low}, {high}]")
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

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.data.min() <= 0.0:
            raise ValueError("DepthMap values must be > 0")


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
        return int(self.data.sum())


def _check_same_size(a: _PixelArray, b: _PixelArray, name_a: str, name_b: str) -> None:
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(
            f"{name_a} {a.height}x{a.width} and {name_b} {b.height}x{b.width} sizes differ"
        )


def pixel_grid(height: int, width: int) -> np.ndarray:
    """(h, w, 2) array of (u, v) pixel-center coordinates."""
    v, u = np.mgrid[0:height, 0:width].astype(float)
    return np.stack([u, v], axis=-1)


@functools.lru_cache(maxsize=_RAY_CACHE_SIZE)
def _pixel_rays(height: int, width: int, k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """The rays K^-1 (u, v, 1) of pixel_grid(h, w) as read-only x parts,
    (1, w), and y parts, (h, 1): x depends on u only and y on v only."""
    ray_x = _rays(pixel_grid(1, width), k)[0]
    ray_y = _rays(pixel_grid(height, 1), k)[1]
    for part in (ray_x, ray_y):
        part.flags.writeable = False
    return ray_x, ray_y


def _bilinear(data: np.ndarray, uv: np.ndarray, grad: bool) -> tuple:
    """(values, in-bounds mask, d/d(u, v) or None) from one corner gather.

    Corner (u0, v0) of the zero-padded (h + 1) x (w + 1) grid is at flat
    index v0 * (w + 1) + u0.
    """
    uv = np.asarray(uv, dtype=float)
    h, w, c = data.shape
    u = uv[..., 0]
    v = uv[..., 1]
    valid = (u >= -BORDER_EPS) & (u <= w - 1 + BORDER_EPS)
    valid &= (v >= -BORDER_EPS) & (v <= h - 1 + BORDER_EPS)
    u, v = np.clip(u, 0.0, float(w - 1)), np.clip(v, 0.0, float(h - 1))
    u0, v0 = np.floor(u), np.floor(v)
    fu, fv = (u - u0)[..., None], (v - v0)[..., None]
    padded = np.zeros((h + 1, w + 1, c))
    padded[:h, :w] = data
    flat = padded.reshape(-1, c)
    # mode="clip" keeps NaN coordinates (invalid anyway) from raising.
    idx = v0.astype(np.intp) * (w + 1) + u0.astype(np.intp)
    i00, i10, i01, i11 = (
        np.take(flat, idx + off, axis=0, mode="clip") for off in (0, 1, w + 1, w + 2)
    )
    vals = (i00 * (1.0 - fu) * (1.0 - fv) + i10 * fu * (1.0 - fv)
            + i01 * (1.0 - fu) * fv + i11 * fu * fv)
    vals = np.where(valid[..., None], vals, 0.0)
    if not grad:
        return vals, valid, None
    d_u = (i10 - i00) * (1.0 - fv) + (i11 - i01) * fv
    d_v = (i01 - i00) * (1.0 - fu) + (i11 - i10) * fu
    d_uv = np.stack([d_u, d_v], axis=-2)
    return vals, valid, np.where(valid[..., None, None], d_uv, 0.0)


def sample_grid(img: ImageBuffer, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear-sample an image at many points.

    Args:
        img: source image.
        uv: (..., 2) sample coordinates.

    Returns:
        (values, valid): (..., c) interpolated values (0 where invalid) and
        the bool in-bounds mask.
    """
    return _bilinear(img.data, uv, grad=False)[:2]


def sample_grad_grid(img: ImageBuffer, uv: np.ndarray) -> np.ndarray:
    """d(sampled value)/d(u, v) at many points.

    Returns:
        (..., 2, c) array; row 0 is d/du, row 1 is d/dv. Out-of-bounds points
        get zeros (callers mask them anyway).
    """
    return _bilinear(img.data, uv, grad=True)[2]


def _resample(arr: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Read an (h, w) or (h, w, c) array on the grid of columns u by rows v.

    Coordinates are clipped to the array's extent first, so a resize reads
    the border sample where its map points past it and never zero-fills.
    Returns a (len(v), len(u)) or (len(v), len(u), c) array.
    """
    if len(u) < 1 or len(v) < 1:
        raise ValueError("output size must be positive")
    arr = np.asarray(arr, dtype=float)
    h, w = arr.shape[:2]
    u, v = np.clip(u, 0.0, w - 1.0), np.clip(v, 0.0, h - 1.0)
    uv = np.stack(np.meshgrid(u, v), axis=-1)
    vals = _bilinear(arr.reshape(h, w, -1), uv, grad=False)[0]
    return vals.reshape(uv.shape[:2] + arr.shape[2:])


def _warp_eval(
    source: ImageBuffer, depth: DepthMap, pose: SE3Transform, k: CameraIntrinsics,
    jacobians: bool,
) -> tuple:
    """(recon, valid, grad, transformed) from one reprojection and one gather.

    grad is the (h, w, 2, c) sampler gradient d(sample)/d(u, v) at the
    reprojected points (zero out of bounds) and transformed the
    _transform_grid result they were projected from; both are None unless
    asked for.
    """
    _check_same_size(source, depth, "source", "depth")
    transformed = _transform_grid(_pixel_rays(depth.height, depth.width, k), depth.data, pose)
    uv_src = _project_grid(transformed, k)
    in_front = transformed[2]
    if not jacobians:
        # Dropped before the gather so that its buffers can reuse this
        # memory; kept alive, it made 256x256 RGB inverse_warp ~10 % slower.
        transformed = None
    vals, in_bounds, grad = _bilinear(source.data, uv_src, jacobians)
    valid = in_front & in_bounds
    recon = np.clip(np.where(valid[..., None], vals, 0.0), 0.0, 1.0)
    return recon, valid, grad, transformed


def _channel_vjp(
    grad: np.ndarray, transformed: tuple, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """(a, R X): (h, w, c, 3) a_c = g_c^T J_pi and (h, w, 1, 3) R X.

    Each channel's sampler gradient g_c is chained through J_pi; then
    d(recon_c)/d(depth) = a_c . R X / depth and the pose row is
    (R X x a_c, a_c).
    """
    rx, x_src, _, z_safe = transformed
    a = _projection_vjp(
        x_src[..., None, :], z_safe[..., None], k, grad[..., 0, :], grad[..., 1, :]
    )
    return a, rx[..., None, :]


def _channel_jacobians(
    grad: np.ndarray, transformed: tuple, depth: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Unmasked (h, w, c) d(recon)/d(depth) and (h, w, c, 6) d(recon)/d(pose)."""
    a, rx = _channel_vjp(grad, transformed, k)
    return np.sum(a * rx, axis=-1) / depth[..., None], _pose_rows(a, rx)


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
    d_depth, d_pose = _channel_jacobians(grad, transformed, depth.data, k)
    return (
        np.where(valid[..., None], d_depth, 0.0),
        np.where(valid[..., None, None], d_pose, 0.0),
    )

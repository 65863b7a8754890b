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
_channel_rows chains each channel through them into the rows that
warp_jacobians masks and the solver's IRLS curvature is built from, and
loss_gradients' gradient contracts the channels first (reverse mode).

Points travel from the rays through the gather to the chain rule as a pair
of broadcastable arrays (u, v), and the gather returns d/du and d/dv apart,
all unfilled where invalid: the warp masks once, with in-front and
in-bounds together. The stacked (..., 2) form and the zero fills belong to
the public samplers, sample_grid and sample_grad_grid, alone. The warp's
rays K^-1 (u, v, 1) are separable: a row of x parts from the columns u and
a column of y parts from the rows v, w + h floats per call.

The six per-pixel types (ImageBuffer, DepthMap and ValidityMask here,
WeightMask in losses, FeatureMap and AttentionMap in attention) share one
checked base, _PixelArray; each states only its own rules. float64 and
bool data are stored without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .camera import (
    CameraIntrinsics,
    _depth_rows,
    _pose_rows,
    _project_grid,
    _projection_vjp,
    _rays,
    _transform_grid,
)
from .se3 import SE3Transform

# Tolerance for the in-bounds test; absorbs reprojection round-off at borders.
BORDER_EPS = 1e-9


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


def _bilinear(data: np.ndarray, u: np.ndarray, v: np.ndarray, grad: bool) -> tuple:
    """(values, in-bounds mask, (d_u, d_v) or None) from one corner gather.

    u and v are float arrays that broadcast to the points' shape; values,
    d_u and d_v have that shape plus the channel axis and are unfilled where
    the mask is False. Corner (u0, v0) of the zero-padded (h + 1) x (w + 1)
    grid is at flat index v0 * (w + 1) + u0.
    """
    h, w, c = data.shape
    valid = ((u >= -BORDER_EPS) & (u <= w - 1 + BORDER_EPS)
             & (v >= -BORDER_EPS) & (v <= h - 1 + BORDER_EPS))
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
    if not grad:
        return vals, valid, None
    d_u = (i10 - i00) * (1.0 - fv) + (i11 - i01) * fv
    d_v = (i01 - i00) * (1.0 - fu) + (i11 - i10) * fu
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
    uv = np.asarray(uv, dtype=float)
    vals, valid, _ = _bilinear(img.data, uv[..., 0], uv[..., 1], grad=False)
    return np.where(valid[..., None], vals, 0.0), valid


def sample_grad_grid(img: ImageBuffer, uv: np.ndarray) -> np.ndarray:
    """d(sampled value)/d(u, v) at many points.

    Returns:
        (..., 2, c) array; row 0 is d/du, row 1 is d/dv. Out-of-bounds points
        get zeros (callers mask them anyway).
    """
    uv = np.asarray(uv, dtype=float)
    _, valid, d_uv = _bilinear(img.data, uv[..., 0], uv[..., 1], grad=True)
    return np.where(valid[..., None, None], np.stack(d_uv, axis=-2), 0.0)


def _resample(arr: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Read an (h, w) or (h, w, c) array on the grid of columns u by rows v.

    Coordinates are clipped to the array's extent first, so a resize reads
    the border sample where its map points past it and every point is in
    bounds. Returns a (len(v), len(u)) or (len(v), len(u), c) array.
    """
    if len(u) < 1 or len(v) < 1:
        raise ValueError("output size must be positive")
    arr = np.asarray(arr, dtype=float)
    h, w = arr.shape[:2]
    u, v = np.clip(u, 0.0, w - 1.0), np.clip(v, 0.0, h - 1.0)
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
        # Dropped before the gather so that its buffers can reuse this
        # memory; kept alive, it made 256x256 RGB inverse_warp ~10 % slower.
        transformed = None
    vals, in_bounds, grad = _bilinear(source.data, u_src, v_src, jacobians)
    valid = in_front & in_bounds
    recon = np.clip(np.where(valid[..., None], vals, 0.0), 0.0, 1.0)
    return recon, valid, grad, transformed


def _channel_rows(
    grad: tuple, transformed: tuple, depth: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Unmasked (h, w, c) d(recon)/d(depth) and (h, w, c, 6) d(recon)/d(pose).

    Each channel's sampler gradient g_c = (d_u, d_v)_c is chained through
    J_pi to a_c = g_c^T J_pi, whose depth and pose rows camera builds.
    """
    rx, x_src, _, z_safe = transformed
    a = _projection_vjp(x_src[..., None, :], z_safe[..., None], k, *grad)
    rx = rx[..., None, :]
    return _depth_rows(a, rx, depth[..., None]), _pose_rows(a, rx)


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
    d_depth, d_pose = _channel_rows(grad, transformed, depth.data, k)
    return (
        np.where(valid[..., None], d_depth, 0.0),
        np.where(valid[..., None, None], d_pose, 0.0),
    )

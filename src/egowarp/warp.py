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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import (
    CameraIntrinsics,
    _pose_rows,
    _project_grid,
    _projection_vjp,
    _transform_grid,
)
from .se3 import SE3Transform

# Tolerance for the in-bounds test; absorbs reprojection round-off at borders.
BORDER_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class ImageBuffer:
    """Dense image, shape (h, w, c), c in {1, 3}, values in [0, 1]."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 3 or data.shape[2] not in (1, 3):
            raise ValueError(
                f"image data must be (h, w, c) with c in {{1, 3}}, got {data.shape}"
            )
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("image must have at least one pixel")
        if not np.all(np.isfinite(data)):
            raise ValueError("image values must be finite")
        if data.min() < 0.0 or data.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        object.__setattr__(self, "data", data)

    @classmethod
    def grayscale(cls, plane: np.ndarray) -> "ImageBuffer":
        """Wrap an (h, w) array as a single-channel image."""
        plane = np.asarray(plane, dtype=float)
        if plane.ndim != 2:
            raise ValueError(f"expected (h, w) array, got {plane.shape}")
        return cls(plane[:, :, None])

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class DepthMap:
    """Per-pixel positive depth, shape (h, w)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"depth data must be (h, w), got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("depth values must be finite")
        if data.min() <= 0.0:
            raise ValueError("depth values must be > 0")
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class ValidityMask:
    """Boolean per-pixel validity, shape (h, w)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError(f"mask data must be (h, w), got {data.shape}")
        if data.dtype != np.bool_:
            if not np.all((data == 0) | (data == 1)):
                raise ValueError("validity mask entries must be 0/1")
            data = data.astype(bool)
        object.__setattr__(self, "data", data)

    @classmethod
    def all_valid(cls, height: int, width: int) -> "ValidityMask":
        return cls(np.ones((height, width), dtype=bool))

    @property
    def count(self) -> int:
        return int(self.data.sum())


def pixel_grid(height: int, width: int) -> np.ndarray:
    """(h, w, 2) array of (u, v) pixel-center coordinates."""
    v, u = np.mgrid[0:height, 0:width].astype(float)
    return np.stack([u, v], axis=-1)


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
    if (source.height, source.width) != (depth.height, depth.width):
        raise ValueError(
            f"source {source.height}x{source.width} and depth "
            f"{depth.height}x{depth.width} sizes differ"
        )
    transformed = _transform_grid(pixel_grid(depth.height, depth.width), depth.data, pose, k)
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


def _channel_jacobians(
    grad: np.ndarray, transformed: tuple, depth: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Unmasked (h, w, c) d(recon)/d(depth) and (h, w, c, 6) d(recon)/d(pose).

    Each channel's sampler gradient g_c is chained through J_pi to
    a_c = g_c^T J_pi, then d/d(depth) = a_c . R X / depth and the pose row is
    (R X x a_c, a_c).
    """
    rx, x_src, _, z_safe = transformed
    a = _projection_vjp(
        x_src[..., None, :], z_safe[..., None], k, grad[..., 0, :], grad[..., 1, :]
    )
    rx = rx[..., None, :]
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

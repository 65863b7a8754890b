"""Pinhole reprojection of pixel grids, and its Jacobians.

Pixel convention: p = (u, v) with u = column, v = row, origin at the center
of the top-left pixel. The camera looks down +z; a point reprojects only
where its camera-frame z' > Z_EPSILON. Elsewhere it is flagged invalid and
the public functions zero-fill its pixel and Jacobian rows, so whole images
go through in one call. They take any leading shape: an (h, w, 2) grid with
(h, w) depths, or one (2,) pixel with a 0-d depth.

This is the package's one reprojection. Inside the package a pixel is the
pair of broadcastable arrays (u, v), never a stacked (..., 2) array, and a
point a (3, ...) stack of x, y and z planes, never (..., 3): _rays gives
the rays K^-1 (u, v, 1), _transform_grid scales them by depth and moves the
points, _project_grid projects them back to a (u, v) pair, and
_projection_vjp holds the one projection Jacobian J_pi = d(u, v)/d(X').
reproject_grid, reproject_jacobian_grid, the warp (which passes a row of u
and a column of v, w + h floats) and loss_gradients are built from them.

The package's only row formulas chain an upstream (3, ...) a = d(.)/d(X')
on from there: _depth_rows (...), _pose_rows (6, ...), their sum over all
points, _pose_sum (6,), and _channel_rows, the (..., c) and (6, ..., c)
rows of pixel gradients (g_u, g_v) chained through J_pi, which
reproject_jacobian_grid, warp_jacobians and the curvature all use;
_masked_rows moves the pose axis last for the first two.

The pose Jacobian uses the same 6-parameter convention everywhere in this
package: columns 0..2 are a left-multiplicative rotation perturbation
(R <- exp(delta^) @ R), columns 3..5 additive translation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import _check_finite
from .se3 import SE3Transform

# Points with camera-frame z at or below this are treated as behind the camera.
Z_EPSILON = 1e-6


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics (square-pixel model with independent fx, fy)."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        _check_finite((self.fx, self.fy, self.cx, self.cy), "intrinsics")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


def _rays(u, v, k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """The x and y parts of the rays K^-1 (u, v, 1) of pixels (u, v).

    u and v are floats or float arrays that broadcast against each other; x
    depends on u only and y on v only, so each part keeps its argument's
    shape. Nothing is filled: validity is decided after the transform.
    """
    return (u - k.cx) / k.fx, (v - k.cy) / k.fy


def _transform_grid(
    rays: tuple[np.ndarray, np.ndarray], depth: np.ndarray, t: SE3Transform
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(R X, X' = R X + t, valid, z_safe) for X = depth * K^-1 (u, v, 1).

    rays holds the x and y parts of K^-1 (u, v, 1) (z is 1); each must
    broadcast to depth's shape. R X and X' are (3, ...) stacks of planes.
    valid is z' > 1e-6; z_safe is z' with invalid entries replaced by 1.
    """
    depth = np.asarray(depth, dtype=float)
    r = t.r.m.reshape((3, 3) + (1,) * depth.ndim)
    # R X = depth * R (x, y, 1): each rotated ray's component is a term in x
    # (u alone) plus one in y (v alone), so from the warp's row and column
    # of rays it costs 3 (w + h) floats and one broadcast add.
    rx = r[:, 0] * rays[0] + r[:, 2] + r[:, 1] * rays[1]
    rx *= depth
    x_src = rx + t.t.reshape(r.shape[1:])
    valid = x_src[2] > Z_EPSILON
    return rx, x_src, valid, np.where(valid, x_src[2], 1.0)


def _project_grid(transformed: tuple, k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) pixels of a _transform_grid result, unfilled where invalid.

    Invalid entries are X' projected at z_safe = 1: finite, but no pixel.
    """
    _, x_src, _, z_safe = transformed
    u, v = k.fx * x_src[0], k.fy * x_src[1]
    u /= z_safe
    u += k.cx
    v /= z_safe
    v += k.cy
    return u, v


def _projection_vjp(
    x_src: np.ndarray, z_safe: np.ndarray, k: CameraIntrinsics, g_u, g_v
) -> np.ndarray:
    """(g_u, g_v) @ J_pi as a (3, ...) stack, J_pi = d(u, v)/d(X').

    J_pi = [[fx / z, 0, -fx x / z^2], [0, fy / z, -fy y / z^2]]. x_src
    (3, ...) and z_safe (...) broadcast against g_u and g_v; g = (1, 0) and
    (0, 1) give J_pi's rows.
    """
    shape = np.broadcast_shapes(np.shape(g_u), np.shape(g_v), z_safe.shape, x_src.shape[1:])
    a = np.empty((3,) + shape)
    a_u, a_v, a_z = a
    np.multiply(k.fx, g_u, out=a_u)
    a_u /= z_safe
    np.multiply(k.fy, g_v, out=a_v)
    a_v /= z_safe
    np.multiply(a_u, x_src[0], out=a_z)
    a_z += a_v * x_src[1]
    np.negative(a_z, out=a_z)
    a_z /= z_safe
    return a


def _depth_rows(a: np.ndarray, rx: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """a @ dX'/d(depth) = a . R X / depth for (3, ...) a = dL/dX', shape (...)."""
    rows = a[0] * rx[0]
    rows += a[1] * rx[1]
    rows += a[2] * rx[2]
    rows /= depth
    return rows


def _pose_rows(a: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """a @ [-hat(R X) | I] for (3, ...) a = dL/dX': (R X x a, a), (6, ...)."""
    rows = np.empty((6,) + np.broadcast_shapes(a.shape, rx.shape)[1:])
    for i in range(3):  # (R X x a)_i = rx_j a_k - rx_k a_j, (i, j, k) cyclic
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(rx[j], a[k], out=rows[i])
        rows[i] -= rx[k] * a[j]
    rows[3:] = a
    return rows


def _pose_sum(a: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """sum_p _pose_rows(a, rx), (6,), with sum_p R X x a = sum_i e_i x m[i]
    = (m12 - m21, m20 - m02, m01 - m10) for the 3x3 m = sum_p R X a^T: the
    rows themselves are never built."""
    a = a.reshape(3, -1)
    m = rx.reshape(3, -1) @ a.T
    return np.array([m[1, 2] - m[2, 1], m[2, 0] - m[0, 2], m[0, 1] - m[1, 0],
                     *(a @ np.ones(a.shape[1]))])


def _channel_rows(
    grad: tuple, transformed: tuple, depth: np.ndarray | None, k: CameraIntrinsics
) -> tuple[np.ndarray | None, np.ndarray]:
    """Unmasked (..., c) depth and (6, ..., c) pose rows of the (..., c) pixel
    gradients grad = (g_u, g_v) at the points of the _transform_grid result
    transformed: each g_c is chained to a_c = g_c^T J_pi, then to its rows.
    With depth None only the pose rows are built, and None stands in for
    the depth rows."""
    rx, x_src, _, z_safe = transformed
    a = _projection_vjp(x_src[..., None], z_safe[..., None], k, *grad)
    rx = rx[..., None]
    d_rows = None if depth is None else _depth_rows(a, rx, depth[..., None])
    return d_rows, _pose_rows(a, rx)


def _masked_rows(rows: tuple, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_channel_rows' depth and pose rows as the public (..., c) and C-ordered
    (..., c, 6) arrays, zero where the (...) mask valid is False."""
    for part in rows:
        np.copyto(part, 0.0, where=~valid[..., None])
    return rows[0], np.moveaxis(rows[1], 0, -1).copy()


def _stacked_points(uv, depth=None):
    """The stacked views' points: uv as a float (..., 2) array, or (uv, depth)
    when depth is given. Raise ValueError naming uv unless its last axis is
    2 and it is finite, or depth unless it is finite, > 0 and of uv's shape
    without that axis."""
    uv = _check_finite(uv, "uv")
    if uv.shape[-1:] != (2,):
        raise ValueError(f"uv must have a last axis of length 2, got shape {uv.shape}")
    if depth is None:
        return uv
    depth = _check_finite(depth, "depth")
    if depth.shape != uv.shape[:-1]:
        raise ValueError(f"depth must have shape {uv.shape[:-1]} for uv of shape {uv.shape}, "
                         f"got {depth.shape}")
    if np.any(depth <= 0.0):
        raise ValueError("depth must be > 0")
    return uv, depth


def reproject_grid(
    uv: np.ndarray, depth: np.ndarray, t: SE3Transform, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map target pixels with known depth into the source view.

    Args:
        uv: (..., 2) pixel coordinates.
        depth: (...,) positive depths.
        t: target-to-source transform.
        k: shared intrinsics.

    Returns:
        (uv_src, z_src, valid): source coordinates (..., 2), source-frame
        depth (...,), and a bool mask, False where z_src <= 1e-6 (those
        uv_src rows are zero-filled).
    """
    uv, depth = _stacked_points(uv, depth)
    transformed = _transform_grid(_rays(uv[..., 0], uv[..., 1], k), depth, t)
    _, x_src, valid, _ = transformed
    uv_src = np.stack(_project_grid(transformed, k), axis=-1)
    return np.where(valid[..., None], uv_src, 0.0), x_src[2], valid


def reproject_jacobian_grid(
    uv: np.ndarray, depth: np.ndarray, t: SE3Transform, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic derivatives of the reprojected pixels.

    With X = depth * K^-1 (u, v, 1), X' = R X + t and J_pi = d(u, v)/d(X'):

      d(uv_src)/d(depth) = J_pi @ (R X / depth)
      d(uv_src)/d(delta_rot) = J_pi @ (-hat(R X))     (left perturbation)
      d(uv_src)/d(t) = J_pi

    These are the _channel_rows of the unit pixel gradients (1, 0) and
    (0, 1), which warp_jacobians and the curvature also run through, so a
    check of this kernel checks theirs.

    Returns:
        (d_depth, d_pose, valid): shapes (..., 2), (..., 2, 6), (...,).
        Rows for invalid (behind-camera) pixels are zero.
    """
    uv, depth = _stacked_points(uv, depth)
    transformed = _transform_grid(_rays(uv[..., 0], uv[..., 1], k), depth, t)
    valid = transformed[2]
    return *_masked_rows(_channel_rows(np.eye(2), transformed, depth, k), valid), valid

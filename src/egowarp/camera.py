"""Pinhole reprojection of pixel grids, and its Jacobians.

Pixel convention: p = (u, v) with u = column, v = row, origin at the center
of the top-left pixel. The camera looks down +z; a point reprojects only
where its camera-frame z' > Z_EPSILON. Elsewhere it is flagged invalid and
the public functions zero-fill its pixel and Jacobian rows, so whole images
go through in one call. They take any leading shape: an (h, w, 2) grid with
(h, w) depths, or one (2,) pixel with a 0-d depth.

This is the package's one reprojection. Inside the package a pixel is the
pair of broadcastable arrays (u, v), never a stacked (..., 2) array: _rays
gives the rays K^-1 (u, v, 1), _transform_grid scales them by depth and
moves the points, _project_grid projects them back to a (u, v) pair, and
_projection_vjp holds the one projection Jacobian J_pi = d(u, v)/d(X').
reproject_grid, reproject_jacobian_grid, the warp (which passes a row of u
and a column of v, w + h floats) and loss_gradients are built from them.

The package's only row formulas chain an upstream a = d(.)/d(X') on from
there: _depth_rows, _pose_rows and their sum over all points, _pose_sum.

The pose Jacobian uses the same 6-parameter convention everywhere in this
package: columns 0..2 are a left-multiplicative rotation perturbation
(R <- exp(delta^) @ R), columns 3..5 additive translation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        vals = (self.fx, self.fy, self.cx, self.cy)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("intrinsics must be finite")
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
    broadcast to depth's shape. valid is z' > 1e-6; z_safe is z' with
    invalid entries replaced by 1.
    """
    depth = np.asarray(depth, dtype=float)
    ray_x, ray_y = rays
    # On a C-ordered copy of R^T the stacked matmul runs ~3x faster at
    # 128 x 128 than on the transposed view, with identical results. X is
    # left unnamed so that it is freed before x_src is allocated.
    r_t = np.ascontiguousarray(t.r.m.T)
    rx = np.stack([depth * ray_x, depth * ray_y, depth], axis=-1) @ r_t
    x_src = rx + t.t
    valid = x_src[..., 2] > Z_EPSILON
    return rx, x_src, valid, np.where(valid, x_src[..., 2], 1.0)


def _project_grid(transformed: tuple, k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) pixels of a _transform_grid result, unfilled where invalid.

    Invalid entries are X' projected at z_safe = 1: finite, but no pixel.
    """
    _, x_src, _, z_safe = transformed
    return k.fx * x_src[..., 0] / z_safe + k.cx, k.fy * x_src[..., 1] / z_safe + k.cy


def _projection_vjp(
    x_src: np.ndarray, z_safe: np.ndarray, k: CameraIntrinsics, g_u, g_v
) -> np.ndarray:
    """(g_u, g_v) @ J_pi as a (..., 3) stack, J_pi = d(u, v)/d(X').

    J_pi = [[fx / z, 0, -fx x / z^2], [0, fy / z, -fy y / z^2]]. x_src
    (..., 3) and z_safe (...) broadcast against g_u and g_v; g = (1, 0) and
    (0, 1) give J_pi's rows.
    """
    a_u = k.fx * g_u / z_safe
    a_v = k.fy * g_v / z_safe
    a_z = -(a_u * x_src[..., 0] + a_v * x_src[..., 1]) / z_safe
    return np.stack(np.broadcast_arrays(a_u, a_v, a_z), axis=-1)


def _depth_rows(a: np.ndarray, rx: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """a @ dX'/d(depth) = a . R X / depth for (..., 3) a = dL/dX', shape (...)."""
    return np.einsum("...j,...j->...", a, rx) / depth


def _pose_rows(a: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """a @ [-hat(R X) | I] for (..., 3) a = dL/dX': (R X x a, a), (..., 6).

    The cross product is spelled out: np.cross is slower on these shapes.
    """
    rows = np.empty(np.broadcast_shapes(a.shape, rx.shape)[:-1] + (6,))
    rows[..., 0] = rx[..., 1] * a[..., 2] - rx[..., 2] * a[..., 1]
    rows[..., 1] = rx[..., 2] * a[..., 0] - rx[..., 0] * a[..., 2]
    rows[..., 2] = rx[..., 0] * a[..., 1] - rx[..., 1] * a[..., 0]
    rows[..., 3:] = a
    return rows


def _pose_sum(a: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """sum_p _pose_rows(a, rx), (6,), with sum_p R X x a = sum_i e_i x m[i]
    for the 3x3 m = sum_p R X a^T: the rows themselves are never built."""
    a = a.reshape(-1, 3)
    m = rx.reshape(-1, 3).T @ a
    return np.concatenate([np.cross(np.eye(3), m).sum(axis=0), a.sum(axis=0)])


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
    uv = np.asarray(uv, dtype=float)
    transformed = _transform_grid(_rays(uv[..., 0], uv[..., 1], k), depth, t)
    _, x_src, valid, _ = transformed
    uv_src = np.stack(_project_grid(transformed, k), axis=-1)
    return np.where(valid[..., None], uv_src, 0.0), x_src[..., 2], valid


def reproject_jacobian_grid(
    uv: np.ndarray, depth: np.ndarray, t: SE3Transform, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic derivatives of the reprojected pixels.

    With X = depth * K^-1 (u, v, 1), X' = R X + t and J_pi = d(u, v)/d(X'):

      d(uv_src)/d(depth) = J_pi @ (R X / depth)
      d(uv_src)/d(delta_rot) = J_pi @ (-hat(R X))     (left perturbation)
      d(uv_src)/d(t) = J_pi

    J_pi and its depth and pose rows come from the helpers warp_jacobians and
    loss_gradients chain through, so a check of this kernel checks theirs.

    Returns:
        (d_depth, d_pose, valid): shapes (..., 2), (..., 2, 6), (...,).
        Rows for invalid (behind-camera) pixels are zero.
    """
    uv, depth = np.asarray(uv, dtype=float), np.asarray(depth, dtype=float)
    rx, x_src, valid, z_safe = _transform_grid(_rays(uv[..., 0], uv[..., 1], k), depth, t)
    j_pi = np.stack(
        [_projection_vjp(x_src, z_safe, k, 1.0, 0.0),
         _projection_vjp(x_src, z_safe, k, 0.0, 1.0)], axis=-2
    )
    d_depth = _depth_rows(j_pi, rx[..., None, :], depth[..., None])
    d_pose = _pose_rows(j_pi, rx[..., None, :])
    d_depth = np.where(valid[..., None], d_depth, 0.0)
    d_pose = np.where(valid[..., None, None], d_pose, 0.0)
    return d_depth, d_pose, valid

"""Pinhole reprojection of pixel grids, and its Jacobians.

Pixel convention: p = (u, v) with u = column, v = row, origin at the center
of the top-left pixel. The camera looks down +z; a point reprojects only
where its camera-frame z' > Z_EPSILON. Elsewhere it is flagged invalid and
its pixel and Jacobian rows are zero-filled, so whole images go through in
one call. Every function takes any leading shape: an (h, w, 2) grid with
(h, w) depths, or one (2,) pixel with a 0-d depth.

This is the package's one reprojection. _transform_grid backprojects and
moves the points, _project_grid projects them, and _projection_vjp holds the
one projection Jacobian J_pi = d(u, v)/d(X'). reproject_grid,
reproject_jacobian_grid, the warp and loss_gradients are built from them.

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


def _transform_grid(
    uv: np.ndarray, depth: np.ndarray, t: SE3Transform, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(R X, X' = R X + t, valid, z_safe) for X = depth * K^-1 (u, v, 1).

    valid is z' > 1e-6; z_safe is z' with invalid entries replaced by 1.
    """
    uv = np.asarray(uv, dtype=float)
    depth = np.asarray(depth, dtype=float)
    ray = [(uv[..., 0] - k.cx) / k.fx, (uv[..., 1] - k.cy) / k.fy, np.ones_like(depth)]
    rx = (depth[..., None] * np.stack(ray, axis=-1)) @ t.r.m.T
    x_src = rx + t.t
    valid = x_src[..., 2] > Z_EPSILON
    return rx, x_src, valid, np.where(valid, x_src[..., 2], 1.0)


def _project_grid(transformed: tuple, k: CameraIntrinsics) -> np.ndarray:
    """(..., 2) pixels of a _transform_grid result, zero-filled where invalid."""
    _, x_src, valid, z_safe = transformed
    u = k.fx * x_src[..., 0] / z_safe + k.cx
    v = k.fy * x_src[..., 1] / z_safe + k.cy
    return np.where(valid[..., None], np.stack([u, v], axis=-1), 0.0)


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
    transformed = _transform_grid(uv, depth, t, k)
    _, x_src, valid, _ = transformed
    return _project_grid(transformed, k), x_src[..., 2], valid


def reproject_jacobian_grid(
    uv: np.ndarray, depth: np.ndarray, t: SE3Transform, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic derivatives of the reprojected pixels.

    With X = depth * K^-1 (u, v, 1), X' = R X + t and J_pi = d(u, v)/d(X'):

      d(uv_src)/d(depth) = J_pi @ (R X / depth)
      d(uv_src)/d(delta_rot) = J_pi @ (-hat(R X))     (left perturbation)
      d(uv_src)/d(t) = J_pi

    J_pi and the pose rows come from the helpers that warp_jacobians and
    loss_gradients chain through, so a check of this kernel checks theirs.

    Returns:
        (d_depth, d_pose, valid): shapes (..., 2), (..., 2, 6), (...,).
        Rows for invalid (behind-camera) pixels are zero.
    """
    depth = np.asarray(depth, dtype=float)
    rx, x_src, valid, z_safe = _transform_grid(uv, depth, t, k)
    j_pi = np.stack(
        [_projection_vjp(x_src, z_safe, k, 1.0, 0.0),
         _projection_vjp(x_src, z_safe, k, 0.0, 1.0)], axis=-2
    )
    d_depth = np.einsum("...ij,...j->...i", j_pi, rx / depth[..., None])
    d_pose = _pose_rows(j_pi, rx[..., None, :])
    d_depth = np.where(valid[..., None], d_depth, 0.0)
    d_pose = np.where(valid[..., None, None], d_pose, 0.0)
    return d_depth, d_pose, valid

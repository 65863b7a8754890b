"""Pinhole reprojection tests.

The package reprojects in one place, the grid code in egowarp.camera. It is
checked here against hand-written per-point formulas kept in this file as
the oracle (_backproject, _project, _reproject, _reproject_jacobian): hand
cases, a homogeneous-matrix oracle, python loops over the oracle, and
central finite differences computed in-test. Single points go through the
grid functions as a (2,) pixel with a 0-d depth.
"""

from __future__ import annotations

import numpy as np
import pytest

from egowarp import (
    CameraIntrinsics,
    Rotation,
    SE3Transform,
    exp_so3,
    hat,
    reproject_grid,
    reproject_jacobian_grid,
)
from egowarp.camera import Z_EPSILON, _transform_grid

K = CameraIntrinsics(fx=100.0, fy=120.0, cx=31.5, cy=23.5)


def _rand_pose(rng, rot_scale=0.3, trans_scale=0.5) -> SE3Transform:
    w = rng.normal(size=3)
    w = w / np.linalg.norm(w) * rng.uniform(0.0, rot_scale)
    return SE3Transform(exp_so3(w), rng.normal(size=3) * trans_scale)


# Oracle: the per-point pinhole formulas, written out by hand.


def _backproject(p, depth: float) -> np.ndarray:
    """D * K^-1 * (u, v, 1)."""
    return depth * np.array([(p[0] - K.cx) / K.fx, (p[1] - K.cy) / K.fy, 1.0])


def _project(point: np.ndarray) -> np.ndarray:
    z = point[2]
    assert z > Z_EPSILON
    return np.array([K.fx * point[0] / z + K.cx, K.fy * point[1] / z + K.cy])


def _reproject(p, depth: float, t: SE3Transform) -> np.ndarray:
    return _project(t.apply(_backproject(p, depth)))


def _reproject_jacobian(p, depth: float, t: SE3Transform):
    """(d(p_s)/d(depth), d(p_s)/d(pose)), shapes (2,) and (2, 6).

    With X = backproject(p, depth), X' = R X + t and J_pi = d(p_s)/d(X'):
    d/d(depth) = J_pi R X / depth, d/d(delta_rot) = J_pi (-hat(R X)),
    d/dt = J_pi.
    """
    rx = t.r.m @ _backproject(p, depth)
    x_src = rx + t.t
    z = x_src[2]
    assert z > Z_EPSILON
    j_pi = np.array(
        [
            [K.fx / z, 0.0, -K.fx * x_src[0] / (z * z)],
            [0.0, K.fy / z, -K.fy * x_src[1] / (z * z)],
        ]
    )
    return j_pi @ (rx / depth), np.hstack([j_pi @ (-hat(rx)), j_pi])


# Views of the grid code on single points.


def _grid_backproject(p, depth) -> np.ndarray:
    """The grid code's backprojection: its transformed points at identity."""
    return _transform_grid(np.asarray(p), depth, SE3Transform.identity(), K)[1]


def _grid_project(point) -> np.ndarray:
    """Project X' through reproject_grid: X' is the principal ray's point at
    depth 1, (0, 0, 1), moved by the translation X' - (0, 0, 1)."""
    t = SE3Transform.from_translation(np.asarray(point) - [0.0, 0.0, 1.0])
    uv, _, valid = reproject_grid(np.array([K.cx, K.cy]), 1.0, t, K)
    assert valid
    return uv


def _grid_reproject(p, depth, t: SE3Transform) -> np.ndarray:
    return reproject_grid(np.asarray(p, dtype=float), depth, t, K)[0]


class TestBackproject:
    def test_hand_case(self):
        p = _grid_backproject((41.5, 47.5), 2.0)
        # ((41.5-31.5)/100, (47.5-23.5)/120, 1) * 2
        np.testing.assert_allclose(p, [0.2, 0.4, 2.0], atol=1e-15)

    def test_principal_point_is_optical_axis(self):
        p = _grid_backproject((31.5, 23.5), 5.0)
        np.testing.assert_array_equal(p, [0.0, 0.0, 5.0])

    def test_depth_is_z(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.uniform(0.1, 50.0)
            p = _grid_backproject((rng.uniform(0, 64), rng.uniform(0, 48)), d)
            assert p[2] == d


class TestProject:
    def test_hand_case(self):
        u, v = _grid_project([0.2, 0.4, 2.0])
        # (100*0.1 + 31.5, 120*0.2 + 23.5)
        assert u == pytest.approx(41.5, abs=1e-13)
        assert v == pytest.approx(47.5, abs=1e-13)

    def test_round_trip_with_backproject(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pix = (rng.uniform(-10, 80), rng.uniform(-10, 60))
            d = rng.uniform(0.01, 100.0)
            back = _grid_project(_grid_backproject(pix, d))
            np.testing.assert_allclose(back, pix, atol=1e-9)

    def test_scale_invariance(self):
        # Projection depends only on the ray, not the distance along it.
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = np.array([rng.normal(), rng.normal(), rng.uniform(0.5, 5.0)])
            np.testing.assert_allclose(_grid_project(x), _grid_project(x * 7.3), atol=1e-11)


class TestReproject:
    def test_identity_pose_fixed_point(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pix = (rng.uniform(0, 64), rng.uniform(0, 48))
            out = _grid_reproject(pix, rng.uniform(0.5, 10.0), SE3Transform.identity())
            np.testing.assert_allclose(out, pix, atol=1e-10)

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(4)
        k_mat = np.array([[K.fx, 0, K.cx], [0, K.fy, K.cy], [0, 0, 1.0]])
        for _ in range(100):
            t = _rand_pose(rng)
            pix = (rng.uniform(5, 60), rng.uniform(5, 44))
            d = rng.uniform(2.0, 10.0)
            x = _backproject(pix, d)
            x_src = t.matrix() @ np.append(x, 1.0)
            if x_src[2] < 0.5:
                continue
            uvw = k_mat @ x_src[:3]
            out = _grid_reproject(pix, d, t)
            np.testing.assert_allclose(out, [uvw[0] / uvw[2], uvw[1] / uvw[2]], atol=1e-10)

    def test_pure_x_translation_shifts_u_only(self):
        t = SE3Transform.from_translation(np.array([0.5, 0.0, 0.0]))
        u, v = _grid_reproject((31.5, 23.5), 5.0, t)
        # u shift = fx * tx / z = 100 * 0.5 / 5 = 10
        assert u == pytest.approx(41.5, abs=1e-12)
        assert v == pytest.approx(23.5, abs=1e-12)


class TestReprojectGrid:
    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        h, w = 6, 9
        v, u = np.mgrid[0:h, 0:w].astype(float)
        uv = np.stack([u, v], axis=-1)
        for _ in range(10):
            t = _rand_pose(rng, rot_scale=0.2, trans_scale=0.3)
            depth = rng.uniform(3.0, 8.0, size=(h, w))
            uv_src, z, valid = reproject_grid(uv, depth, t, K)
            assert valid.all()
            for i in range(h):
                for j in range(w):
                    np.testing.assert_allclose(
                        uv_src[i, j], _reproject(uv[i, j], depth[i, j], t), atol=1e-12
                    )

    def test_flags_behind_camera_instead_of_raising(self):
        h, w = 4, 4
        v, u = np.mgrid[0:h, 0:w].astype(float)
        uv = np.stack([u, v], axis=-1)
        t = SE3Transform.from_translation(np.array([0.0, 0.0, -6.0]))
        uv_src, z, valid = reproject_grid(uv, np.full((h, w), 5.0), t, K)
        assert not valid.any()

    def test_z_output_is_source_frame_depth(self):
        h, w = 3, 3
        v, u = np.mgrid[0:h, 0:w].astype(float)
        uv = np.stack([u, v], axis=-1)
        t = SE3Transform.from_translation(np.array([0.0, 0.0, 2.0]))
        _, z, valid = reproject_grid(uv, np.full((h, w), 5.0), t, K)
        assert valid.all()
        np.testing.assert_allclose(z, 7.0, atol=1e-12)


class TestSinglePoint:
    """A (2,) pixel with a 0-d depth, the form a per-point caller uses."""

    def test_shapes(self):
        t = _rand_pose(np.random.default_rng(9), rot_scale=0.2, trans_scale=0.3)
        uv = np.array([20.0, 30.0])
        uv_src, z, valid = reproject_grid(uv, 4.0, t, K)
        assert uv_src.shape == (2,) and z.shape == () and valid.shape == ()
        assert valid.dtype == bool
        d_depth, d_pose, valid = reproject_jacobian_grid(uv, 4.0, t, K)
        assert d_depth.shape == (2,) and d_pose.shape == (2, 6) and valid.shape == ()

    def test_values_match_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            t = _rand_pose(rng, rot_scale=0.2, trans_scale=0.3)
            pix = np.array([rng.uniform(5, 60), rng.uniform(5, 44)])
            d = rng.uniform(3.0, 8.0)
            uv_src, z, valid = reproject_grid(pix, d, t, K)
            assert valid
            np.testing.assert_allclose(uv_src, _reproject(pix, d, t), atol=1e-12)
            np.testing.assert_allclose(z, t.apply(_backproject(pix, d))[2], atol=1e-12)
            d_depth, d_pose, valid = reproject_jacobian_grid(pix, d, t, K)
            dd, dp = _reproject_jacobian(pix, d, t)
            assert valid
            np.testing.assert_allclose(d_depth, dd, atol=1e-12)
            np.testing.assert_allclose(d_pose, dp, atol=1e-12)

    def test_epsilon_plane_point_is_invalid(self):
        # The principal ray's point at depth 1 moved to z' = 1e-7 lies behind
        # the Z_EPSILON plane: flagged invalid, pixel and Jacobian rows zero.
        pix = np.array([K.cx, K.cy])
        t = SE3Transform.from_translation(np.array([0.0, 0.0, 1e-7 - 1.0]))
        uv_src, z, valid = reproject_grid(pix, 1.0, t, K)
        assert not valid and 0.0 < z <= Z_EPSILON
        np.testing.assert_array_equal(uv_src, [0.0, 0.0])
        d_depth, d_pose, valid = reproject_jacobian_grid(pix, 1.0, t, K)
        assert not valid
        np.testing.assert_array_equal(d_depth, np.zeros(2))
        np.testing.assert_array_equal(d_pose, np.zeros((2, 6)))


class TestReprojectJacobian:
    def test_depth_jacobian_matches_fd(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(50):
            t = _rand_pose(rng, rot_scale=0.2, trans_scale=0.3)
            pix = np.array([rng.uniform(5, 60), rng.uniform(5, 44)])
            d = rng.uniform(3.0, 8.0)
            d_depth, _, _ = reproject_jacobian_grid(pix, d, t, K)
            hi = _grid_reproject(pix, d + h, t)
            lo = _grid_reproject(pix, d - h, t)
            np.testing.assert_allclose(d_depth, (hi - lo) / (2 * h), atol=1e-5)

    def test_pose_jacobian_matches_fd(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(30):
            t = _rand_pose(rng, rot_scale=0.2, trans_scale=0.3)
            pix = np.array([rng.uniform(5, 60), rng.uniform(5, 44)])
            d = rng.uniform(3.0, 8.0)
            _, d_pose, _ = reproject_jacobian_grid(pix, d, t, K)
            for col in range(6):
                delta = np.zeros(6)
                delta[col] = h
                t_hi = SE3Transform(
                    Rotation(exp_so3(delta[:3]).m @ t.r.m), t.t + delta[3:]
                )
                t_lo = SE3Transform(
                    Rotation(exp_so3(-delta[:3]).m @ t.r.m), t.t - delta[3:]
                )
                hi = _grid_reproject(pix, d, t_hi)
                lo = _grid_reproject(pix, d, t_lo)
                np.testing.assert_allclose(
                    d_pose[:, col], (hi - lo) / (2 * h), atol=1e-4,
                    err_msg=f"pose column {col}",
                )

    def test_translation_block_is_projection_jacobian(self):
        # d(p_s)/dt = J_pi: for identity pose at the principal point,
        # J_pi = [[fx/z, 0, 0], [0, fy/z, 0]] up to the -x/z^2 column.
        d = 5.0
        pix = np.array([31.5, 23.5])
        _, d_pose, _ = reproject_jacobian_grid(pix, d, SE3Transform.identity(), K)
        np.testing.assert_allclose(
            d_pose[:, 3:], [[20.0, 0.0, 0.0], [0.0, 24.0, 0.0]], atol=1e-12
        )

    def test_grid_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        h, w = 5, 7
        v, u = np.mgrid[0:h, 0:w].astype(float)
        uv = np.stack([u, v], axis=-1)
        t = _rand_pose(rng, rot_scale=0.2, trans_scale=0.3)
        depth = rng.uniform(3.0, 8.0, size=(h, w))
        d_depth_g, d_pose_g, valid = reproject_jacobian_grid(uv, depth, t, K)
        assert valid.all()
        for i in range(h):
            for j in range(w):
                dd, dp = _reproject_jacobian(uv[i, j], depth[i, j], t)
                np.testing.assert_allclose(d_depth_g[i, j], dd, atol=1e-12)
                np.testing.assert_allclose(d_pose_g[i, j], dp, atol=1e-12)


class TestIntrinsicsValidation:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1.0, fy=-2.0, cx=0.0, cy=0.0)

"""Rotation/transform algebra tests.

Hand-computed oracles: axis-aligned rotations reduce the exponential map to
plain 2x2 trig blocks, and compositions/inverses are checked against 4x4
homogeneous matrix algebra done directly with numpy (an independent route
through the same math).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from egowarp import (
    AmbiguousLogError,
    Pose6DoF,
    Rotation,
    SE3Transform,
    bf_consistency_grad,
    bf_consistency_loss,
    bf_residual_jacobian,
    compose,
    exp_so3,
    hat,
    inverse,
    log_so3,
)


def _rand_transform(rng) -> SE3Transform:
    w = rng.normal(size=3)
    w = w / np.linalg.norm(w) * rng.uniform(0.1, 3.0)
    return SE3Transform(exp_so3(w), rng.normal(size=3))


def _rz(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestHat:
    def test_hand_matrix(self):
        m = hat(np.array([1.0, 2.0, 3.0]))
        expected = np.array(
            [[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]]
        )
        np.testing.assert_array_equal(m, expected)

    def test_antisymmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = hat(rng.normal(size=3))
            np.testing.assert_allclose(m + m.T, 0.0, atol=0.0)

    def test_cross_product_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(hat(a) @ b, np.cross(a, b), atol=1e-15)

    @pytest.mark.parametrize("v", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]], 1.0])
    def test_wrong_shape_rejected(self, v):
        with pytest.raises(ValueError, match=r"v must have shape \(3,\)"):
            hat(v)


class TestExpSo3:
    def test_zero_gives_identity_exactly(self):
        np.testing.assert_array_equal(exp_so3(np.zeros(3)).m, np.eye(3))

    def test_z_axis_quarter_turn(self):
        r = exp_so3(np.array([0.0, 0.0, math.pi / 2]))
        np.testing.assert_allclose(r.m, _rz(math.pi / 2), atol=1e-15)

    def test_x_axis_hand_case(self):
        theta = 0.3
        r = exp_so3(np.array([theta, 0.0, 0.0]))
        c, s = math.cos(theta), math.sin(theta)
        expected = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        np.testing.assert_allclose(r.m, expected, atol=1e-15)

    def test_rotation_is_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = rng.normal(size=3) * rng.uniform(0.0, 3.0)
            m = exp_so3(w).m
            np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-13)
            assert np.linalg.det(m) > 0.9

    def test_small_angle_branch_matches_first_order(self):
        w = np.array([1e-10, -2e-10, 0.5e-10])
        np.testing.assert_allclose(exp_so3(w).m, np.eye(3) + hat(w), atol=1e-18)

    def test_exp_of_opposite_is_transpose(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = rng.normal(size=3)
            np.testing.assert_allclose(exp_so3(-w).m, exp_so3(w).m.T, atol=1e-14)


class TestLogSo3:
    def test_round_trip_log_exp(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            w = rng.normal(size=3)
            w = w / np.linalg.norm(w) * rng.uniform(1e-6, math.pi - 1e-3)
            np.testing.assert_allclose(log_so3(exp_so3(w)), w, rtol=0, atol=1e-9)

    def test_round_trip_tiny_angles(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.normal(size=3) * 1e-9
            np.testing.assert_allclose(log_so3(exp_so3(w)), w, atol=1e-20)

    def test_identity_gives_zero(self):
        np.testing.assert_array_equal(log_so3(Rotation.identity()), np.zeros(3))

    def test_near_pi_round_trip(self):
        w = np.array([0.0, 0.0, math.pi - 1e-5])
        np.testing.assert_allclose(log_so3(exp_so3(w)), w, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("decade", range(6))
    def test_round_trip_every_decade_below_pi(self, decade):
        rng = np.random.default_rng(40 + decade)
        for axis in rng.normal(size=(200, 3)):
            w = axis / np.linalg.norm(axis) * (math.pi - 10.0 ** -decade)
            np.testing.assert_allclose(log_so3(exp_so3(w)), w, rtol=0, atol=1e-9)

    def test_at_pi_raises(self):
        with pytest.raises(AmbiguousLogError):
            log_so3(exp_so3(np.array([math.pi, 0.0, 0.0])))

    def test_within_margin_of_pi_raises(self):
        with pytest.raises(AmbiguousLogError):
            log_so3(exp_so3(np.array([0.0, math.pi - 1e-7, 0.0])))

    def test_ambiguous_log_is_value_error(self):
        assert issubclass(AmbiguousLogError, ValueError)


class TestRotationValidation:
    def test_rejects_non_orthonormal(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            Rotation(m)

    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Rotation(m)

    def test_accepts_tight_orthonormal(self):
        Rotation(_rz(1.234))  # must not raise


class TestSE3Transform:
    def test_matrix_layout(self):
        t = SE3Transform(Rotation(_rz(0.7)), np.array([1.0, 2.0, 3.0]))
        m = t.matrix()
        np.testing.assert_array_equal(m[:3, :3], _rz(0.7))
        np.testing.assert_array_equal(m[:3, 3], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(m[3], [0.0, 0.0, 0.0, 1.0])

    def test_from_matrix_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t = _rand_transform(rng)
            t2 = SE3Transform.from_matrix(t.matrix())
            np.testing.assert_array_equal(t2.matrix(), t.matrix())

    def test_apply_matches_homogeneous_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            t = _rand_transform(rng)
            pts = rng.normal(size=(11, 3))
            hom = np.concatenate([pts, np.ones((11, 1))], axis=1)
            expected = (t.matrix() @ hom.T).T[:, :3]
            np.testing.assert_allclose(t.apply(pts), expected, atol=1e-12)

    def test_apply_single_point(self):
        t = SE3Transform.from_translation(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(
            t.apply(np.array([0.0, 2.0, 3.0])), [1.0, 2.0, 3.0]
        )

    def test_identity_fixed_point(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(SE3Transform.identity().apply(pts), pts)


class TestComposeInverse:
    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a, b = _rand_transform(rng), _rand_transform(rng)
            np.testing.assert_allclose(
                compose(a, b).matrix(), a.matrix() @ b.matrix(), atol=1e-12
            )

    def test_inverse_matches_linalg_inv(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            a = _rand_transform(rng)
            np.testing.assert_allclose(
                inverse(a).matrix(), np.linalg.inv(a.matrix()), atol=1e-9
            )

    def test_transform_times_inverse_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = _rand_transform(rng)
            np.testing.assert_allclose(
                compose(a, inverse(a)).matrix(), np.eye(4), atol=1e-9
            )

    def test_compose_not_commutative_in_general(self):
        a = SE3Transform(exp_so3(np.array([0.0, 0.0, 1.0])), np.zeros(3))
        b = SE3Transform.from_translation(np.array([1.0, 0.0, 0.0]))
        ab = compose(a, b).matrix()
        ba = compose(b, a).matrix()
        assert np.max(np.abs(ab - ba)) > 0.1


class TestPose6DoF:
    def test_round_trip_through_transform(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            rot = rng.normal(size=3)
            rot = rot / np.linalg.norm(rot) * rng.uniform(0.0, 3.0)
            pose = Pose6DoF(rot, rng.normal(size=3))
            back = pose.to_transform().to_pose()
            np.testing.assert_allclose(back.rot, pose.rot, atol=1e-9)
            np.testing.assert_allclose(back.trans, pose.trans, atol=1e-12)

    def test_rejects_rotation_norm_at_pi(self):
        with pytest.raises(ValueError):
            Pose6DoF(np.array([math.pi, 0.0, 0.0]), np.zeros(3))

    def test_rejects_rotation_norm_the_log_map_refuses(self):
        with pytest.raises(ValueError, match="rotation-vector norm"):
            Pose6DoF(np.array([math.pi - 1e-9, 0.0, 0.0]), np.zeros(3))


class TestBfConsistencyLoss:
    def test_exact_inverse_pairs_are_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            f = _rand_transform(rng)
            assert bf_consistency_loss([(f, inverse(f))]) <= 1e-12

    def test_identity_pair_is_zero_exactly(self):
        i = SE3Transform.identity()
        assert bf_consistency_loss([(i, i)]) == 0.0

    def test_translation_pair_hand_value(self):
        # B o F - I has a single nonzero entry: t_x = 1 + 2 = 3.
        f = SE3Transform.from_translation(np.array([1.0, 0.0, 0.0]))
        b = SE3Transform.from_translation(np.array([2.0, 0.0, 0.0]))
        assert bf_consistency_loss([(f, b)]) == 3.0

    def test_quarter_turn_hand_value(self):
        # Rz(90deg) - I has four entries of magnitude 1 in the rotation block.
        f = SE3Transform(exp_so3(np.array([0.0, 0.0, math.pi / 2])), np.zeros(3))
        b = SE3Transform.identity()
        assert bf_consistency_loss([(f, b)]) == pytest.approx(4.0, abs=1e-12)

    def test_sums_over_pairs(self):
        f = SE3Transform.from_translation(np.array([1.0, 0.0, 0.0]))
        b = SE3Transform.identity()
        one = bf_consistency_loss([(f, b)])
        three = bf_consistency_loss([(f, b)] * 3)
        assert three == pytest.approx(3.0 * one, abs=1e-12)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            bf_consistency_loss([])

    def test_swap_symmetric_for_commuting_pairs(self):
        # Pure translations commute, so swapping roles preserves the product.
        rng = np.random.default_rng(14)
        for _ in range(50):
            f = SE3Transform.from_translation(rng.normal(size=3))
            b = SE3Transform.from_translation(rng.normal(size=3))
            assert bf_consistency_loss([(f, b)]) == pytest.approx(
                bf_consistency_loss([(b, f)]), abs=1e-12
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            f, b = _rand_transform(rng), _rand_transform(rng)
            assert bf_consistency_loss([(f, b)]) >= 0.0


def _perturb(t: SE3Transform, delta: np.ndarray) -> SE3Transform:
    """Left-multiplicative rotation offset, additive translation offset."""
    return SE3Transform(
        Rotation(exp_so3(delta[:3]).m @ t.r.m), t.t + delta[3:]
    )


class TestBfResidualJacobian:
    def test_residuals_are_the_penalty_entries(self):
        rng = np.random.default_rng(18)
        f, b = _rand_transform(rng), _rand_transform(rng)
        e, _ = bf_residual_jacobian(f, b)
        np.testing.assert_array_equal(e, (b.matrix() @ f.matrix() - np.eye(4))[:3].ravel())
        assert np.sum(np.abs(e)) == pytest.approx(bf_consistency_loss([(f, b)]), rel=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(19)
        h = 1e-6
        for _ in range(20):
            f, b = _rand_transform(rng), _rand_transform(rng)
            _, jac = bf_residual_jacobian(f, b)
            assert jac.shape == (12, 12)
            for col in range(12):
                e = np.zeros(6)
                e[col % 6] = h
                if col < 6:
                    plus, minus = (bf_residual_jacobian(_perturb(f, s * e), b)[0]
                                   for s in (1.0, -1.0))
                else:
                    plus, minus = (bf_residual_jacobian(f, _perturb(b, s * e))[0]
                                   for s in (1.0, -1.0))
                fd = (plus - minus) / (2 * h)
                np.testing.assert_allclose(jac[:, col], fd, rtol=0, atol=1e-7,
                                           err_msg=f"column {col}")


class TestBfConsistencyGrad:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(16)
        h = 1e-7
        for _ in range(20):
            f, b = _rand_transform(rng), _rand_transform(rng)
            d_f, d_b = bf_consistency_grad([(f, b)])[0]
            for k in range(6):
                e = np.zeros(6)
                e[k] = h
                fd_f = (
                    bf_consistency_loss([(_perturb(f, e), b)])
                    - bf_consistency_loss([(_perturb(f, -e), b)])
                ) / (2 * h)
                fd_b = (
                    bf_consistency_loss([(f, _perturb(b, e))])
                    - bf_consistency_loss([(f, _perturb(b, -e))])
                ) / (2 * h)
                assert abs(d_f[k] - fd_f) < 1e-5, f"forward param {k}"
                assert abs(d_b[k] - fd_b) < 1e-5, f"backward param {k}"

    def test_zero_residual_gives_zero_grad(self):
        f = SE3Transform.identity()
        d_f, d_b = bf_consistency_grad([(f, f)])[0]
        np.testing.assert_array_equal(d_f, np.zeros(6))
        np.testing.assert_array_equal(d_b, np.zeros(6))

    def test_one_result_per_pair(self):
        rng = np.random.default_rng(17)
        pairs = [(_rand_transform(rng), _rand_transform(rng)) for _ in range(4)]
        assert len(bf_consistency_grad(pairs)) == 4


def _bottom_row(row) -> np.ndarray:
    m = np.eye(4)
    m[3] = row
    return m


class TestRejections:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: exp_so3(np.zeros(2)), r"rotation vector must have shape \(3,\), got \(2,\)"),
            (lambda: Pose6DoF(np.zeros(2), np.zeros(3)), r"rotation vector must have shape \(3,\)"),
            (lambda: SE3Transform(Rotation.identity(), np.zeros(2)),
             r"translation must have shape \(3,\), got \(2,\)"),
            (lambda: Rotation(np.eye(2)), r"rotation matrix must have shape \(3, 3\), got \(2, 2\)"),
        ],
        ids=["exp_so3", "pose6dof", "translation", "rotation"],
    )
    def test_wrong_shape_names_the_argument(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize(
        "m, message",
        [
            (np.eye(4)[:3], r"homogeneous transform must have shape \(4, 4\), got \(3, 4\)"),
            (_bottom_row([0.0, 0.0, 1.0, 1.0]), r"bottom row must be \[0, 0, 0, 1\]"),
            (_bottom_row([np.nan, 0.0, 0.0, 1.0]), "homogeneous transform must be finite"),
        ],
        ids=["3x4", "bottom-row", "nan-bottom-row"],
    )
    def test_from_matrix_rejects(self, m, message):
        with pytest.raises(ValueError, match=message):
            SE3Transform.from_matrix(m)

    def test_bf_consistency_grad_rejects_no_pairs(self):
        with pytest.raises(ValueError, match="at least one pose pair"):
            bf_consistency_grad([])

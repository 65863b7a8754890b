"""Tests for depth-error metrics and snippet ATE.

Oracles:

* Constant ground truth d = 5 with pred = 1.3 * gt has closed forms:
  abs_rel = 0.3, sq_rel = 0.09 * 5 = 0.45, rmse = 1.5, rmse_log = ln 1.3,
  and the ratio 1.3 fails the 1.25 threshold but passes 1.25^2 and 1.25^3.
* pred = 2 * gt doubles exactly in binary floating point, so rmse_log is
  ln 2 to machine precision for any gt, and 2 > 1.25^3 zeroes all deltas.
* A brute-force per-pixel Python loop re-derives every metric on random
  maps.
* median_scale_align with pred = gt / 4 rescales by exactly 4 (power-of-two
  medians divide exactly), recovering gt bit-for-bit.
* Snippet ATE on identical trajectories is 0 +/- 0 exactly; scaling every
  translation by a global constant is absorbed by the per-snippet
  least-squares scale; a windowed brute-force loop re-derives the pooled
  mean/std on random trajectories.
* Association: nearest-timestamp matching within half the smallest frame
  interval, rejecting unmatched and doubly-matched frames by message.
"""

import numpy as np
import pytest

from egowarp import (
    AssociationError,
    AteResult,
    DegenerateInputError,
    DegenerateSnippetError,
    DepthMap,
    DepthMetrics,
    Pose6DoF,
    SE3Transform,
    Trajectory,
    ate_snippet,
    depth_metrics,
    median_scale_align,
)


def _constant_depth(value: float, shape=(4, 6)) -> DepthMap:
    return DepthMap(np.full(shape, value))


def _random_trajectory(rng, n: int, scale: float = 1.0) -> Trajectory:
    poses = [SE3Transform.identity()]
    for _ in range(n - 1):
        step = Pose6DoF(
            rng.uniform(-0.3, 0.3, size=3), rng.uniform(-1, 1, size=3) * scale
        ).to_transform()
        poses.append(SE3Transform.from_matrix(poses[-1].matrix() @ step.matrix()))
    return Trajectory(np.arange(n, dtype=float), poses)


def _ate_oracle(pred: Trajectory, gt: Trajectory, n: int) -> AteResult:
    """Windowed ATE via explicit 4x4 matrix algebra."""
    errors = []
    for start in range(len(pred.poses) - n + 1):
        ph = np.array(
            [
                (
                    np.linalg.inv(pred.poses[start].matrix()) @ p.matrix()
                )[:3, 3]
                for p in pred.poses[start : start + n]
            ]
        )
        p = np.array(
            [
                (np.linalg.inv(gt.poses[start].matrix()) @ q.matrix())[:3, 3]
                for q in gt.poses[start : start + n]
            ]
        )
        scale = np.sum(ph * p) / np.sum(ph * ph)
        errors.extend(np.linalg.norm(scale * ph - p, axis=1).tolist())
    return AteResult(float(np.mean(errors)), float(np.std(errors)))


class TestDepthMetrics:
    def test_constant_scene_hand_values(self):
        gt = _constant_depth(5.0)
        pred = DepthMap(gt.data * 1.3)
        m = depth_metrics(pred, gt)
        assert m.abs_rel == pytest.approx(0.3, rel=1e-12)
        assert m.sq_rel == pytest.approx(0.45, rel=1e-12)
        assert m.rmse == pytest.approx(1.5, rel=1e-12)
        assert m.rmse_log == pytest.approx(np.log(1.3), rel=1e-12)
        assert m.d1 == 0.0
        assert m.d2 == 1.0
        assert m.d3 == 1.0

    def test_identity_is_exactly_perfect(self):
        rng = np.random.default_rng(5)
        gt = DepthMap(rng.uniform(0.5, 60.0, size=(8, 8)))
        m = depth_metrics(gt, gt)
        assert (m.abs_rel, m.sq_rel, m.rmse, m.rmse_log) == (0.0, 0.0, 0.0, 0.0)
        assert (m.d1, m.d2, m.d3) == (1.0, 1.0, 1.0)

    def test_power_of_two_scale_has_exact_log_error(self):
        rng = np.random.default_rng(6)
        gt = DepthMap(rng.uniform(0.5, 30.0, size=(5, 7)))
        m = depth_metrics(DepthMap(2.0 * gt.data), gt)
        # 2x is exact in binary, so every log ratio is exactly ln 2.
        assert m.rmse_log == pytest.approx(np.log(2.0), abs=1e-12)
        assert m.abs_rel == pytest.approx(1.0, rel=1e-12)
        assert (m.d1, m.d2, m.d3) == (0.0, 0.0, 0.0)

    def test_caps_exclude_out_of_range_gt(self):
        gt = DepthMap(np.array([[5.0, 100.0], [1e-4, 5.0]]))
        pred = DepthMap(np.array([[5.0, 1.0], [70.0, 5.0]]))
        m = depth_metrics(pred, gt, min_depth=1e-3, max_depth=80.0)
        assert m.abs_rel == 0.0
        assert m.d1 == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gt = DepthMap(rng.uniform(0.5, 60.0, size=(6, 6)))
            pred = DepthMap(gt.data * rng.uniform(0.5, 2.0, size=(6, 6)))
            m = depth_metrics(pred, gt)
            abs_rel = sq_rel = se = se_log = 0.0
            d1 = d2 = d3 = 0
            n = gt.data.size
            for dh, d in zip(pred.data.ravel(), gt.data.ravel()):
                abs_rel += abs(dh - d) / d
                sq_rel += (dh - d) ** 2 / d
                se += (dh - d) ** 2
                se_log += (np.log(dh) - np.log(d)) ** 2
                ratio = max(dh / d, d / dh)
                d1 += ratio < 1.25
                d2 += ratio < 1.25**2
                d3 += ratio < 1.25**3
            assert m.abs_rel == pytest.approx(abs_rel / n, rel=1e-12)
            assert m.sq_rel == pytest.approx(sq_rel / n, rel=1e-12)
            assert m.rmse == pytest.approx(np.sqrt(se / n), rel=1e-12)
            assert m.rmse_log == pytest.approx(np.sqrt(se_log / n), rel=1e-12)
            assert m.d1 == d1 / n and m.d2 == d2 / n and m.d3 == d3 / n

    def test_no_pixels_in_caps_raises(self):
        gt = _constant_depth(100.0)
        with pytest.raises(DegenerateInputError, match="caps"):
            depth_metrics(gt, gt, max_depth=80.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pred 2x2 and gt 2x3 sizes differ"):
            depth_metrics(_constant_depth(5.0, (2, 2)), _constant_depth(5.0, (2, 3)))

    def test_bad_caps_rejected(self):
        gt = _constant_depth(5.0)
        with pytest.raises(ValueError, match="caps"):
            depth_metrics(gt, gt, min_depth=2.0, max_depth=1.0)

    def test_delta_ordering_enforced(self):
        with pytest.raises(ValueError, match="d1 <= d2 <= d3"):
            DepthMetrics(0.1, 0.1, 0.1, 0.1, d1=0.9, d2=0.5, d3=1.0)


class TestMedianScaleAlign:
    def test_quarter_scale_recovers_gt_exactly(self):
        rng = np.random.default_rng(9)
        gt = DepthMap(rng.uniform(1.0, 50.0, size=(7, 5)))
        aligned = median_scale_align(DepthMap(gt.data / 4.0), gt)
        np.testing.assert_array_equal(aligned.data, gt.data)

    def test_aligned_metrics_are_perfect(self):
        rng = np.random.default_rng(10)
        gt = DepthMap(rng.uniform(1.0, 50.0, size=(7, 5)))
        aligned = median_scale_align(DepthMap(gt.data / 4.0), gt)
        m = depth_metrics(aligned, gt)
        assert m.abs_rel == 0.0 and m.d1 == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pred 2x2 and gt 3x2 sizes differ"):
            median_scale_align(_constant_depth(1.0, (2, 2)), _constant_depth(1.0, (3, 2)))


class TestTrajectoryValidation:
    def test_timestamps_must_increase(self):
        poses = [SE3Transform.identity(), SE3Transform.identity()]
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(np.array([1.0, 1.0]), poses)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), [SE3Transform.identity()])


class TestAteSnippet:
    def test_identical_trajectories_are_zero(self):
        rng = np.random.default_rng(12)
        traj = _random_trajectory(rng, 8)
        result = ate_snippet(traj, traj, snippet_len=5)
        assert result.mean == 0.0
        assert result.std == 0.0

    def test_global_scale_is_absorbed(self):
        rng = np.random.default_rng(13)
        gt = _random_trajectory(rng, 8)
        scaled = Trajectory(
            gt.timestamps,
            [SE3Transform(p.r, 3.0 * p.t) for p in gt.poses],
        )
        result = ate_snippet(scaled, gt, snippet_len=5)
        assert result.mean == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            pred = _random_trajectory(rng, 9)
            gt = _random_trajectory(rng, 9)
            got = ate_snippet(pred, gt, snippet_len=4)
            want = _ate_oracle(pred, gt, 4)
            assert got.mean == pytest.approx(want.mean, abs=1e-10)
            assert got.std == pytest.approx(want.std, abs=1e-10)

    def test_offset_timestamps_fail_association(self):
        rng = np.random.default_rng(15)
        gt = _random_trajectory(rng, 6)
        shifted = Trajectory(gt.timestamps + 10.0, gt.poses)
        with pytest.raises(AssociationError, match="no gt frame"):
            ate_snippet(shifted, gt, snippet_len=3)

    def test_double_match_fails_association(self):
        rng = np.random.default_rng(16)
        gt = Trajectory(
            np.array([0.0, 10.0, 20.0]), _random_trajectory(rng, 3).poses
        )
        pred = Trajectory(
            np.array([-0.2, 0.2, 10.0]), _random_trajectory(rng, 3).poses
        )
        with pytest.raises(AssociationError, match="both match"):
            ate_snippet(pred, gt, snippet_len=2)

    def test_zero_predicted_motion_raises(self):
        rng = np.random.default_rng(17)
        gt = _random_trajectory(rng, 4)
        frozen = Trajectory(
            gt.timestamps, [SE3Transform.identity()] * len(gt.poses)
        )
        with pytest.raises(DegenerateSnippetError, match="zero predicted motion"):
            ate_snippet(frozen, gt, snippet_len=3)

    def test_short_inputs_rejected(self):
        rng = np.random.default_rng(18)
        traj = _random_trajectory(rng, 3)
        with pytest.raises(ValueError, match=">= 2"):
            ate_snippet(traj, traj, snippet_len=1)
        with pytest.raises(ValueError, match="snippet length"):
            ate_snippet(traj, traj, snippet_len=5)

    @pytest.mark.parametrize("snippet_len", [2.5, True, 3.0])
    def test_non_integral_snippet_length_rejected(self, snippet_len):
        traj = _random_trajectory(np.random.default_rng(18), 4)
        with pytest.raises(ValueError, match="snippet_len must be an integer"):
            ate_snippet(traj, traj, snippet_len=snippet_len)

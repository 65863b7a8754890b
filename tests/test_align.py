"""Tests for direct photometric pose (and depth) alignment.

The experiments run on a slanted-plane scene: depth varies across the image,
which removes the lateral-translation / rotation ambiguity that makes
fronto-parallel scenes ill-conditioned, and the baseline is a sizable
fraction of scene depth so the photometric signal is strong.

Quantitative thresholds were chosen with several times the measured margin:

* From a 1 degree / 2 percent perturbation at 64x64, descent recovers the
  pose to ~0.02 degrees and ~0.5 percent; asserted at 0.1 degrees and
  2 percent.
* Initialized exactly at the ground truth, the optimizer drifts slightly,
  because bilinear resampling displaces the discrete photometric optimum
  away from the true pose by a small absolute offset; measured ~7e-4 scene
  units of translation and ~0.013 degrees, asserted at 3e-3 and 0.05.
* A 45-degree initialization lands in a different basin: the run may report
  convergence, but at a visibly larger loss. That is the documented failure
  signature of a far-off init.
* Armijo acceptance makes every recorded loss non-increasing regardless of
  where the run starts.
* Joint forward/backward optimization with a strong lambda_bf drives the
  backward-forward consistency term to ~1e-6 at 64x64 (an L1 penalty, so it
  collapses almost to zero once dominant).
"""

import numpy as np
import pytest

import egowarp.align as align_module
from egowarp import (
    AlignOptions,
    DepthMap,
    LossWeights,
    Pose6DoF,
    SE3Transform,
    align_pose,
    align_pose_pair,
    bf_consistency_loss,
    compose,
    default_intrinsics,
    exp_so3,
    inverse,
    log_so3,
    make_scene,
    perturb_pose,
    render_pair,
    render_view,
    retract_pose,
)

GT_TRANS = np.array([0.35, 0.25, 0.2])


def _pose_errors(est: Pose6DoF, gt: Pose6DoF) -> tuple[float, float]:
    """(rotation error in degrees, absolute translation error)."""
    rel = compose(est.to_transform(), inverse(gt.to_transform()))
    rot = float(np.degrees(np.linalg.norm(log_so3(rel.r))))
    return rot, float(np.linalg.norm(est.trans - gt.trans))


def _monotone(history: tuple[float, ...]) -> bool:
    return all(b <= a for a, b in zip(history, history[1:]))


@pytest.fixture(scope="module")
def slanted64():
    k = default_intrinsics(64, 64)
    pair = render_pair(
        make_scene("slanted_plane"), SE3Transform.from_translation(GT_TRANS), k, 64, 64
    )
    return pair, k, Pose6DoF(np.zeros(3), GT_TRANS)


class TestRetractPose:
    def test_left_multiplicative_rotation(self):
        rng = np.random.default_rng(31)
        pose = Pose6DoF(rng.uniform(-0.5, 0.5, 3), rng.normal(size=3)).to_transform()
        delta = np.concatenate([rng.uniform(-0.3, 0.3, 3), np.zeros(3)])
        moved = retract_pose(pose, delta)
        np.testing.assert_array_equal(moved.r.m, exp_so3(delta[:3]).m @ pose.r.m)
        np.testing.assert_array_equal(moved.t, pose.t)

    def test_translation_additive(self):
        pose = SE3Transform.from_translation([1.0, 2.0, 3.0])
        moved = retract_pose(pose, np.array([0.0, 0.0, 0.0, 0.5, -0.25, 1.0]))
        np.testing.assert_array_equal(moved.t, [1.5, 1.75, 4.0])
        np.testing.assert_array_equal(moved.r.m, np.eye(3))


class TestPerturbPose:
    def test_rotation_magnitude_exact(self):
        pose = Pose6DoF(np.array([0.1, -0.2, 0.05]), GT_TRANS)
        for deg in (0.5, 1.0, 10.0):
            p = perturb_pose(pose, deg, 0.0, seed=4)
            rot_err, trans_err = _pose_errors(p, pose)
            assert rot_err == pytest.approx(deg, rel=1e-9)
            assert trans_err == 0.0

    def test_translation_magnitude_relative(self):
        pose = Pose6DoF(np.zeros(3), GT_TRANS)
        p = perturb_pose(pose, 0.0, 0.02, seed=4)
        offset = np.linalg.norm(p.trans - pose.trans)
        assert offset == pytest.approx(0.02 * np.linalg.norm(GT_TRANS), rel=1e-12)

    def test_zero_translation_uses_absolute_units(self):
        pose = Pose6DoF(np.zeros(3), np.zeros(3))
        p = perturb_pose(pose, 0.0, 0.05, seed=4)
        assert np.linalg.norm(p.trans) == pytest.approx(0.05, rel=1e-12)

    def test_deterministic_per_seed(self):
        pose = Pose6DoF(np.zeros(3), GT_TRANS)
        a = perturb_pose(pose, 1.0, 0.02, seed=9)
        b = perturb_pose(pose, 1.0, 0.02, seed=9)
        c = perturb_pose(pose, 1.0, 0.02, seed=10)
        np.testing.assert_array_equal(a.rot, b.rot)
        np.testing.assert_array_equal(a.trans, b.trans)
        assert not np.array_equal(a.trans, c.trans)


class TestAlignOptions:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            AlignOptions(mode="newton")
        with pytest.raises(ValueError, match="max_iters"):
            AlignOptions(max_iters=0)
        with pytest.raises(ValueError, match="step"):
            AlignOptions(step=0.0)
        with pytest.raises(ValueError, match="pyramid_levels"):
            AlignOptions(pyramid_levels=0)


class TestPoseRecovery:
    def test_recovers_from_small_perturbation(self, slanted64):
        pair, k, gt6 = slanted64
        init = perturb_pose(gt6, 1.0, 0.02, seed=42)
        report = align_pose(
            pair.target, pair.source, pair.gt_depth, k, init,
            AlignOptions(max_iters=800),
        )
        rot_err, trans_err = _pose_errors(report.pose, gt6)
        assert rot_err < 0.1
        assert trans_err / np.linalg.norm(GT_TRANS) < 0.02
        assert _monotone(report.loss_history)
        assert report.final_loss < report.loss_history[0]
        assert report.depth is None

    def test_ground_truth_init_stays_close(self, slanted64):
        # Bilinear resampling biases the discrete optimum slightly off the
        # true pose, so exact-gt init drifts by a bounded absolute amount.
        pair, k, gt6 = slanted64
        report = align_pose(
            pair.target, pair.source, pair.gt_depth, k, gt6,
            AlignOptions(max_iters=250),
        )
        rot_err, trans_err = _pose_errors(report.pose, gt6)
        assert rot_err < 0.05
        assert trans_err < 3e-3
        assert _monotone(report.loss_history)

    def test_far_init_fails_loudly(self, slanted64):
        pair, k, gt6 = slanted64
        near = align_pose(
            pair.target, pair.source, pair.gt_depth, k,
            perturb_pose(gt6, 1.0, 0.02, seed=42),
            AlignOptions(max_iters=200),
        )
        far = align_pose(
            pair.target, pair.source, pair.gt_depth, k,
            perturb_pose(gt6, 45.0, 0.5, seed=3),
            AlignOptions(max_iters=200),
        )
        rot_err, _ = _pose_errors(far.pose, gt6)
        assert rot_err > 1.0
        assert far.final_loss > 5.0 * near.final_loss
        assert _monotone(far.loss_history)

    def test_pyramid_beats_single_level_on_equal_budget(self, slanted64):
        pair, k, gt6 = slanted64
        init = perturb_pose(gt6, 3.0, 0.10, seed=3)
        scale = np.linalg.norm(GT_TRANS)
        coarse_to_fine = align_pose(
            pair.target, pair.source, pair.gt_depth, k, init,
            AlignOptions(max_iters=300, pyramid_levels=3),
        )
        flat = align_pose(
            pair.target, pair.source, pair.gt_depth, k, init,
            AlignOptions(max_iters=300, pyramid_levels=1),
        )
        assert _pose_errors(coarse_to_fine.pose, gt6)[1] / scale < 0.02
        assert _pose_errors(flat.pose, gt6)[1] / scale > 0.03

    def test_behind_camera_init_reports_infinite_loss(self, slanted64):
        pair, k, _ = slanted64
        report = align_pose(
            pair.target, pair.source, pair.gt_depth, k,
            Pose6DoF(np.zeros(3), np.array([0.0, 0.0, -12.0])),
            AlignOptions(max_iters=5),
        )
        assert not report.converged
        assert report.final_loss == float("inf")
        assert report.loss_history == ()

    def test_behind_camera_single_level_history_is_empty(self, slanted64):
        # The skipped level's non-finite starting loss stays out of the history.
        pair, k, _ = slanted64
        behind = Pose6DoF(np.zeros(3), np.array([0.0, 0.0, -12.0]))
        opts = AlignOptions(max_iters=5, pyramid_levels=1)
        _, depth_source, _ = render_view(
            make_scene("slanted_plane"), SE3Transform.from_translation(GT_TRANS), k, 64, 64
        )
        single = align_pose(pair.target, pair.source, pair.gt_depth, k, behind, opts)
        joint = align_pose_pair(
            pair.target, pair.source, pair.gt_depth, depth_source, k, behind, behind, opts
        )
        for report in (single, joint):
            assert report.loss_history == ()
            assert report.final_loss == float("inf")
            assert report.iters == 0
            assert not report.converged


class TestPoseAndDepth:
    def test_refines_nonuniform_depth_error(self):
        k = default_intrinsics(48, 48)
        pair = render_pair(
            make_scene("slanted_plane"), SE3Transform.from_translation(GT_TRANS), k, 48, 48
        )
        gt6 = Pose6DoF(np.zeros(3), GT_TRANS)
        v, u = np.mgrid[0:48, 0:48]
        wobble = 1.0 + 0.08 * np.sin(2 * np.pi * u / 16) * np.cos(2 * np.pi * v / 16)
        corrupted = DepthMap(pair.gt_depth.data * wobble)
        report = align_pose(
            pair.target, pair.source, corrupted, k, gt6,
            AlignOptions(mode="pose_and_depth", max_iters=120),
        )
        assert report.depth is not None
        assert report.depth.data.shape == (48, 48)
        assert report.depth.data.min() >= 1e-3
        assert _monotone(report.loss_history)
        assert report.final_loss < report.loss_history[0]
        before = np.median(np.abs(corrupted.data - pair.gt_depth.data))
        after = np.median(np.abs(report.depth.data - pair.gt_depth.data))
        assert after < 0.7 * before


class TestAlignPosePair:
    def test_bf_term_collapses(self, slanted64):
        pair, k, gt6 = slanted64
        gt_fwd = SE3Transform.from_translation(GT_TRANS)
        _, depth_source, _ = render_view(make_scene("slanted_plane"), gt_fwd, k, 64, 64)
        bwd = inverse(gt_fwd)
        gt_bwd = Pose6DoF(log_so3(bwd.r), bwd.t)
        init_f = perturb_pose(gt6, 1.0, 0.02, seed=1)
        init_b = perturb_pose(gt_bwd, 1.0, 0.02, seed=2)
        bf_init = bf_consistency_loss(
            [(init_f.to_transform(), init_b.to_transform())]
        )
        report = align_pose_pair(
            pair.target, pair.source, pair.gt_depth, depth_source, k,
            init_f, init_b,
            AlignOptions(max_iters=200, weights=LossWeights(lambda_bf=10.0)),
        )
        assert bf_init > 1e-2
        assert report.bf_term < 1e-4
        assert _monotone(report.loss_history)
        # The dominant bf penalty locks the two poses to each other before
        # the photometric term finishes, so each stays near (not at) truth.
        for est, ref in ((report.pose_forward, gt6), (report.pose_backward, gt_bwd)):
            rot_err, trans_err = _pose_errors(est, ref)
            assert rot_err < 2.0
            assert trans_err / np.linalg.norm(GT_TRANS) < 0.05


class TestEvaluationCounts:
    """One loss_gradients call per iteration in pose_only, two in
    pose_and_depth and in the pair solve, and a non-increasing history."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Heights of the images passed to each loss_gradients call."""
        calls = []
        inner = align_module.loss_gradients

        def counting(*args, **kwargs):
            calls.append(args[0].height)
            return inner(*args, **kwargs)

        monkeypatch.setattr(align_module, "loss_gradients", counting)
        return calls

    @pytest.fixture(scope="class")
    def slanted32(self):
        k = default_intrinsics(32, 32)
        gt = SE3Transform.from_translation(GT_TRANS)
        pair = render_pair(make_scene("slanted_plane"), gt, k, 32, 32)
        _, depth_source, _ = render_view(make_scene("slanted_plane"), gt, k, 32, 32)
        return pair, depth_source, k, Pose6DoF(np.zeros(3), GT_TRANS)

    @pytest.mark.parametrize("mode, per_iter", [("pose_only", 1), ("pose_and_depth", 2)])
    def test_align_pose(self, counted, slanted32, mode, per_iter):
        pair, _, k, gt6 = slanted32
        report = align_pose(
            pair.target, pair.source, pair.gt_depth, k, perturb_pose(gt6, 1.0, 0.02, seed=5),
            AlignOptions(mode=mode, max_iters=40),
        )
        assert report.iters > 0
        assert len(counted) == per_iter * report.iters
        assert set(counted) == {32, 16, 8}
        assert _monotone(report.loss_history)

    def test_align_pose_pair(self, counted, slanted32):
        pair, depth_source, k, gt6 = slanted32
        bwd = inverse(SE3Transform.from_translation(GT_TRANS))
        report = align_pose_pair(
            pair.target, pair.source, pair.gt_depth, depth_source, k,
            perturb_pose(gt6, 1.0, 0.02, seed=1),
            perturb_pose(Pose6DoF(log_so3(bwd.r), bwd.t), 1.0, 0.02, seed=2),
            AlignOptions(max_iters=40, weights=LossWeights(lambda_bf=10.0)),
        )
        assert report.iters > 0
        assert len(counted) == 2 * report.iters
        assert _monotone(report.loss_history)

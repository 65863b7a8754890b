"""Tests for direct photometric pose (and depth) alignment.

The experiments run on a slanted-plane scene: depth varies across the image,
which removes the lateral-translation / rotation ambiguity that makes
fronto-parallel scenes ill-conditioned, and the baseline is a sizable
fraction of scene depth so the photometric signal is strong.

Quantitative thresholds were chosen with several times the measured margin:

* From a 1 degree / 2 percent perturbation at 64x64, the solver recovers
  the pose to ~0.034 degrees and ~0.5 percent; asserted at 0.1 degrees and
  2 percent.
* Initialized exactly at the ground truth, the optimizer drifts slightly,
  because bilinear resampling displaces the discrete photometric optimum
  away from the true pose by a small absolute offset. Gauss-Newton reaches
  that optimum from either start, so the drift is the whole offset:
  measured 2.4e-3 scene units of translation and 0.034 degrees (the
  first-order solver stopped short of it, at ~7e-4 and ~0.013), asserted
  at 3e-3 and 0.05: margins of 1.25x and 1.5x, not several times, because
  the bounds were kept when the solver changed.
* A 45-degree initialization lands in a different basin: the run may report
  convergence, but at a visibly larger loss. That is the documented failure
  signature of a far-off init.
* Armijo acceptance makes every recorded loss non-increasing regardless of
  where the run starts.
* Joint forward/backward optimization with a strong lambda_bf drives the
  backward-forward consistency term to ~1e-10 at 64x64 (an L1 penalty, so it
  collapses almost to zero once dominant), with the forward pose ~0.002
  degrees and ~0.05 percent from the truth.
* The pair solve steps in (F, E = B o F). Its chart Jacobian matches central
  differences of the step to ~3e-10 (asserted at 1e-8) and zeroes the bf
  residuals' dF columns to ~2e-16 (asserted at 1e-12).
* Each line search starts where the last one's gain ratio points, and
  every level ends once every block's model predicts less than MODEL_RTOL
  of the loss. The pair solve then makes 34 warps at 64x64 and 34 at
  criterion 5's 128x128 (62 and 42 when the finest level ran until an
  iteration moved nothing, 188 and 100 when every level did, 1,544 and 628
  when F and B were stepped independently); asserted at 45 and 80.
  Criterion 5's pose solve makes 19 (23 when the finest level ran until an
  iteration moved nothing, 69 when every level did, 210 from the full
  step); asserted at 40. A block whose line search fails leaves its
  level: pose_and_depth at 64x64 from 5 percent depth noise and four inits
  makes 572 warps, since at 32x32 and 64x64 the depth block leaves after
  its first failed search and the level then ends at the pose block's own
  model test, and a depth candidate whose smoothness term alone fails the
  Armijo test is rejected without a warp (1,850 when a failed block
  searched again every iteration, 2,398 when every candidate also warped);
  asserted at 650. Its four solves keep depth abs-rel at 0.0068-0.0073,
  translation error at 1.1-1.6 percent and rotation error at 0.04-0.08
  degrees; asserted at 0.0075, 2 percent and 0.1 degrees, which the
  previous rule met too (1.0-1.5 percent, 0.04-0.07 degrees).
"""

from types import SimpleNamespace

import numpy as np
import pytest

import egowarp.align as align_module
from egowarp import (
    AlignOptions,
    DepthMap,
    ImageBuffer,
    LossWeights,
    Pose6DoF,
    Rotation,
    SE3Transform,
    WeightMask,
    align_pose,
    align_pose_pair,
    bf_consistency_loss,
    bf_residual_jacobian,
    compose,
    default_intrinsics,
    exp_so3,
    explainability_reg,
    image_pyramid,
    intrinsics_pyramid,
    inverse,
    inverse_warp,
    log_so3,
    make_scene,
    perturb_pose,
    photometric_l1,
    render_pair,
    render_view,
    retract_pose,
    smoothness,
    total_loss,
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


@pytest.fixture(scope="module")
def slanted32():
    k = default_intrinsics(32, 32)
    gt = SE3Transform.from_translation(GT_TRANS)
    pair = render_pair(make_scene("slanted_plane"), gt, k, 32, 32)
    _, depth_source, _ = render_view(make_scene("slanted_plane"), gt, k, 32, 32)
    return pair, depth_source, k, Pose6DoF(np.zeros(3), GT_TRANS)


class TestRetractPose:
    def test_left_multiplicative_rotation(self):
        # Bit for bit exp_so3(w).m @ R, on both sides of the small-angle branch.
        rng = np.random.default_rng(31)
        for scale in (0.3, 0.3, 0.3, 1e-3, 1e-9, 0.0):
            pose = Pose6DoF(rng.uniform(-0.5, 0.5, 3), rng.normal(size=3)).to_transform()
            delta = np.concatenate([rng.uniform(-scale, scale, 3), np.zeros(3)])
            moved = retract_pose(pose, delta)
            np.testing.assert_array_equal(moved.r.m, exp_so3(delta[:3]).m @ pose.r.m)
            np.testing.assert_array_equal(moved.t, pose.t)

    def test_non_finite_rotation_step_rejected(self):
        with pytest.raises(ValueError, match="rotation vector must be finite"):
            retract_pose(SE3Transform.identity(), np.array([np.nan, 0, 0, 0, 0, 0]))

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_wrong_length_step_rejected(self, n):
        # Unchecked, a 4-vector's last entry broadcasts over all three
        # translation components.
        with pytest.raises(ValueError, match=r"delta must have shape \(6,\)"):
            retract_pose(SE3Transform.identity(), np.full(n, 0.5))

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

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0"), (2.5, "seed must be an integer"),
        (True, "seed must be an integer"),
    ])
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        with pytest.raises(ValueError, match=message):
            perturb_pose(Pose6DoF(np.zeros(3), GT_TRANS), 1.0, 0.02, seed=seed)


    @pytest.mark.parametrize("rot_deg, trans_frac, name", [
        (np.nan, 0.02, "rot_deg"), (np.inf, 0.0, "rot_deg"),
        (1.0, np.nan, "trans_frac"), (1.0, -np.inf, "trans_frac"),
    ])
    def test_non_finite_magnitude_named(self, rot_deg, trans_frac, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            perturb_pose(Pose6DoF(np.zeros(3), GT_TRANS), rot_deg, trans_frac, seed=1)

    def test_bool_magnitude_rejected(self):
        with pytest.raises(ValueError, match="^rot_deg must be a number, got True$"):
            perturb_pose(Pose6DoF(np.zeros(3), GT_TRANS), True, 0.02, seed=1)


class TestAlignOptions:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            AlignOptions(mode="newton")
        with pytest.raises(ValueError, match="max_iters"):
            AlignOptions(max_iters=0)
        with pytest.raises(ValueError, match="pyramid_levels"):
            AlignOptions(pyramid_levels=0)

    @pytest.mark.parametrize("name", ["max_iters", "pyramid_levels"])
    @pytest.mark.parametrize("value", [2.5, 1.0, float("nan"), True, "3"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            AlignOptions(**{name: value})

    @pytest.mark.parametrize("weights", [None, 0.1])
    def test_weights_must_be_loss_weights(self, weights):
        with pytest.raises(ValueError, match="weights"):
            AlignOptions(weights=weights)

    def test_numpy_integer_counts_accepted(self):
        opts = AlignOptions(max_iters=np.int64(7), pyramid_levels=np.int32(2))
        assert opts.max_iters == 7 and opts.pyramid_levels == 2


def _flat(size: int, channels: int = 1) -> ImageBuffer:
    return ImageBuffer(np.full((size, size, channels), 0.5))


class TestInputChecks:
    """An argument of the wrong type, or a size, channel or pyramid-depth
    mismatch, is rejected before the pyramid is built, naming the caller's
    arguments, not the coarsest level's arrays."""

    SOLVES = {
        "pose": lambda t, s, dt, ds, opts: align_pose(
            t, s, dt, default_intrinsics(t.width, t.height), Pose6DoF(np.zeros(3), GT_TRANS),
            opts),
        "pair": lambda t, s, dt, ds, opts: align_pose_pair(
            t, s, dt, ds, default_intrinsics(t.width, t.height),
            Pose6DoF(np.zeros(3), GT_TRANS), Pose6DoF(np.zeros(3), -GT_TRANS), opts),
    }

    @pytest.mark.parametrize("solve", ["pose", "pair"])
    def test_depth_size(self, solve):
        message = "^target 16x16 and depth(_target)? 8x8 sizes differ$"
        with pytest.raises(ValueError, match=message):
            self.SOLVES[solve](_flat(16), _flat(16), DepthMap(np.ones((8, 8))),
                               DepthMap(np.ones((16, 16))), AlignOptions())

    def test_depth_source_size(self):
        with pytest.raises(ValueError, match="^target 16x16 and depth_source 8x8 sizes differ$"):
            self.SOLVES["pair"](_flat(16), _flat(16), DepthMap(np.ones((16, 16))),
                                DepthMap(np.ones((8, 8))), AlignOptions())

    @pytest.mark.parametrize("solve", ["pose", "pair"])
    def test_source_size(self, solve):
        depth = DepthMap(np.ones((16, 16)))
        with pytest.raises(ValueError, match="^target 16x16 and source 8x8 sizes differ$"):
            self.SOLVES[solve](_flat(16), _flat(8), depth, depth, AlignOptions())

    @pytest.mark.parametrize("solve", ["pose", "pair"])
    def test_channels(self, solve):
        depth = DepthMap(np.ones((16, 16)))
        with pytest.raises(ValueError, match="^target has 3 channels and source 1; "):
            self.SOLVES[solve](_flat(16, 3), _flat(16), depth, depth, AlignOptions())

    @pytest.mark.parametrize("solve", ["pose", "pair"])
    def test_pyramid_deeper_than_image(self, solve):
        depth = DepthMap(np.ones((16, 16)))
        with pytest.raises(ValueError, match="^pyramid_levels=6 needs images of at least 32x32 "
                                             "pixels, got target 16x16$"):
            self.SOLVES[solve](_flat(16), _flat(16), depth, depth,
                               AlignOptions(pyramid_levels=6))

    # One wrong-type value per argument of each solve, with the type it needs.
    WRONG = {
        "target": (DepthMap(np.full((16, 16), 0.5)), "ImageBuffer"),
        "source": (np.full((16, 16, 1), 0.5), "ImageBuffer"),
        "depth": (np.ones((16, 16)), "DepthMap"),
        "k": (np.eye(3), "CameraIntrinsics"),
        "init": (SE3Transform.from_translation(GT_TRANS), "Pose6DoF"),
        "opts": ({"mode": "pose_only"}, "AlignOptions"),
    }

    @pytest.mark.parametrize("solve, name, kind", [
        *(("pose", name, name) for name in ("target", "source", "depth", "k", "init", "opts")),
        *(("pair", name, kind) for name, kind in (
            ("target", "target"), ("source", "source"), ("depth_target", "depth"),
            ("depth_source", "depth"), ("k", "k"), ("init_forward", "init"),
            ("init_backward", "init"), ("opts", "opts"))),
    ])
    def test_wrong_type_named(self, solve, name, kind):
        depth, pose = DepthMap(np.ones((16, 16))), Pose6DoF(np.zeros(3), GT_TRANS)
        args = {"target": _flat(16), "source": _flat(16), "k": default_intrinsics(16, 16),
                "opts": AlignOptions()}
        if solve == "pose":
            args.update(depth=depth, init=pose)
        else:
            args.update(depth_target=depth, depth_source=depth, init_forward=pose,
                        init_backward=pose)
        value, cls = self.WRONG[kind]
        args[name] = value
        run = align_pose if solve == "pose" else align_pose_pair
        message = f"^{name} must be a {cls}, got {type(value).__name__}$"
        with pytest.raises(ValueError, match=message):
            run(**args)

    def test_deepest_pyramid_the_image_allows_runs(self):
        # 16 = 2^4, so five levels reach a 1x1 image and run.
        depth = DepthMap(np.ones((16, 16)))
        report = self.SOLVES["pose"](_flat(16), _flat(16), depth, depth,
                                     AlignOptions(max_iters=1, pyramid_levels=5))
        assert np.isfinite(report.final_loss)


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
        # Gauss-Newton converges at one level from 3 deg / 10 %, so the init
        # sits far enough out that only the coarse levels widen the basin.
        pair, k, gt6 = slanted64
        init = perturb_pose(gt6, 20.0, 0.5, seed=5)
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
    def test_all_levels_skipped_returns_input_depth(self, slanted64):
        # No level runs, so no level may hand a blurred coarse depth upward.
        pair, k, _ = slanted64
        report = align_pose(
            pair.target, pair.source, pair.gt_depth, k,
            Pose6DoF(np.zeros(3), np.array([0.0, 0.0, -12.0])),
            AlignOptions(mode="pose_and_depth", max_iters=5),
        )
        assert report.iters == 0
        assert np.array_equal(report.depth.data, pair.gt_depth.data)

    def test_skipped_coarsest_level_changes_nothing(self):
        # At 32x32 the sixth level is 1x1 with no valid pixel; the fifth
        # level must start from the caller's depth, as with five levels.
        k = default_intrinsics(32, 32)
        pair = render_pair(
            make_scene("slanted_plane"), SE3Transform.from_translation(GT_TRANS), k, 32, 32
        )
        init = perturb_pose(Pose6DoF(np.zeros(3), GT_TRANS), 1.0, 0.02, seed=5)
        five, six = (
            align_pose(pair.target, pair.source, pair.gt_depth, k, init,
                       AlignOptions(mode="pose_and_depth", max_iters=10, pyramid_levels=n))
            for n in (5, 6)
        )
        assert (six.iters, six.converged, six.final_loss) == (
            five.iters, five.converged, five.final_loss
        )
        assert six.loss_history == five.loss_history
        assert np.array_equal(six.pose.rot, five.pose.rot)
        assert np.array_equal(six.pose.trans, five.pose.trans)
        assert np.array_equal(six.depth.data, five.depth.data)

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
    def test_only_pose_only_mode_accepted(self, slanted32):
        # The depths are inputs of the pair solve, never unknowns.
        pair, depth_source, k, gt6 = slanted32
        with pytest.raises(ValueError, match="poses only, got mode 'pose_and_depth'"):
            align_pose_pair(pair.target, pair.source, pair.gt_depth, depth_source, k, gt6, gt6,
                            AlignOptions(mode="pose_and_depth"))

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
        for est, ref in ((report.pose_forward, gt6), (report.pose_backward, gt_bwd)):
            rot_err, trans_err = _pose_errors(est, ref)
            assert rot_err < 2.0
            assert trans_err / np.linalg.norm(GT_TRANS) < 0.05

    @pytest.mark.parametrize("scene_seed", [42, 101])
    def test_forward_pose_recovered(self, scene_seed):
        # The 12x12 solve holds the bf residuals inside the normal equations,
        # so the poses meet at the truth instead of at a compromise.
        k = default_intrinsics(64, 64)
        gt_fwd = SE3Transform.from_translation(GT_TRANS)
        scene = make_scene("slanted_plane", seed=scene_seed)
        pair = render_pair(scene, gt_fwd, k, 64, 64)
        _, depth_source, _ = render_view(scene, gt_fwd, k, 64, 64)
        gt6 = Pose6DoF(np.zeros(3), GT_TRANS)
        bwd = inverse(gt_fwd)
        report = align_pose_pair(
            pair.target, pair.source, pair.gt_depth, depth_source, k,
            perturb_pose(gt6, 1.0, 0.02, seed=1),
            perturb_pose(Pose6DoF(log_so3(bwd.r), bwd.t), 1.0, 0.02, seed=2),
            AlignOptions(max_iters=200, weights=LossWeights(lambda_bf=10.0)),
        )
        rot_err, trans_err = _pose_errors(report.pose_forward, gt6)
        assert rot_err < 0.05
        assert trans_err / np.linalg.norm(GT_TRANS) < 0.005
        assert report.bf_term < 1e-4
        assert _monotone(report.loss_history)


class TestDefaultOptions:
    @pytest.mark.parametrize("solve", ["pose", "pair"])
    def test_omitted_opts_mean_the_defaults(self, slanted32, solve):
        pair, depth_source, k, gt6 = slanted32
        init = perturb_pose(gt6, 1.0, 0.02, seed=1)
        if solve == "pose":
            args = (pair.target, pair.source, pair.gt_depth, k, init)
            omitted, default = align_pose(*args), align_pose(*args, AlignOptions())
        else:
            args = (pair.target, pair.source, pair.gt_depth, depth_source, k, init, init)
            omitted, default = align_pose_pair(*args), align_pose_pair(*args, AlignOptions())
        assert omitted.loss_history == default.loss_history
        assert omitted.iters == default.iters and omitted.converged == default.converged


def _random_pose(rng: np.random.Generator) -> SE3Transform:
    return Pose6DoF(rng.uniform(-0.5, 0.5, 3), rng.normal(size=3)).to_transform()


def _step(before: SE3Transform, after: SE3Transform) -> np.ndarray:
    """The 6-vector d with after = retract_pose(before, d)."""
    return np.concatenate([log_so3(Rotation(after.r.m @ before.r.m.T)), after.t - before.t])


class TestPairChart:
    """The pair block steps in (F, E) with E = B o F; _pair_chart is the
    Jacobian C = d(F, B) / d(F, E) of that step, read in retract_pose's
    parameters."""

    def test_matches_central_differences_of_the_step(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(10):
            poses = (_random_pose(rng), _random_pose(rng))
            numeric = np.empty((12, 12))
            for j in range(12):
                d = np.zeros(12)
                d[j] = h
                plus = align_module._retract_pair(poses, d)
                minus = align_module._retract_pair(poses, -d)
                for i in range(2):
                    numeric[6 * i:6 * i + 6, j] = (
                        _step(poses[i], plus[i]) - _step(poses[i], minus[i])) / (2 * h)
            np.testing.assert_allclose(align_module._pair_chart(*poses), numeric, atol=1e-8)

    def test_bf_residuals_depend_on_e_alone(self):
        # Checked against se3's own Jacobian: columns of dF at fixed E vanish.
        rng = np.random.default_rng(13)
        for _ in range(50):
            poses = (_random_pose(rng), _random_pose(rng))
            _, jac = bf_residual_jacobian(*poses)
            pulled = jac @ align_module._pair_chart(*poses)
            assert np.max(np.abs(pulled[:, :6])) < 1e-12


class TestZeroGradient:
    def test_block_costs_no_loss_evaluation(self):
        def never(*_):
            raise AssertionError("a zero gradient must not evaluate or retract")

        zero = np.zeros(6)
        for direction in (zero, np.ones(6), -np.ones(6)):
            slope = float(np.sum(zero * direction))
            assert align_module._backtrack(never, never, "x", 1.0, slope, direction, 1.0) is None
        # A level whose only block has a zero gradient converges at once,
        # after the one evaluation of its starting loss.
        losses = []

        def loss(x, _bound):
            losses.append(x)
            return 1.0

        def level(li, x, ran):
            newton = lambda ev: (float(np.sum(zero * -np.ones(6))), -np.ones(6))
            return x, loss, lambda x: "ev", [(newton, never)]

        opts = AlignOptions(max_iters=5, pyramid_levels=1)
        assert align_module._coarse_to_fine("x", level, opts) == ("x", 1.0, 1, True, (1.0,))
        assert losses == ["x"]


class TestStepRule:
    """Each line search starts where the last one's gain ratio points, on a
    synthetic level with known losses: sum a_i x_i^2 for a = 1..6, whose IRLS
    model underestimates the curvature three times, so the Newton step
    d = -3x overshoots and t = 1/2 lands on -x/2."""

    A = np.arange(1.0, 7.0)

    @staticmethod
    def _solve(x0, loss, evaluate, blocks, **opts):
        """_coarse_to_fine where every pyramid level is the same synthetic level."""
        return align_module._coarse_to_fine(
            x0, lambda li, x, ran: (x, loss, evaluate, blocks), AlignOptions(**opts))

    @staticmethod
    def _block(part, flip_at=None):
        """(newton, retract) of the Newton step on x[part]; the flip_at-th
        newton call returns the ascent direction instead."""
        calls = []

        def newton(ev):
            calls.append(ev)
            grad, curv = ev[0][part], ev[1][part]
            d = grad / curv if len(calls) == flip_at else -grad / curv
            return float(np.sum(grad * d)), d

        def retract(x, delta):
            x = x.copy()
            x[part] += delta
            return x

        return newton, retract

    @pytest.fixture
    def starts(self, monkeypatch):
        """The start step of every align._backtrack call, in order."""
        starts = []
        inner = align_module._backtrack

        def recording(*args):
            starts.append(args[6])
            return inner(*args)

        monkeypatch.setattr(align_module, "_backtrack", recording)
        return starts

    def test_searches_start_at_the_last_accepted_step(self, monkeypatch):
        evals, starts, accepted, nexts = [], [], [], []

        def loss(x, _bound):
            evals.append(x)
            return float(np.sum(self.A * x * x))

        inner = align_module._backtrack

        def recording(loss_fn, retract, x, loss0, slope, direction, step):
            starts.append(step)
            res = inner(loss_fn, retract, x, loss0, slope, direction, step)
            accepted.append(float(np.mean((res[0] - x) / direction)))
            nexts.append(res[2])
            return res

        monkeypatch.setattr(align_module, "_backtrack", recording)
        x, final, iters, converged, history = self._solve(
            np.ones(6), loss, lambda x: (2 * self.A * x, np.diag(2 * self.A / 3)),
            [(lambda ev: align_module._gauss_newton(*ev), lambda x, d: x + d)],
            max_iters=20, pyramid_levels=1)
        # t = 1 costs 4x the loss; t = 1/2 quarters it, a gain ratio of 1/3,
        # so every later search starts, and accepts, at 1/2: after the
        # level's starting loss, 21 evaluations where starting each search
        # at 1 takes 40, for the same iterates.
        assert (iters, converged) == (20, False)
        assert len(evals) == 1 + 21
        assert accepted == [0.5] * 20
        assert nexts == [0.5] * 20
        assert starts == [1.0] + [0.5] * 19
        assert history == tuple(21.0 * 4.0 ** -i for i in range(21))
        assert final == history[-1]
        np.testing.assert_array_equal(x, (-0.5) ** 20 * np.ones(6))

    def test_a_failed_search_leaves_the_level(self, monkeypatch):
        """Two pyramid levels of two blocks, each the level above on its own
        half of x. Block 0's second direction does not descend, so that
        search fails without an evaluation and block 0 leaves the coarse
        level: no further Newton step or search there, while block 1 steps
        on. The fine level starts both blocks again, at 1."""
        a = np.tile(self.A, 2)
        blocks = [self._block(slice(0, 6), flip_at=2), self._block(slice(6, 12))]
        log = []

        def logged(b):
            newton, retract = blocks[b]
            return lambda ev: log.append(("newton", b)) or newton(ev), retract

        def level(li, x, ran):
            log.append(("level", li))
            return (x, lambda x, _bound: float(np.sum(a * x * x)),
                    lambda x: (2 * a * x, 2 * a / 3), [logged(0), logged(1)])

        inner = align_module._backtrack

        def recording(loss_fn, retract, *args):
            res = inner(loss_fn, retract, *args)
            b = [r for _, r in blocks].index(retract)
            log.append(("search", b, args[-1], res is not None))
            return res

        monkeypatch.setattr(align_module, "_backtrack", recording)
        x, _, iters, converged, history = align_module._coarse_to_fine(
            np.ones(12), level, AlignOptions(max_iters=3, pyramid_levels=2))
        both = [("newton", 0), ("newton", 1)]
        assert log == [
            ("level", 1),
            *both, ("search", 0, 1.0, True), ("search", 1, 1.0, True),
            *both, ("search", 0, 0.5, False), ("search", 1, 0.5, True),
            ("newton", 1), ("search", 1, 0.5, True),
            ("level", 0),
            *both, ("search", 0, 1.0, True), ("search", 1, 1.0, True),
            *both, ("search", 0, 0.5, True), ("search", 1, 0.5, True),
            *both, ("search", 0, 0.5, True), ("search", 1, 0.5, True),
        ]
        # history is the fine level's: its starting loss, then 6 accepted steps.
        assert (iters, converged, len(history)) == (6, False, 7)
        np.testing.assert_array_equal(x[:6], (-0.5) ** 4 * np.ones(6))
        np.testing.assert_array_equal(x[6:], (-0.5) ** 6 * np.ones(6))

    def test_every_level_restarts_each_search_at_1(self, starts):
        """Two pyramid levels of the two-block level above: each block's
        searches settle at 1/2 on the coarse level, and the fine level still
        starts each block's first search at 1."""
        a = np.tile(self.A, 2)
        x, _, iters, converged, history = self._solve(
            np.ones(12), lambda x, _bound: float(np.sum(a * x * x)),
            lambda x: (2 * a * x, 2 * a / 3),
            [self._block(slice(0, 6)), self._block(slice(6, 12))],
            max_iters=3, pyramid_levels=2)
        assert (iters, converged) == (6, False)
        assert starts[0::2] == [1.0, 0.5, 0.5] * 2
        assert starts[1::2] == [1.0, 0.5, 0.5] * 2
        # history is the fine level's: its starting loss, where the coarse
        # level's 3 iterations left it, then 6 accepted steps.
        assert len(history) == 7
        assert (history[0], history[-1]) == (42.0 * 4.0 ** -3, 42.0 * 4.0 ** -6)
        np.testing.assert_array_equal(x, (-0.5) ** 6 * np.ones(12))

    @pytest.mark.parametrize("step, gain, start", [
        (0.5, 0.9, 1.0), (1.0, 0.9, 1.0), (0.25, 0.76, 0.5),
        (0.5, 0.75, 0.5), (0.5, 0.25, 0.5), (0.5, 0.24, 0.25), (1.0, 0.1, 0.5),
    ])
    def test_next_start(self, step, gain, start):
        assert align_module._next_start(step, gain) == start


class TestModelStop:
    """Every level, the finest one included, ends once every block's model
    decrease -g.d/2 is below MODEL_RTOL of the loss. The synthetic level is
    1 + sum x_i^2 with one block per coordinate, whose Newton step -x_i is
    exact: its model decrease is x_i^2, and one full step lands on 0."""

    @staticmethod
    def _solve(x0, levels):
        """_coarse_to_fine over `levels` copies of the synthetic level, with
        the number of loss evaluations and evaluate calls of each level
        (coarsest first)."""
        log = []

        def loss(x, _bound):
            log[-1]["losses"] += 1
            return 1.0 + float(np.sum(x * x))

        def evaluate(x):
            log[-1]["evaluations"] += 1
            return 2 * x, 2.0

        def block(i):
            def newton(ev):
                g, d = ev[0][i], -ev[0][i] / ev[1]
                return g * d, d

            def retract(x, delta):
                x = x.copy()
                x[i] += delta
                return x

            return newton, retract

        def level(li, x, ran):
            log.append({"losses": 0, "evaluations": 0})
            return x, loss, evaluate, [block(i) for i in range(len(x))]

        res = align_module._coarse_to_fine(
            np.asarray(x0, dtype=float), level, AlignOptions(max_iters=50, pyramid_levels=levels))
        return res, log

    @pytest.mark.parametrize("levels", [1, 2])
    def test_a_small_model_decrease_ends_every_level_at_once(self, levels):
        # 1e-6 predicted against a loss of 1 + 1e-6: each level ends after
        # its starting loss and one evaluation, with no line search, and
        # the run converges where it started.
        assert 1e-6 < align_module.MODEL_RTOL
        (x, loss, iters, converged, history), log = self._solve([1e-3], levels)
        assert log == [{"losses": 1, "evaluations": 1}] * levels
        assert (iters, converged) == (levels, True)
        assert history == (1.0 + 1e-6,)
        assert (x.tolist(), loss) == ([1e-3], 1.0 + 1e-6)

    def test_one_large_block_keeps_a_coarse_level_running(self):
        # Block 0 predicts 1e-6 and block 1 predicts 1e-2: both step to 0,
        # and the next evaluation, predicting 0 for both, ends the level.
        (x, _, iters, converged, _), log = self._solve([1e-3, 0.1], levels=2)
        assert log[0] == {"losses": 3, "evaluations": 2}
        assert log[1] == {"losses": 1, "evaluations": 1}
        assert (x.tolist(), iters, converged) == ([0.0, 0.0], 3, True)


class TestEvaluationCounts:
    """One loss_gradients call per iteration in both align_pose modes, at
    the state the iteration starts from, two (one per direction) in the pair
    solve, each asking for the blocks its solve reads, no state evaluated
    twice in a row in any mode, and a non-increasing history. Every loss
    evaluation warps through egowarp.align.inverse_warp once per direction,
    the binding a profiler wraps to count them, except an align_pose line
    search candidate whose lambda_smo * smoothness alone exceeds its Armijo
    bound: that one does not warp."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Image heights, (depth, pose) arguments and keyword arguments of
        the loss_gradients calls, the number of egowarp.align.inverse_warp
        calls, and the inverse_warp calls made by each loss evaluation
        inside align._backtrack, with that evaluation's (state, bound)."""
        counts = SimpleNamespace(grads=[], states=[], kwargs=[], warps=0, per_loss_eval=[],
                                 candidates=[])
        inner_grads = align_module.loss_gradients
        inner_warp = align_module.inverse_warp
        inner_backtrack = align_module._backtrack

        def grads(*args, **kwargs):
            counts.grads.append(args[0].height)
            counts.states.append(args[2:4])
            counts.kwargs.append(kwargs)
            return inner_grads(*args, **kwargs)

        def warp(*args, **kwargs):
            counts.warps += 1
            return inner_warp(*args, **kwargs)

        def backtrack(loss_fn, *args):
            def counted_loss(x, bound):
                before = counts.warps
                loss = loss_fn(x, bound)
                counts.per_loss_eval.append(counts.warps - before)
                counts.candidates.append((x, bound))
                return loss
            return inner_backtrack(counted_loss, *args)

        monkeypatch.setattr(align_module, "loss_gradients", grads)
        monkeypatch.setattr(align_module, "inverse_warp", warp)
        monkeypatch.setattr(align_module, "_backtrack", backtrack)
        return counts

    @pytest.mark.parametrize("mode, per_iter", [("pose_only", 1), ("pose_and_depth", 1)])
    def test_align_pose(self, counted, slanted32, mode, per_iter):
        pair, _, k, gt6 = slanted32
        opts = AlignOptions(mode=mode, max_iters=40)
        report = align_pose(
            pair.target, pair.source, pair.gt_depth, k, perturb_pose(gt6, 1.0, 0.02, seed=5), opts
        )
        assert report.iters > 0
        assert len(counted.grads) == per_iter * report.iters
        assert set(counted.grads) == {32, 16, 8}
        # Only pose_and_depth reads the depth block.
        pose_only = mode == "pose_only"
        assert counted.kwargs == [{"curvature": True, "pose_only": pose_only}] * len(counted.grads)
        assert _monotone(report.loss_history)
        # At most one warp per line-search evaluation, plus each level's
        # starting loss. A candidate makes none exactly when its smoothness
        # term alone exceeds the Armijo bound, which never happens to a
        # pose-only candidate: its smoothness is the starting depth's.
        targets = {t.height: t for t in image_pyramid(pair.target, opts.pyramid_levels)}
        over = [opts.weights.lambda_smo * smoothness(d, targets[d.height]) > bound
                for (_, d, _), bound in counted.candidates]
        assert counted.per_loss_eval == [0 if o else 1 for o in over]
        assert any(over) == (mode == "pose_and_depth")
        assert counted.warps == len(counted.per_loss_eval) - sum(over) + 3

    def test_skipped_candidates_fail_the_armijo_test(self, counted, slanted32):
        """Every pose_and_depth candidate rejected without a warp has a total
        loss, recomputed by the public loss stack, above its Armijo bound."""
        pair, _, k, gt6 = slanted32
        opts = AlignOptions(mode="pose_and_depth", max_iters=40)
        align_pose(pair.target, pair.source, pair.gt_depth, k,
                   perturb_pose(gt6, 1.0, 0.02, seed=5), opts)
        n = opts.pyramid_levels
        levels = {t.height: (t, s, k_l) for t, s, k_l in zip(
            image_pyramid(pair.target, n), image_pyramid(pair.source, n),
            intrinsics_pyramid(k, n))}
        skipped = [c for c, warps in zip(counted.candidates, counted.per_loss_eval) if warps == 0]
        assert skipped
        for (pose, depth, _), bound in skipped:
            target, source, k_l = levels[depth.height]
            ones = WeightMask.ones(target.height, target.width)
            recon, valid = inverse_warp(source, depth, pose, k_l)
            total = total_loss(photometric_l1(target, recon, ones, valid),
                               smoothness(depth, target), 0.0, 0.0, opts.weights)
            assert total > bound

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
        assert len(counted.grads) == 2 * report.iters
        # Both directions ask for the pose block alone.
        assert counted.kwargs == [{"curvature": True, "pose_only": True}] * len(counted.grads)
        assert _monotone(report.loss_history)
        assert counted.per_loss_eval and set(counted.per_loss_eval) == {2}
        assert counted.warps == 2 * (len(counted.per_loss_eval) + 3)

    def test_a_failed_search_leaves_its_level(self, counted, slanted32, monkeypatch):
        """pose_and_depth: once a block's line search fails, that block does
        not search again in its level, and every iteration still makes its
        one loss_gradients call."""
        searches = []  # (level size, block, accepted) of each line search, in order
        inner = align_module._backtrack

        def recording(loss_fn, retract, x, loss0, slope, direction, step):
            res = inner(loss_fn, retract, x, loss0, slope, direction, step)
            block = "pose" if direction.ndim == 1 else "depth"
            searches.append((x[1].height, block, res is not None))
            return res

        monkeypatch.setattr(align_module, "_backtrack", recording)
        pair, _, k, gt6 = slanted32
        report = align_pose(pair.target, pair.source, pair.gt_depth, k,
                            perturb_pose(gt6, 1.0, 0.02, seed=5),
                            AlignOptions(mode="pose_and_depth", max_iters=40))
        assert len(counted.grads) == report.iters
        left = []
        for size, block, accepted in searches:
            assert (size, block) not in left
            if not accepted:
                left.append((size, block))
        assert left

    @pytest.mark.parametrize("mode", ["pose_only", "pose_and_depth", "pair"])
    def test_no_state_is_evaluated_twice_in_a_row(self, counted, slanted32, mode):
        """Every block steps from its iteration's one evaluation, and a block
        whose search fails leaves the level, which ends once none is left:
        consecutive loss_gradients calls never get the same depth and pose
        objects."""
        pair, depth_source, k, gt6 = slanted32
        init = perturb_pose(gt6, 1.0, 0.02, seed=5)
        if mode == "pair":
            bwd = inverse(SE3Transform.from_translation(GT_TRANS))
            align_pose_pair(pair.target, pair.source, pair.gt_depth, depth_source, k, init,
                            perturb_pose(Pose6DoF(log_so3(bwd.r), bwd.t), 1.0, 0.02, seed=2),
                            AlignOptions(max_iters=40, weights=LossWeights(lambda_bf=10.0)))
        else:
            align_pose(pair.target, pair.source, pair.gt_depth, k, init,
                       AlignOptions(mode=mode, max_iters=40))
        states = counted.states
        assert len(states) > 1
        repeats = [i for i, ((d0, p0), (d1, p1)) in enumerate(zip(states, states[1:]))
                   if d0 is d1 and p0 is p1]
        assert repeats == []


    def test_pose_solve_warp_budget(self, counted):
        """The pose solve on criterion 5's 128^2 inputs: each line search
        starts where the last gain ratio points, so most accept at once."""
        k = default_intrinsics(128, 128)
        gt = SE3Transform.from_translation(GT_TRANS)
        pair = render_pair(make_scene("slanted_plane"), gt, k, 128, 128)
        report = align_pose(pair.target, pair.source, pair.gt_depth, k,
                            perturb_pose(Pose6DoF(np.zeros(3), GT_TRANS), 1.0, 0.02, seed=42),
                            AlignOptions(max_iters=1500))
        assert report.converged
        assert counted.warps <= 40

    def test_pose_and_depth_warp_budget(self, counted):
        """pose_and_depth at 64^2 from 5 % depth noise and four inits: a
        block whose line search fails leaves its level, so a depth block
        that finds no decrease stops paying for searches, and a depth
        candidate whose smoothness term alone fails the Armijo test does not
        warp. Each solve keeps its depth and pose accuracy."""
        k = default_intrinsics(64, 64)
        pair = render_pair(
            make_scene("slanted_plane"), SE3Transform.from_translation(GT_TRANS), k, 64, 64
        )
        noise = np.random.default_rng(8).normal(size=(64, 64))
        noisy = DepthMap(pair.gt_depth.data * np.clip(1 + 0.05 * noise, 0.5, 1.5))
        gt6 = Pose6DoF(np.zeros(3), GT_TRANS)
        for seed in range(1, 5):
            report = align_pose(pair.target, pair.source, noisy, k,
                                perturb_pose(gt6, 1.0, 0.02, seed=seed),
                                AlignOptions(mode="pose_and_depth", max_iters=100))
            assert report.converged and _monotone(report.loss_history)
            abs_rel = np.mean(np.abs(report.depth.data - pair.gt_depth.data) / pair.gt_depth.data)
            rot, trans = _pose_errors(report.pose, gt6)
            assert abs_rel < 0.0075
            assert rot < 0.1 and trans / np.linalg.norm(GT_TRANS) < 0.02
        assert counted.warps <= 650

    @pytest.mark.parametrize("size, max_warps", [(64, 45), (128, 80)])
    def test_pair_solve_warp_budget(self, counted, size, max_warps):
        """The pair solve on criterion 5's scene and inits, at criterion 5's
        128^2 and at 64^2: stepping in (F, E) and starting each line search
        where the last gain ratio points keep the line searches short."""
        k = default_intrinsics(size, size)
        gt_fwd = SE3Transform.from_translation(GT_TRANS)
        scene = make_scene("slanted_plane")
        pair = render_pair(scene, gt_fwd, k, size, size)
        _, depth_source, _ = render_view(scene, gt_fwd, k, size, size)
        bwd = inverse(gt_fwd)
        report = align_pose_pair(
            pair.target, pair.source, pair.gt_depth, depth_source, k,
            perturb_pose(Pose6DoF(np.zeros(3), GT_TRANS), 1.0, 0.02, seed=1),
            perturb_pose(Pose6DoF(log_so3(bwd.r), bwd.t), 1.0, 0.02, seed=2),
            AlignOptions(max_iters=500 if size == 128 else 200,
                         weights=LossWeights(lambda_bf=10.0)),
        )
        assert report.bf_term < 1e-4
        assert counted.warps <= max_warps


class TestLevelLoss:
    """At one pyramid level a solve's final_loss is the loss stack's own
    total at the last state the line search accepted, bit for bit:
    photometric_l1 of the warp, smoothness of that state's depth and the
    all-ones mask's explainability term. A smoothness kept from a depth the
    solve has replaced shows here."""

    @pytest.fixture
    def accepted(self, monkeypatch):
        """The (state, loss) results align._backtrack accepted, in order."""
        results = []
        inner = align_module._backtrack

        def recording(*args):
            res = inner(*args)
            if res is not None:
                results.append(res)
            return res

        monkeypatch.setattr(align_module, "_backtrack", recording)
        return results

    @staticmethod
    def _total(target, source, depth, pose, k, weights):
        ones = WeightMask.ones(target.height, target.width)
        recon, valid = inverse_warp(source, depth, pose, k)
        return total_loss(photometric_l1(target, recon, ones, valid), smoothness(depth, target),
                          explainability_reg(ones), 0.0, weights)

    def test_pose_only(self, accepted, slanted32):
        pair, _, k, gt6 = slanted32
        opts = AlignOptions(max_iters=10, pyramid_levels=1)
        report = align_pose(pair.target, pair.source, pair.gt_depth, k,
                            perturb_pose(gt6, 1.0, 0.02, seed=5), opts)
        assert accepted
        pose = accepted[-1][0][0]
        want = self._total(pair.target, pair.source, pair.gt_depth, pose, k, opts.weights)
        assert report.final_loss == want

    def test_pose_and_depth(self, accepted, slanted32):
        pair, _, k, gt6 = slanted32
        rng = np.random.default_rng(8)
        noisy = pair.gt_depth.data * np.clip(1.0 + 0.05 * rng.standard_normal((32, 32)), 0.5, 1.5)
        opts = AlignOptions(mode="pose_and_depth", max_iters=10, pyramid_levels=1)
        report = align_pose(pair.target, pair.source, DepthMap(noisy), k,
                            perturb_pose(gt6, 1.0, 0.02, seed=5), opts)
        assert not np.array_equal(report.depth.data, noisy)
        pose = accepted[-1][0][0]
        want = self._total(pair.target, pair.source, report.depth, pose, k, opts.weights)
        assert report.final_loss == want

    def test_pair(self, accepted, slanted32):
        pair, depth_source, k, gt6 = slanted32
        bwd = inverse(SE3Transform.from_translation(GT_TRANS))
        opts = AlignOptions(max_iters=10, pyramid_levels=1,
                            weights=LossWeights(lambda_bf=10.0))
        report = align_pose_pair(
            pair.target, pair.source, pair.gt_depth, depth_source, k,
            perturb_pose(gt6, 1.0, 0.02, seed=1),
            perturb_pose(Pose6DoF(log_so3(bwd.r), bwd.t), 1.0, 0.02, seed=2), opts,
        )
        assert accepted
        fwd, bwd = accepted[-1][0]
        w = opts.weights
        want = (self._total(pair.target, pair.source, pair.gt_depth, fwd, k, w)
                + self._total(pair.source, pair.target, depth_source, bwd, k, w)
                + w.lambda_bf * bf_consistency_loss([(fwd, bwd)]))
        assert report.final_loss == want

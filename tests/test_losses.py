"""Loss-stack tests with paper-and-pencil oracles.

Every numeric expectation below is computable by hand: the photometric
cases use 1x2 or 2x2 images where the sum has two or four terms, the
regularizer cases use constant masks where the mean collapses to a single
log, and the smoothness cases have one forward difference per axis.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import egowarp.camera as camera_module
from egowarp import (
    CameraIntrinsics,
    DegenerateInputError,
    DepthMap,
    ImageBuffer,
    LossWeights,
    SE3Transform,
    ValidityMask,
    WeightMask,
    exp_so3,
    explainability_reg,
    inverse_warp,
    loss_gradients,
    multiscale_smoothness,
    photometric_l1,
    pixel_grid,
    reproject_grid,
    smoothness,
    total_loss,
    warp_jacobians,
)


def _img(rows) -> ImageBuffer:
    return ImageBuffer.grayscale(np.array(rows, dtype=float))


class TestPhotometricL1:
    def test_hand_two_pixel_case(self):
        target = _img([[0.5, 0.8]])
        recon = _img([[0.3, 0.2]])
        mask = WeightMask.ones(1, 2)
        valid = ValidityMask.all_valid(1, 2)
        # (|0.2| + |0.6|) / 2
        assert photometric_l1(target, recon, mask, valid) == pytest.approx(0.4, abs=1e-15)

    def test_mask_weights_numerator_only(self):
        target = _img([[0.5, 0.8]])
        recon = _img([[0.3, 0.2]])
        mask = WeightMask(np.array([[1.0, 0.0]]))
        valid = ValidityMask.all_valid(1, 2)
        # masked term contributes 0 but |V| stays 2
        assert photometric_l1(target, recon, mask, valid) == pytest.approx(0.1, abs=1e-15)

    def test_invalid_shrinks_denominator(self):
        target = _img([[0.5, 0.8]])
        recon = _img([[0.3, 0.2]])
        mask = WeightMask.ones(1, 2)
        valid = ValidityMask(np.array([[True, False]]))
        assert photometric_l1(target, recon, mask, valid) == pytest.approx(0.2, abs=1e-15)

    def test_channels_summed_not_averaged(self):
        t = ImageBuffer(np.full((1, 1, 3), 0.5))
        r = ImageBuffer(np.full((1, 1, 3), 0.3))
        mask = WeightMask.ones(1, 1)
        valid = ValidityMask.all_valid(1, 1)
        assert photometric_l1(t, r, mask, valid) == pytest.approx(0.6, abs=1e-15)

    def test_identical_images_zero(self):
        rng = np.random.default_rng(0)
        img = ImageBuffer.grayscale(rng.uniform(0, 1, (5, 7)))
        assert photometric_l1(
            img, img, WeightMask.ones(5, 7), ValidityMask.all_valid(5, 7)
        ) == 0.0

    def test_all_invalid_raises(self):
        img = _img([[0.5]])
        with pytest.raises(DegenerateInputError):
            photometric_l1(
                img, img, WeightMask.ones(1, 1), ValidityMask(np.array([[False]]))
            )

    def test_masked_equals_unmasked_with_unit_mask(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = ImageBuffer.grayscale(rng.uniform(0, 1, (6, 6)))
            r = ImageBuffer.grayscale(rng.uniform(0, 1, (6, 6)))
            valid = ValidityMask(rng.uniform(0, 1, (6, 6)) > 0.3)
            if valid.count == 0:
                continue
            masked = photometric_l1(t, r, WeightMask.ones(6, 6), valid)
            plain = float(
                np.sum(np.abs(t.data - r.data).sum(axis=2) * valid.data) / valid.count
            )
            assert masked == plain

    def test_zero_mask_gives_zero(self):
        t = _img([[0.5, 0.1]])
        r = _img([[0.9, 0.7]])
        mask = WeightMask(np.zeros((1, 2)))
        assert photometric_l1(t, r, mask, ValidityMask.all_valid(1, 2)) == 0.0


class TestExplainabilityReg:
    def test_unit_mask_is_zero(self):
        assert explainability_reg(WeightMask.ones(4, 4)) == 0.0

    def test_half_mask_is_ln2(self):
        reg = explainability_reg(WeightMask(np.full((3, 3), 0.5)))
        assert reg == pytest.approx(math.log(2.0), abs=1e-15)

    def test_mean_of_single_low_pixel(self):
        m = np.ones((1, 2))
        m[0, 0] = 0.1
        reg = explainability_reg(WeightMask(m))
        assert reg == pytest.approx(-math.log(0.1) / 2.0, abs=1e-14)

    def test_diverges_monotonically_toward_zero(self):
        vals = [explainability_reg(WeightMask(np.full((2, 2), m)))
                for m in (1e-1, 1e-3, 1e-5, 1e-7)]
        assert vals == sorted(vals)
        assert vals[-1] > 16.0  # -ln(1e-7)

    def test_clamped_below_floor(self):
        at_zero = explainability_reg(WeightMask(np.zeros((2, 2))))
        at_floor = explainability_reg(WeightMask(np.full((2, 2), 1e-7)))
        assert at_zero == at_floor


class TestSmoothness:
    def test_pinned_two_pixel_case(self):
        # |d1 - d0| * exp(-|i1 - i0|) = 1 * exp(0) = 1
        assert smoothness(DepthMap(np.array([[1.0, 2.0]])), _img([[0.5, 0.5]])) == 1.0

    def test_edge_suppresses_penalty(self):
        flat = smoothness(DepthMap(np.array([[1.0, 2.0]])), _img([[0.5, 0.5]]))
        edged = smoothness(DepthMap(np.array([[1.0, 2.0]])), _img([[0.0, 1.0]]))
        assert edged == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert edged < flat

    def test_hand_2x2_case(self):
        depth = DepthMap(np.array([[1.0, 3.0], [2.0, 3.0]]))
        img = _img([[0.0, 0.5], [0.0, 0.0]])
        # x diffs: |3-1|e^{-0.5}, |3-2|e^{0} -> mean = (2 e^-0.5 + 1)/2
        # y diffs: |2-1|e^{0}, |3-3|e^{-0.5} -> mean = 0.5
        want = (2 * math.exp(-0.5) + 1.0) / 2.0 + 0.5
        assert smoothness(depth, img) == pytest.approx(want, abs=1e-14)

    def test_constant_depth_is_zero(self):
        rng = np.random.default_rng(2)
        img = ImageBuffer.grayscale(rng.uniform(0, 1, (6, 6)))
        assert smoothness(DepthMap(np.full((6, 6), 4.2)), img) == 0.0

    def test_single_column_uses_y_axis_only(self):
        depth = DepthMap(np.array([[1.0], [2.0]]))
        img = _img([[0.0], [0.0]])
        assert smoothness(depth, img) == 1.0

    def test_multiscale_sums_levels(self):
        rng = np.random.default_rng(3)
        depths = [DepthMap(rng.uniform(1, 5, (8, 8))), DepthMap(rng.uniform(1, 5, (4, 4)))]
        imgs = [ImageBuffer.grayscale(rng.uniform(0, 1, (8, 8))),
                ImageBuffer.grayscale(rng.uniform(0, 1, (4, 4)))]
        total = multiscale_smoothness(depths, imgs)
        assert total == pytest.approx(
            smoothness(depths[0], imgs[0]) + smoothness(depths[1], imgs[1]), abs=1e-15
        )

    def test_multiscale_length_mismatch(self):
        with pytest.raises(ValueError):
            multiscale_smoothness([DepthMap(np.ones((2, 2)))], [])


class TestTotalLoss:
    def test_unit_components_default_weights(self):
        # 1 + 0.1 + 0.1 + 0.1 with the canonical weights
        assert total_loss(1.0, 1.0, 1.0, 1.0, LossWeights()) == pytest.approx(1.3, abs=1e-12)

    def test_weights_apply_per_term(self):
        w = LossWeights(lambda_smo=0.2, lambda_reg=0.3, lambda_bf=0.5)
        assert total_loss(1.0, 2.0, 4.0, 8.0, w) == pytest.approx(
            1.0 + 0.4 + 1.2 + 4.0, abs=1e-12
        )

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            total_loss(float("nan"), 0.0, 0.0, 0.0, LossWeights())

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_smo=-0.1)


class TestWeightMaskValidation:
    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            WeightMask(np.array([[1.2]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightMask(np.array([[-0.1]]))


def _loss_setup(seed: int):
    """Small smooth scene for end-to-end loss gradient checks."""
    rng = np.random.default_rng(seed)
    h = w = 8
    k = CameraIntrinsics(fx=8.0, fy=8.0, cx=3.5, cy=3.5)
    v, u = np.mgrid[0:h, 0:w].astype(float)
    target = ImageBuffer.grayscale((np.sin(u * 0.6 + 0.3) + np.cos(v * 0.5) + 2.0) / 4.0)
    source = ImageBuffer.grayscale((np.sin(u * 0.6) + np.cos(v * 0.5 + 0.2) + 2.0) / 4.0)
    depth = DepthMap(4.0 + 0.5 * np.sin(u * 0.4) * np.cos(v * 0.3))
    pose = SE3Transform.from_translation(np.array([0.12, -0.04, 0.02]))
    mask = WeightMask(rng.uniform(0.4, 0.9, size=(h, w)))
    return target, source, depth, pose, k, mask


def _total_at(target, source, depth, pose, k, mask, weights) -> float:
    recon, valid = inverse_warp(source, depth, pose, k)
    return total_loss(
        photometric_l1(target, recon, mask, valid),
        smoothness(depth, target),
        explainability_reg(mask),
        0.0,
        weights,
    )


class TestLossGradients:
    def test_mask_gradient_matches_fd(self):
        target, source, depth, pose, k, mask = _loss_setup(4)
        weights = LossWeights()
        grads = loss_gradients(target, source, depth, pose, k, mask, weights)
        h_fd = 1e-6
        rng = np.random.default_rng(5)
        for _ in range(10):
            i, j = rng.integers(0, 8, size=2)
            m_hi = mask.data.copy()
            m_lo = mask.data.copy()
            m_hi[i, j] += h_fd
            m_lo[i, j] -= h_fd
            fd = (
                _total_at(target, source, depth, pose, k, WeightMask(m_hi), weights)
                - _total_at(target, source, depth, pose, k, WeightMask(m_lo), weights)
            ) / (2 * h_fd)
            assert grads.d_mask[i, j] == pytest.approx(fd, abs=1e-6)

    def test_pose_gradient_matches_fd(self):
        from egowarp import retract_pose

        target, source, depth, pose, k, mask = _loss_setup(6)
        weights = LossWeights()
        grads = loss_gradients(target, source, depth, pose, k, mask, weights)
        h_fd = 1e-6
        for col in range(6):
            e = np.zeros(6)
            e[col] = h_fd
            fd = (
                _total_at(target, source, depth, retract_pose(pose, e), k, mask, weights)
                - _total_at(target, source, depth, retract_pose(pose, -e), k, mask, weights)
            ) / (2 * h_fd)
            assert grads.d_pose[col] == pytest.approx(fd, abs=1e-5), f"pose col {col}"

    def test_unit_mask_kills_reg_gradient(self):
        # At mask = 1 the photometric part of d_mask is |diff|/(|V|) >= 0 and
        # the regularizer adds -lambda/N exactly.
        target, source, depth, pose, k, _ = _loss_setup(7)
        mask = WeightMask.ones(8, 8)
        weights = LossWeights()
        grads = loss_gradients(target, source, depth, pose, k, mask, weights)
        recon, valid = inverse_warp(source, depth, pose, k)
        diff = np.abs(target.data - recon.data).sum(axis=2)
        expected = diff * valid.data / valid.count - weights.lambda_reg / 64.0
        np.testing.assert_allclose(grads.d_mask, expected, atol=1e-12)

    @pytest.mark.parametrize("rgb_target", [True, False])
    def test_channel_mismatch_rejected(self, rgb_target):
        # photometric_l1 rejects the same pair; the gradient must not
        # broadcast one channel against three.
        target, source, depth, pose, k, mask = _loss_setup(8)
        if rgb_target:
            target = ImageBuffer(np.repeat(target.data, 3, axis=2))
        else:
            source = ImageBuffer(np.repeat(source.data, 3, axis=2))
        with pytest.raises(ValueError, match="channel counts differ"):
            loss_gradients(target, source, depth, pose, k, mask, LossWeights())

    def test_shapes(self):
        target, source, depth, pose, k, mask = _loss_setup(8)
        grads = loss_gradients(target, source, depth, pose, k, mask, LossWeights())
        assert grads.d_depth.shape == (8, 8)
        assert grads.d_pose.shape == (6,)
        assert grads.d_mask.shape == (8, 8)


def _curvature_setup():
    """Non-square RGB pair, ~30 % of pixels warped out of frame, a
    non-uniform mask, and some residuals below the IRLS floor."""
    rng = np.random.default_rng(21)
    h, w = 10, 14
    k = CameraIntrinsics(fx=12.0, fy=12.0, cx=6.5, cy=4.5)
    v, u = np.mgrid[0:h, 0:w].astype(float)
    phase = rng.uniform(0, np.pi, 3)
    source = ImageBuffer(np.stack(
        [(np.sin(u * 0.5 + p) * np.cos(v * 0.4 - p) + 1.5) / 3.0 for p in phase], axis=-1))
    depth = DepthMap(3.0 + 0.4 * np.sin(u * 0.3) + 0.2 * v / h)
    pose = SE3Transform(exp_so3(np.array([0.02, -0.03, 0.01])), np.array([0.9, 0.3, -0.1]))
    recon, valid = inverse_warp(source, depth, pose, k)
    noise = np.clip(recon.data + rng.normal(0.0, 0.05, recon.data.shape), 0.0, 1.0)
    exact = rng.random(recon.data.shape) < 0.2  # |r| = 0, below the floor
    target = ImageBuffer(np.where(exact, recon.data, noise))
    mask = WeightMask(rng.uniform(0.2, 1.0, size=(h, w)) * (rng.random((h, w)) > 0.1))
    return target, source, depth, pose, k, mask, valid


class TestCurvature:
    def test_matches_per_pixel_loop(self):
        target, source, depth, pose, k, mask, valid = _curvature_setup()
        assert np.mean(valid.data) < 0.8
        recon, _ = inverse_warp(source, depth, pose, k)
        d_depth, d_pose = warp_jacobians(source, depth, pose, k)
        n = valid.count
        h_pose = np.zeros((6, 6))
        h_depth = np.zeros(depth.data.shape)
        for i, j in zip(*np.nonzero(valid.data)):
            for c in range(target.channels):
                r = target.data[i, j, c] - recon.data[i, j, c]
                wgt = mask.data[i, j] / (n * max(abs(r), 1e-3))
                h_pose += wgt * np.outer(d_pose[i, j, c], d_pose[i, j, c])
                h_depth[i, j] += wgt * d_depth[i, j, c] ** 2
        got = loss_gradients(target, source, depth, pose, k, mask, LossWeights(),
                             curvature=True)
        assert np.max(np.abs(got.h_pose - h_pose)) <= 1e-12 * np.max(np.abs(h_pose))
        assert np.max(np.abs(got.h_depth - h_depth)) <= 1e-12 * np.max(np.abs(h_depth))
        assert np.all(got.h_depth[~valid.data] == 0.0)

    def test_gradients_do_not_depend_on_the_request(self):
        target, source, depth, pose, k, mask, _ = _curvature_setup()
        plain = loss_gradients(target, source, depth, pose, k, mask, LossWeights(),
                               curvature=False)
        assert plain.h_pose is None and plain.h_depth is None
        full = loss_gradients(target, source, depth, pose, k, mask, LossWeights(),
                              curvature=True)
        for name in ("d_depth", "d_pose", "d_mask"):
            assert np.array_equal(getattr(plain, name), getattr(full, name)), name

    @pytest.mark.parametrize("bad", ["pose", "depth", None, 1, "both", "Pose"])
    def test_unknown_block_rejected(self, bad):
        target, source, depth, pose, k, mask, _ = _curvature_setup()
        with pytest.raises(ValueError, match="curvature"):
            loss_gradients(target, source, depth, pose, k, mask, LossWeights(), curvature=bad)


def _behind_camera_setup():
    """RGB pair whose near top-right patch (depth 0.6) ends up behind a
    camera that moves 1.0 forward: reproject_grid zero-fills those 20
    pixels to (0, 0), and the warp, which projects them unfilled, lands
    them at u 9.3-11.7, v 1.1-2.9. Both lie in bounds, so only the
    in-front test keeps them out of the loss."""
    rng = np.random.default_rng(22)
    h, w = 10, 14
    k = CameraIntrinsics(fx=12.0, fy=12.0, cx=6.5, cy=4.5)
    v, u = np.mgrid[0:h, 0:w].astype(float)
    phase = rng.uniform(0, np.pi, 3)
    source = ImageBuffer(np.stack(
        [(np.sin(u * 0.5 + p) * np.cos(v * 0.4 - p) + 1.5) / 3.0 for p in phase], axis=-1))
    near = (u > 8) & (v < 4)
    depth = DepthMap(np.where(near, 0.6, 6.0 + 0.3 * np.sin(u * 0.3) + 0.1 * v))
    pose = SE3Transform(exp_so3(np.array([0.01, 0.02, -0.01])), np.array([0.1, -0.05, -1.0]))
    target = ImageBuffer(rng.uniform(0.0, 1.0, (h, w, 3)))
    mask = WeightMask(rng.uniform(0.2, 1.0, size=(h, w)))
    return target, source, depth, pose, k, mask


def _forward_mode_gradients(target, source, depth, pose, k, mask, weights):
    """(d_depth, d_pose, d_mask) as the forward-mode contraction
    -sum sign(t - r) warp_jacobians m v / n plus the smoothness and
    regularizer terms, with v rebuilt from reproject_grid: in front of the
    camera and inside [0, w-1] x [0, h-1]."""
    h, w = depth.data.shape
    uv_src, _, in_front = reproject_grid(pixel_grid(h, w), depth.data, pose, k)
    u, v = uv_src[..., 0], uv_src[..., 1]
    eps = 1e-9
    valid = in_front & (u >= -eps) & (u <= w - 1 + eps) & (v >= -eps) & (v <= h - 1 + eps)
    n = valid.sum()
    recon, _ = inverse_warp(source, depth, pose, k)
    j_depth, j_pose = warp_jacobians(source, depth, pose, k)
    coef = -np.sign(target.data - recon.data) * (mask.data * valid / n)[..., None]
    d_pose = np.einsum("hwc,hwcp->p", coef, j_pose)
    d_depth = np.einsum("hwc,hwc->hw", coef, j_depth)

    img, d = target.data, depth.data
    sx = (np.sign(d[:, 1:] - d[:, :-1]) / (h * (w - 1))
          * np.exp(-np.mean(np.abs(img[:, 1:] - img[:, :-1]), axis=2)))
    sy = (np.sign(d[1:] - d[:-1]) / ((h - 1) * w)
          * np.exp(-np.mean(np.abs(img[1:] - img[:-1]), axis=2)))
    d_smo = np.zeros((h, w))
    d_smo[:, 1:] += sx
    d_smo[:, :-1] -= sx
    d_smo[1:] += sy
    d_smo[:-1] -= sy
    d_depth = d_depth + weights.lambda_smo * d_smo

    d_reg = np.where(mask.data > 1e-7, -1.0 / (h * w * np.maximum(mask.data, 1e-7)), 0.0)
    d_photo_mask = np.sum(np.abs(target.data - recon.data), axis=2) * valid / n
    return d_depth, d_pose, d_photo_mask + weights.lambda_reg * d_reg


class TestReverseMode:
    """loss_gradients contracts channels first and chains back through one
    transform; its outputs must equal the forward-mode contraction."""

    @pytest.mark.parametrize("setup", ["curvature", "behind_camera"])
    def test_matches_forward_mode_contraction(self, setup):
        if setup == "curvature":
            target, source, depth, pose, k, mask, _ = _curvature_setup()
        else:
            target, source, depth, pose, k, mask = _behind_camera_setup()
            h, w = depth.data.shape
            uv_src, _, in_front = reproject_grid(pixel_grid(h, w), depth.data, pose, k)
            assert np.sum(~in_front) == 20
            assert np.all(uv_src[~in_front] == 0.0)  # in bounds, at (0, 0)
        weights = LossWeights(lambda_smo=0.3, lambda_reg=0.2)
        grads = loss_gradients(target, source, depth, pose, k, mask, weights)
        want = _forward_mode_gradients(target, source, depth, pose, k, mask, weights)
        for name, expected in zip(("d_depth", "d_pose", "d_mask"), want):
            got = getattr(grads, name)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), name


def _patch_everywhere(monkeypatch, fn, replacement) -> None:
    """Rebind fn to replacement in every egowarp module that binds it."""
    bound = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "egowarp" or name.startswith("egowarp.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if obj is fn:
                monkeypatch.setattr(mod, attr, replacement)
                bound += 1
    assert bound > 0


class TestOneTransform:
    @pytest.mark.parametrize("curvature", [False, True])
    def test_loss_gradients_transforms_points_once(self, monkeypatch, curvature):
        target, source, depth, pose, k, mask, _ = _curvature_setup()
        calls = {"_transform_grid": 0, "reproject_jacobian_grid": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            fn = getattr(camera_module, name)
            _patch_everywhere(monkeypatch, fn, counted(fn))
        loss_gradients(target, source, depth, pose, k, mask, LossWeights(),
                       curvature=curvature)
        assert calls == {"_transform_grid": 1, "reproject_jacobian_grid": 0}

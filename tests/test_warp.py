"""Bilinear sampling and inverse-warp tests.

Interpolation oracles are evaluated by hand on tiny images where the
weights can be written out: on the 2x2 image [[0, 1], [2, 3]] the sample at
(u, v) is u + 2v (bilinear in both axes simultaneously). Warp oracles use
constant-depth pure-translation setups where the flow is a uniform shift
fx * tx / z computable on paper.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from egowarp import (
    CameraIntrinsics,
    DepthMap,
    FeatureMap,
    ImageBuffer,
    LossWeights,
    Pose6DoF,
    SE3Transform,
    ValidityMask,
    WeightMask,
    align_pose,
    align_pose_pair,
    exp_so3,
    inverse_warp,
    loss_gradients,
    photometric_l1,
    pixel_grid,
    psnr,
    reproject_grid,
    resample_gating,
    retract_pose,
    upsample2x,
    warp_jacobians,
)
from egowarp.warp import sample_grad_grid, sample_grid

RAMP22 = ImageBuffer.grayscale(np.array([[0.0, 1.0], [2.0, 3.0]]) / 3.0)


def _gray(img: ImageBuffer) -> np.ndarray:
    return img.data[:, :, 0]


def _rgb_ramp() -> ImageBuffer:
    """RAMP22 in three channels, (u + 2 v) / 3 times slopes (1, -1, 0.5)
    plus offsets (0, 1, 0)."""
    plane = _gray(RAMP22)
    return ImageBuffer(np.stack([plane, 1.0 - plane, plane * 0.5], axis=-1))


# A (2, 3) batch of points on RAMP22: in bounds off the grid lines, or out of
# bounds on one side, where the clipped gather would read nonzero values.
BATCH = np.array([[[0.5, 0.5], [-0.5, 0.0], [0.3, 0.6]],
                  [[0.0, 1.0001], [0.25, 0.75], [2.0, -1.0]]])
BATCH_IN_BOUNDS = np.array([[True, False, True], [False, True, False]])


class TestBufferValidation:
    def test_image_needs_3_axes(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.zeros((4, 4)))

    def test_image_rejects_nan(self):
        data = np.zeros((2, 2, 1))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ImageBuffer(data)

    def test_depth_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_validity_rejects_fractional_entries(self):
        with pytest.raises(ValueError):
            ValidityMask(np.full((2, 2), 0.5))

    def test_validity_coerces_01(self):
        m = ValidityMask(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert m.data.dtype == np.bool_ and m.count == 3

    def test_validity_count(self):
        m = ValidityMask(np.array([[True, False], [True, True]]))
        assert m.count == 3


# The five per-pixel types: a valid shape (all-ones data is valid for each)
# and a finite value each one rejects (None: every finite value is allowed).
PIXEL_TYPES = [
    (ImageBuffer, (2, 3, 1), 1.5),
    (DepthMap, (2, 3), 0.0),
    (ValidityMask, (2, 3), 2.0),
    (WeightMask, (2, 3), -0.1),
    (FeatureMap, (2, 3, 4), None),
]
PIXEL_IDS = [cls.__name__ for cls, _, _ in PIXEL_TYPES]


def _rejected_arrays():
    """(cls, data, message) for each rejection, with the message in full: a
    value rule's message is that of the first rule the data breaks, in the
    order finite, range, then the type's own rule (ValidityMask's 0/1 rule
    runs first)."""
    for cls, shape, bad in PIXEL_TYPES:
        name, axes = cls.__name__, ", ".join(cls._AXES)
        cases = {
            "rank": np.ones(shape[:-1]),
            "rank+1": np.ones(shape + (1,)),
            "zero-size": np.ones((0,) + shape[1:]),
        }
        messages = {case: f"{name} must be a non-empty ({axes}) array, got {data.shape}"
                    for case, data in cases.items()}
        if cls is ValidityMask:
            finite = out_of_range = "ValidityMask entries must be 0/1"
        else:
            finite = f"{name} values must be finite"
            out_of_range = ("DepthMap values must be > 0" if cls is DepthMap
                            else f"{name} values must lie in [0.0, 1.0]")
        for case, entries, message in (
                ("nan", {(1, 2): np.nan}, finite), ("inf", {(1, 2): np.inf}, finite),
                ("nan-first", {(0, 0): np.nan}, finite), ("-inf", {(1, 2): -np.inf}, finite),
                ("range", {(1, 2): bad}, out_of_range),
                ("nan+range", {(0, 1): bad, (1, 2): np.nan}, finite)):
            if None not in entries.values():
                cases[case] = np.ones(shape)
                for at, value in entries.items():
                    cases[case][at] = value
                messages[case] = message
        for case, data in cases.items():
            yield pytest.param(cls, data, messages[case], id=f"{name}-{case}")
    yield pytest.param(ImageBuffer, np.ones((2, 3, 2)),
                       "ImageBuffer must have 1 or 3 channels, got 2", id="ImageBuffer-channels")


class TestPixelArrays:
    @pytest.mark.parametrize("cls, data, message", _rejected_arrays())
    def test_rejection_names_the_type(self, cls, data, message):
        with pytest.raises(ValueError) as err:
            cls(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("cls, shape, bad", PIXEL_TYPES, ids=PIXEL_IDS)
    def test_stored_without_copy(self, cls, shape, bad):
        a = np.ones(shape, dtype=bool if cls is ValidityMask else float)
        assert cls(a).data is a

    @pytest.mark.parametrize("cls, shape, bad", PIXEL_TYPES, ids=PIXEL_IDS)
    def test_frozen_with_identity_equality(self, cls, shape, bad):
        a = np.ones(shape)
        m = cls(a)
        assert (m.height, m.width) == shape[:2]
        assert m == m and m != cls(a)
        with pytest.raises(FrozenInstanceError):
            m.data = a

    def test_converted_to_float64_or_bool(self):
        assert ImageBuffer.grayscale([[0, 1]]).data.dtype == np.float64
        assert DepthMap([[1, 2]]).data.dtype == np.float64
        assert ValidityMask(np.array([[1, 0]], dtype=np.uint8)).data.dtype == np.bool_


_DEPTH8 = DepthMap(np.full((8, 8), 5.0))
_K8 = CameraIntrinsics(fx=8.0, fy=8.0, cx=3.5, cy=3.5)
_STILL = Pose6DoF(np.zeros(3), np.zeros(3))
# Each function that takes two images: (call(first, second), its names for them).
PAIRED_IMAGES = {
    "photometric_l1": (lambda a, b: photometric_l1(
        a, b, WeightMask.ones(8, 8), ValidityMask.all_valid(8, 8)), "target", "recon"),
    "loss_gradients": (lambda a, b: loss_gradients(
        a, b, _DEPTH8, SE3Transform.identity(), _K8, WeightMask.ones(8, 8), LossWeights()),
        "target", "source"),
    "psnr": (psnr, "a", "b"),
    "align_pose": (lambda a, b: align_pose(a, b, _DEPTH8, _K8, _STILL), "target", "source"),
    "align_pose_pair": (lambda a, b: align_pose_pair(
        a, b, _DEPTH8, _DEPTH8, _K8, _STILL, _STILL), "target", "source"),
}


@pytest.mark.parametrize("function", PAIRED_IMAGES)
def test_paired_images_need_equal_channel_counts(function):
    """warp._check_same_size holds the rule for every caller, in the
    caller's own argument names, whichever image has more channels."""
    call, a, b = PAIRED_IMAGES[function]
    rgb, gray = ImageBuffer(np.full((8, 8, 3), 0.5)), ImageBuffer(np.full((8, 8, 1), 0.5))
    with pytest.raises(ValueError, match=f"^{a} has 3 channels and {b} 1; they must match$"):
        call(rgb, gray)
    with pytest.raises(ValueError, match=f"^{a} has 1 channels and {b} 3; they must match$"):
        call(gray, rgb)


class TestPixelGrid:
    def test_layout(self):
        g = pixel_grid(2, 3)
        assert g.shape == (2, 3, 2)
        np.testing.assert_array_equal(g[1, 2], [2.0, 1.0])  # (u, v)
        np.testing.assert_array_equal(g[0, 0], [0.0, 0.0])


class TestBilinearSample:
    def test_exact_at_pixel_centers(self):
        for (u, v), want in [((0, 0), 0.0), ((1, 0), 1.0), ((0, 1), 2.0), ((1, 1), 3.0)]:
            val, ok = sample_grid(RAMP22, np.array([u, v], dtype=float))
            assert ok
            assert val[0] * 3.0 == pytest.approx(want, abs=1e-15)

    def test_center_is_mean(self):
        val, ok = sample_grid(RAMP22, np.array([0.5, 0.5]))
        assert ok
        assert val[0] * 3.0 == pytest.approx(1.5, abs=1e-15)

    def test_separable_hand_formula(self):
        # On [[0,1],[2,3]]/3 the interpolant is (u + 2 v) / 3.
        rng = np.random.default_rng(0)
        for _ in range(100):
            u, v = rng.uniform(0, 1, size=2)
            val, ok = sample_grid(RAMP22, np.array([u, v]))
            assert ok
            assert val[0] == pytest.approx((u + 2 * v) / 3.0, abs=1e-14)

    def test_out_of_bounds_zero_and_invalid(self):
        for p in [(-0.5, 0.0), (0.0, -0.01), (1.5, 0.0), (0.0, 1.0001)]:
            val, ok = sample_grid(RAMP22, np.array(p))
            assert not ok
            np.testing.assert_array_equal(val, [0.0])

    def test_border_is_valid(self):
        val, ok = sample_grid(RAMP22, np.array([1.0, 1.0]))
        assert ok and val[0] == pytest.approx(1.0)

    def test_epsilon_over_border_still_valid(self):
        # Round-off tolerance: 1e-10 beyond the edge clamps to the edge value.
        val, ok = sample_grid(RAMP22, np.array([1.0 + 1e-10, 0.5]))
        assert ok
        assert val[0] * 3.0 == pytest.approx(2.0, abs=1e-9)

    def test_multichannel(self):
        plane = _gray(RAMP22)
        img = ImageBuffer(np.stack([plane, 1.0 - plane, plane * 0.5], axis=-1))
        val, ok = sample_grid(img, np.array([0.5, 0.5]))
        assert ok
        np.testing.assert_allclose(val, [0.5, 0.5, 0.25], atol=1e-15)

    def test_batch_zero_fills_out_of_bounds(self):
        vals, ok = sample_grid(_rgb_ramp(), BATCH)
        assert vals.shape == (2, 3, 3)
        np.testing.assert_array_equal(ok, BATCH_IN_BOUNDS)
        np.testing.assert_array_equal(vals[~ok], 0.0)
        ramp = (BATCH[ok, 0] + 2 * BATCH[ok, 1]) / 3.0
        want = np.stack([ramp, 1.0 - ramp, 0.5 * ramp], axis=-1)
        np.testing.assert_allclose(vals[ok], want, atol=1e-15)


@pytest.mark.parametrize("sampler", [sample_grid, sample_grad_grid])
@pytest.mark.parametrize("uv", [(np.nan, 1.0), (0.5, np.inf), (0.5, 0.5, 0.5), np.zeros((2, 1))])
def test_samplers_reject_points_that_are_not_finite_pairs(sampler, uv):
    with pytest.raises(ValueError, match="^uv must"):
        sampler(RAMP22, np.array(uv))


class TestBilinearSampleGrad:
    def test_hand_slopes(self):
        g = sample_grad_grid(RAMP22, np.array([0.3, 0.6]))
        # d/du (u + 2v)/3 = 1/3, d/dv = 2/3
        np.testing.assert_allclose(g[:, 0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-14)

    def test_matches_fd_off_grid(self):
        rng = np.random.default_rng(1)
        img = ImageBuffer.grayscale(rng.uniform(0, 1, size=(8, 8)))
        h = 1e-7
        for _ in range(50):
            u = rng.uniform(0.01, 6.99)
            v = rng.uniform(0.01, 6.99)
            if min(u % 1, 1 - u % 1) < 1e-3 or min(v % 1, 1 - v % 1) < 1e-3:
                continue
            g = sample_grad_grid(img, np.array([u, v]))
            fu = (sample_grid(img, np.array([u + h, v]))[0]
                  - sample_grid(img, np.array([u - h, v]))[0]) / (2 * h)
            fv = (sample_grid(img, np.array([u, v + h]))[0]
                  - sample_grid(img, np.array([u, v - h]))[0]) / (2 * h)
            np.testing.assert_allclose(g[0], fu, atol=1e-6)
            np.testing.assert_allclose(g[1], fv, atol=1e-6)

    def test_grid_line_uses_right_cell(self):
        # At u = 1.0 on a 1x3 ramp [0, 1, 5], the derivative is the right
        # cell's slope 5 - 1 = 4: an inner grid line reads the cell it opens.
        img = ImageBuffer.grayscale(np.array([[0.0, 1.0, 5.0]]) / 5.0)
        g = sample_grad_grid(img, np.array([1.0, 0.0]))
        assert g[0, 0] * 5.0 == pytest.approx(4.0, abs=1e-13)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("uv, want", [
        ((2.0, 0.0), (4.0, 0.0)),  # the last column takes the cell before it
        ((0.5, 0.0), (1.0, 0.0)),  # along an axis one pixel long the slope is 0
    ])
    def test_edge_slopes_on_a_one_pixel_ramp(self, uv, want, transpose):
        # The 1x3 ramp [0, 1, 5], or the 3x1 one with u and v swapped.
        ramp = np.array([[0.0, 1.0, 5.0]]) / 5.0
        img = ImageBuffer.grayscale(ramp.T if transpose else ramp)
        if transpose:
            uv, want = uv[::-1], want[::-1]
        g = sample_grad_grid(img, np.array(uv))
        np.testing.assert_allclose(g[:, 0] * 5.0, want, rtol=0, atol=1e-13)

    def test_batch_keeps_shape_and_zeroes_out_of_bounds(self):
        g = sample_grad_grid(_rgb_ramp(), BATCH)
        assert g.shape == (2, 3, 2, 3)
        np.testing.assert_array_equal(g[~BATCH_IN_BOUNDS], 0.0)
        # d/du and d/dv of (u + 2 v) / 3, per channel slope.
        want = np.outer([1.0 / 3.0, 2.0 / 3.0], [1.0, -1.0, 0.5])
        np.testing.assert_allclose(g[BATCH_IN_BOUNDS], np.broadcast_to(want, (3, 2, 3)),
                                   atol=1e-14)


def _four_corner_resample(arr: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Loop oracle for a resize: each output (i, j) is the bilinear blend of
    the four samples around (u[j], v[i]), clamped to arr's extent."""
    h, w = arr.shape[:2]
    out = np.empty((len(v), len(u)) + arr.shape[2:])
    for i, y in enumerate(np.clip(v, 0, h - 1)):
        for j, x in enumerate(np.clip(u, 0, w - 1)):
            x0, y0 = min(int(x), w - 2), min(int(y), h - 2)
            fx, fy = x - x0, y - y0
            out[i, j] = ((1 - fx) * (1 - fy) * arr[y0, x0] + fx * (1 - fy) * arr[y0, x0 + 1]
                         + (1 - fx) * fy * arr[y0 + 1, x0] + fx * fy * arr[y0 + 1, x0 + 1])
    return out


class TestResampleLoopOracle:
    """Every resize reads the one gather on a row of u and a column of v."""

    def test_upsample2x_odd_rgb(self):
        arr = np.random.default_rng(11).uniform(size=(5, 7, 3))
        # Output j reads input (j + 0.5) / 2 - 0.5, past both borders here.
        u = (np.arange(15) + 0.5) / 2.0 - 0.5
        v = (np.arange(11) + 0.5) / 2.0 - 0.5
        np.testing.assert_allclose(upsample2x(arr, 11, 15), _four_corner_resample(arr, u, v),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("out_h, out_w", [(9, 7), (3, 2)])
    def test_resample_gating(self, out_h, out_w):
        g = np.random.default_rng(12).normal(size=(5, 4, 2))
        u = np.arange(out_w) * (3 / (out_w - 1))
        v = np.arange(out_h) * (4 / (out_h - 1))
        np.testing.assert_allclose(resample_gating(FeatureMap(g), out_h, out_w).data,
                                   _four_corner_resample(g, u, v), rtol=0, atol=1e-14)


class TestInverseWarpIdentity:
    def test_reproduces_source_exactly(self):
        rng = np.random.default_rng(2)
        k = CameraIntrinsics(fx=40.0, fy=40.0, cx=15.5, cy=11.5)
        src = ImageBuffer.grayscale(rng.uniform(0, 1, size=(24, 32)))
        depth = DepthMap(rng.uniform(0.5, 20.0, size=(24, 32)))
        recon, valid = inverse_warp(src, depth, SE3Transform.identity(), k)
        assert valid.data.all()
        np.testing.assert_allclose(recon.data, src.data, atol=1e-12)

    def test_any_positive_depth_irrelevant(self):
        k = CameraIntrinsics(fx=10.0, fy=10.0, cx=2.0, cy=2.0)
        src = ImageBuffer.grayscale(np.linspace(0, 1, 25).reshape(5, 5))
        for scale in (1e-3, 1.0, 1e4):
            recon, valid = inverse_warp(
                src, DepthMap(np.full((5, 5), scale)), SE3Transform.identity(), k
            )
            assert valid.data.all()
            np.testing.assert_allclose(recon.data, src.data, atol=1e-12)

    def test_negative_zero_keeps_its_sign(self):
        """The reconstruction's final clip to [0, 1] keeps -0.0 as -0.0
        (np.clip does; np.maximum(-0.0, 0.0) would return +0.0)."""
        src = ImageBuffer(np.full((4, 5, 3), -0.0))
        recon, valid = inverse_warp(src, DepthMap(np.full((4, 5), 2.0)), SE3Transform.identity(),
                                    CameraIntrinsics(fx=5.0, fy=5.0, cx=2.0, cy=1.5))
        assert valid.data.all()
        assert np.all(recon.data == 0.0) and np.all(np.signbit(recon.data))


class TestInverseWarpShift:
    def test_integer_shift_translation(self):
        # Fronto setup: depth z = 5, tx = 0.5, fx = 20 -> shift of exactly
        # 2 px. recon(u) = src(u + 2) where u + 2 <= w - 1.
        k = CameraIntrinsics(fx=20.0, fy=20.0, cx=3.5, cy=3.5)
        rng = np.random.default_rng(3)
        src = ImageBuffer.grayscale(rng.uniform(0, 1, size=(8, 8)))
        depth = DepthMap(np.full((8, 8), 5.0))
        pose = SE3Transform.from_translation(np.array([0.5, 0.0, 0.0]))
        recon, valid = inverse_warp(src, depth, pose, k)
        np.testing.assert_allclose(
            _gray(recon)[:, :6], _gray(src)[:, 2:], atol=1e-12
        )
        assert valid.data[:, :6].all()
        assert not valid.data[:, 6:].any()
        np.testing.assert_array_equal(_gray(recon)[:, 6:], 0.0)

    def test_fractional_shift_on_linear_ramp(self):
        # A ramp image is reproduced exactly under subpixel shifts because
        # bilinear interpolation is exact for linear functions.
        k = CameraIntrinsics(fx=20.0, fy=20.0, cx=3.5, cy=3.5)
        u = np.tile(np.arange(8.0), (8, 1))
        src = ImageBuffer.grayscale(u / 10.0)
        depth = DepthMap(np.full((8, 8), 5.0))
        pose = SE3Transform.from_translation(np.array([0.1, 0.0, 0.0]))  # 0.4 px
        recon, valid = inverse_warp(src, depth, pose, k)
        expected = (u + 0.4) / 10.0
        got = _gray(recon)
        np.testing.assert_allclose(got[valid.data], expected[valid.data], atol=1e-12)

    def test_behind_camera_masked(self):
        k = CameraIntrinsics(fx=20.0, fy=20.0, cx=3.5, cy=3.5)
        src = ImageBuffer.grayscale(np.ones((8, 8)) * 0.5)
        depth = DepthMap(np.full((8, 8), 5.0))
        pose = SE3Transform.from_translation(np.array([0.0, 0.0, -20.0]))
        recon, valid = inverse_warp(src, depth, pose, k)
        assert not valid.data.any()
        np.testing.assert_array_equal(recon.data, 0.0)

    def test_size_mismatch_rejected(self):
        k = CameraIntrinsics(fx=20.0, fy=20.0, cx=3.5, cy=3.5)
        src = ImageBuffer.grayscale(np.ones((8, 8)))
        with pytest.raises(ValueError):
            inverse_warp(src, DepthMap(np.ones((4, 4))), SE3Transform.identity(), k)


class TestInverseWarpLocality:
    """A pixel's recon and validity depend on its own depth alone, the
    property gradcheck's spliced depth sweep rests on: bumping depth at p
    changes both at p only, to the values a whole-map bump gives there,
    bit for bit. Brute force over every pixel, on random gray and RGB
    frames with pixels out of frame; the seeds' large bumps flip some
    pixel's validity."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 4, 5, 6])
    def test_one_pixel_bump_moves_that_pixel_alone(self, seed):
        rng = np.random.default_rng([7, seed])
        h, w = (int(n) for n in rng.integers(4, 8, 2))
        k = CameraIntrinsics(*rng.uniform(5.0, 9.0, 2), (w - 1) / 2, (h - 1) / 2)
        src = ImageBuffer(rng.uniform(0.0, 1.0, (h, w, (1, 3)[seed % 2])))
        depth = rng.uniform(1.5, 4.0, (h, w))
        pose = SE3Transform(exp_so3(rng.uniform(-0.1, 0.1, 3)), rng.uniform(-0.6, 0.6, 3))
        recon, valid = inverse_warp(src, DepthMap(depth), pose, k)
        assert valid.data.any() and not valid.data.all()
        flips = 0
        for eps in (1e-5, -1e-5, 0.7, -0.7):
            whole_recon, whole_valid = inverse_warp(src, DepthMap(depth + eps), pose, k)
            for p in np.ndindex(h, w):
                bumped = depth.copy()
                bumped[p] += eps
                got_recon, got_valid = inverse_warp(src, DepthMap(bumped), pose, k)
                want_recon, want_valid = recon.data.copy(), valid.data.copy()
                want_recon[p], want_valid[p] = whole_recon.data[p], whole_valid.data[p]
                assert got_recon.data.tobytes() == want_recon.tobytes(), (eps, p)
                assert got_valid.data.tobytes() == want_valid.tobytes(), (eps, p)
                flips += bool(got_valid.data[p] != valid.data[p])
        assert flips > 0


class TestWarpJacobians:
    def test_zero_for_constant_image(self):
        k = CameraIntrinsics(fx=20.0, fy=20.0, cx=3.5, cy=3.5)
        src = ImageBuffer.grayscale(np.full((8, 8), 0.7))
        depth = DepthMap(np.full((8, 8), 5.0))
        pose = SE3Transform.from_translation(np.array([0.1, 0.05, 0.0]))
        d_depth, d_pose = warp_jacobians(src, depth, pose, k)
        np.testing.assert_array_equal(d_depth, 0.0)
        np.testing.assert_array_equal(d_pose, 0.0)

    def test_invalid_pixels_zeroed(self):
        k = CameraIntrinsics(fx=20.0, fy=20.0, cx=3.5, cy=3.5)
        rng = np.random.default_rng(4)
        src = ImageBuffer.grayscale(rng.uniform(0, 1, size=(8, 8)))
        depth = DepthMap(np.full((8, 8), 5.0))
        pose = SE3Transform.from_translation(np.array([0.5, 0.0, 0.0]))  # 2 px
        _, valid = inverse_warp(src, depth, pose, k)
        d_depth, d_pose = warp_jacobians(src, depth, pose, k)
        np.testing.assert_array_equal(d_depth[~valid.data], 0.0)
        np.testing.assert_array_equal(d_pose[~valid.data], 0.0)

    def test_translation_column_matches_fd(self):
        # Smooth image, fractional shift: central differences on tx.
        k = CameraIntrinsics(fx=20.0, fy=20.0, cx=3.5, cy=3.5)
        v, u = np.mgrid[0:8, 0:8].astype(float)
        src = ImageBuffer.grayscale((np.sin(u * 0.7) + np.cos(v * 0.9) + 2.0) / 4.0)
        depth = DepthMap(np.full((8, 8), 5.0))
        h = 1e-6

        def recon_at(tx):
            pose = SE3Transform.from_translation(np.array([tx, 0.0, 0.0]))
            recon, valid = inverse_warp(src, depth, pose, k)
            return _gray(recon), valid.data

        pose = SE3Transform.from_translation(np.array([0.1, 0.0, 0.0]))
        _, d_pose = warp_jacobians(src, depth, pose, k)
        hi, v_hi = recon_at(0.1 + h)
        lo, v_lo = recon_at(0.1 - h)
        fd = (hi - lo) / (2 * h)
        stable = v_hi & v_lo
        # 0.4 px shift keeps every sample 0.4 away from grid lines.
        np.testing.assert_allclose(d_pose[:, :, 0, 3][stable], fd[stable], atol=1e-5)

    def test_non_square_rgb_border_matches_fd_and_loop_oracle(self):
        # 12x20 RGB with a different pattern per channel; the pose shifts by
        # ~5 px right and ~1.5 px down, so about 30 % of the pixels land
        # out of frame. Values are checked against a per-pixel loop over the
        # four corners, Jacobians against central differences of inverse_warp.
        h, w = 12, 20
        k = CameraIntrinsics(fx=16.0, fy=16.0, cx=9.5, cy=5.5)
        v, u = np.mgrid[0:h, 0:w].astype(float)
        src = ImageBuffer(
            np.stack(
                [
                    (np.sin(0.6 * u) * np.cos(0.4 * v) + 1.0) / 2.0,
                    (np.cos(0.3 * u + 0.8 * v) + 1.0) / 2.0,
                    (u / (w - 1) + v**2 / (h - 1) ** 2) / 2.0,
                ],
                axis=-1,
            )
        )
        depth = DepthMap(4.0 + 0.3 * np.sin(0.5 * u) + 0.2 * np.cos(0.7 * v))
        pose = retract_pose(
            SE3Transform.from_translation(np.array([1.2, 0.4, 0.1])),
            np.array([0.02, -0.03, 0.01, 0.0, 0.0, 0.0]),
        )
        recon, valid = inverse_warp(src, depth, pose, k)
        assert 0.15 < 1.0 - valid.data.mean() < 0.35

        uv_src, _, _ = reproject_grid(pixel_grid(h, w), depth.data, pose, k)
        expected = np.zeros_like(src.data)
        for r, c in zip(*np.nonzero(valid.data)):
            su, sv = uv_src[r, c]
            for cu in (np.floor(su), np.floor(su) + 1):
                for cv in (np.floor(sv), np.floor(sv) + 1):
                    if cu < w and cv < h:
                        weight = (1 - abs(su - cu)) * (1 - abs(sv - cv))
                        expected[r, c] += weight * src.data[int(cv), int(cu)]
        np.testing.assert_allclose(recon.data, expected, atol=1e-12)

        step = 1e-6
        d_depth, d_pose = warp_jacobians(src, depth, pose, k)
        frac = uv_src - np.floor(uv_src)
        stable = valid.data & np.all(np.minimum(frac, 1.0 - frac) > 1e-3, axis=-1)
        columns = [(DepthMap(depth.data + step), DepthMap(depth.data - step), pose, pose)]
        for i in range(6):
            delta = np.zeros(6)
            delta[i] = step
            columns.append(
                (depth, depth, retract_pose(pose, delta), retract_pose(pose, -delta))
            )
        for col, (d_hi, d_lo, p_hi, p_lo) in enumerate(columns):
            hi, v_hi = inverse_warp(src, d_hi, p_hi, k)
            lo, v_lo = inverse_warp(src, d_lo, p_lo, k)
            fd = (hi.data - lo.data) / (2 * step)
            analytic = d_depth if col == 0 else d_pose[..., col - 1]
            both = stable & v_hi.data & v_lo.data
            np.testing.assert_allclose(analytic[both], fd[both], rtol=1e-6, atol=1e-7)
        np.testing.assert_array_equal(d_depth[~valid.data], 0.0)
        np.testing.assert_array_equal(d_pose[~valid.data], 0.0)


class TestLastRowAndColumn:
    """At the identity pose the last row and column sample on the image's
    edge; their Jacobians take the slope of the cell inside the image."""

    K = CameraIntrinsics(fx=16.0, fy=16.0, cx=7.5, cy=7.5)
    DEPTH = DepthMap(np.full((16, 16), 4.0))

    @staticmethod
    def _texture() -> ImageBuffer:
        v, u = np.mgrid[0:16, 0:16].astype(float)
        return ImageBuffer.grayscale((np.sin(0.5 * u) * np.cos(0.4 * v) + 1.5) / 3.0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_edge_matches_inside_finite_difference(self, axis):
        # t_x moves u and t_y moves v by fx t / z; stepping t back keeps the
        # last column (axis 0) or row (axis 1) in the image, on its cell's
        # linear piece, so the one-sided difference is that cell's slope.
        src, step = self._texture(), 1e-6
        _, d_pose = warp_jacobians(src, self.DEPTH, SE3Transform.identity(), self.K)
        at, _ = inverse_warp(src, self.DEPTH, SE3Transform.identity(), self.K)
        delta = np.zeros(3)
        delta[axis] = -step
        lo, valid = inverse_warp(src, self.DEPTH, SE3Transform.from_translation(delta), self.K)
        edge = (slice(None), -1) if axis == 0 else (-1, slice(None))
        assert valid.data[edge].all()
        fd = (_gray(at) - _gray(lo)) / step
        np.testing.assert_allclose(d_pose[..., 0, 3 + axis][edge], fd[edge], rtol=0, atol=1e-6)

    def test_flat_image_has_zero_curvature(self):
        flat = ImageBuffer.grayscale(np.full((16, 16), 0.5))
        grads = loss_gradients(flat, flat, self.DEPTH, SE3Transform.identity(), self.K,
                               WeightMask.ones(16, 16), LossWeights(), curvature=True)
        np.testing.assert_array_equal(grads.h_pose, 0.0)
        np.testing.assert_array_equal(grads.d_pose, 0.0)


def _peak_images(call) -> float:
    """tracemalloc peak of one call, in units of one 256 x 256 RGB float64 image."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (256 * 256 * 3 * 8)
    finally:
        tracemalloc.stop()


def test_inverse_warp_memory_budget():
    """256 x 256 RGB, the benchmark's training-stream shape: the warp builds
    its temporaries in place (4.5 images; 11.5 when each step allocated)."""
    rng = np.random.default_rng(0)
    k = CameraIntrinsics(fx=256.0, fy=256.0, cx=127.5, cy=127.5)
    source = ImageBuffer(rng.uniform(0.0, 1.0, (256, 256, 3)))
    depth = DepthMap(rng.uniform(4.0, 6.0, (256, 256)))
    pose = SE3Transform.from_translation(np.array([0.9, 0.6, 0.3]))
    assert _peak_images(lambda: inverse_warp(source, depth, pose, k)) < 5.0

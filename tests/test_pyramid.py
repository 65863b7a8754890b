"""Pyramid construction tests with hand-computed block means, half-pixel
upsampling values, and ramp and rendered-depth oracles for the upsample."""

from __future__ import annotations

import re

import numpy as np
import pytest

from egowarp import (
    CameraIntrinsics,
    DepthMap,
    ImageBuffer,
    SE3Transform,
    default_intrinsics,
    depth_pyramid,
    downsample2x,
    downscale_intrinsics,
    image_pyramid,
    intrinsics_pyramid,
    make_scene,
    render_view,
    upsample2x,
)


class TestDownsample2x:
    def test_hand_block_means(self):
        a = np.array(
            [[1.0, 3.0, 5.0, 7.0],
             [1.0, 3.0, 5.0, 7.0],
             [9.0, 9.0, 0.0, 0.0],
             [9.0, 9.0, 4.0, 4.0]]
        )
        np.testing.assert_array_equal(downsample2x(a), [[2.0, 6.0], [9.0, 2.0]])

    def test_odd_edges_cropped(self):
        a = np.arange(15.0).reshape(3, 5)
        out = downsample2x(a)
        assert out.shape == (1, 2)
        # blocks from the 2x4 top-left region
        np.testing.assert_array_equal(out, [[(0 + 1 + 5 + 6) / 4, (2 + 3 + 7 + 8) / 4]])

    def test_preserves_channels(self):
        a = np.ones((4, 4, 3))
        assert downsample2x(a).shape == (2, 2, 3)

    def test_constant_preserved(self):
        np.testing.assert_array_equal(downsample2x(np.full((6, 6), 2.5)), np.full((3, 3), 2.5))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            downsample2x(np.ones((1, 4)))


@pytest.mark.parametrize("resample, arr", [
    (downsample2x, np.ones(4)),
    (downsample2x, np.float64(1.0)),
    (lambda a: upsample2x(a, 2, 2), np.ones(4)),
    (lambda a: upsample2x(a, 2, 2), np.ones((0, 3))),
    (lambda a: upsample2x(a, 4, 4), np.ones((2, 2, 1, 1))),
], ids=["down-1d", "down-0d", "up-1d", "up-empty", "up-4d"])
def test_array_that_is_not_an_image_rejected(resample, arr):
    """Both resamplers take a non-empty (h, w) or (h, w, c) array, and
    name the shape of any other."""
    with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(arr)}")):
        resample(arr)


class TestDownscaleIntrinsics:
    def test_hand_values(self):
        k = downscale_intrinsics(CameraIntrinsics(fx=128.0, fy=64.0, cx=63.5, cy=47.5))
        assert (k.fx, k.fy) == (64.0, 32.0)
        # (63.5 + 0.5)/2 - 0.5 = 31.5 ; (47.5 + 0.5)/2 - 0.5 = 23.5
        assert (k.cx, k.cy) == (31.5, 23.5)

    def test_center_pixel_stays_centered(self):
        # A principal point at the center of an even image stays at the
        # center after halving: (w-1)/2 -> (w/2-1)/2.
        k = CameraIntrinsics(fx=10.0, fy=10.0, cx=(8 - 1) / 2, cy=(6 - 1) / 2)
        k2 = downscale_intrinsics(k)
        assert (k2.cx, k2.cy) == ((4 - 1) / 2, (3 - 1) / 2)


class TestPyramids:
    def test_image_pyramid_shapes(self):
        img = ImageBuffer.grayscale(np.random.default_rng(0).uniform(0, 1, (32, 48)))
        pyr = image_pyramid(img, 3)
        assert [p.data.shape[:2] for p in pyr] == [(32, 48), (16, 24), (8, 12)]

    def test_level0_is_input(self):
        img = ImageBuffer.grayscale(np.random.default_rng(1).uniform(0, 1, (8, 8)))
        pyr = image_pyramid(img, 2)
        np.testing.assert_array_equal(pyr[0].data, img.data)

    def test_depth_pyramid_positive(self):
        depth = DepthMap(np.random.default_rng(2).uniform(0.5, 9.0, (16, 16)))
        for lvl in depth_pyramid(depth, 3):
            assert (lvl.data > 0).all()

    def test_intrinsics_pyramid_halves(self):
        ks = intrinsics_pyramid(CameraIntrinsics(fx=100.0, fy=100.0, cx=31.5, cy=31.5), 3)
        assert [k.fx for k in ks] == [100.0, 50.0, 25.0]

    def test_single_level_identity(self):
        img = ImageBuffer.grayscale(np.ones((4, 4)))
        assert len(image_pyramid(img, 1)) == 1

    @pytest.mark.parametrize("levels", [0, -1])
    def test_no_level_rejected_by_every_pyramid(self, levels):
        k = CameraIntrinsics(fx=100.0, fy=100.0, cx=31.5, cy=31.5)
        with pytest.raises(ValueError, match="levels must be >= 1"):
            intrinsics_pyramid(k, levels)
        with pytest.raises(ValueError, match="levels must be >= 1"):
            image_pyramid(ImageBuffer.grayscale(np.ones((4, 4))), levels)
        with pytest.raises(ValueError, match="levels must be >= 1"):
            depth_pyramid(DepthMap(np.ones((4, 4))), levels)

    @pytest.mark.parametrize("levels", [2.5, True])
    def test_non_integral_level_count_rejected(self, levels):
        with pytest.raises(ValueError, match="levels must be an integer"):
            image_pyramid(ImageBuffer.grayscale(np.ones((4, 4))), levels)


class TestUpsample2x:
    def test_half_pixel_hand_case(self):
        # Output j reads input (j + 0.5) / 2 - 0.5 = -0.25, 0.25, 0.75, 1.25,
        # clamped to [0, 1].
        out = upsample2x(np.array([[0.0, 1.0]]), 1, 4)
        np.testing.assert_allclose(out, [[0.0, 0.25, 0.75, 1.0]], atol=1e-15)

    def test_corners_exact(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (3, 5))
        out = upsample2x(a, 9, 13)
        assert out[0, 0] == a[0, 0]
        assert out[0, -1] == a[0, -1]
        assert out[-1, 0] == a[-1, 0]
        assert out[-1, -1] == a[-1, -1]

    def test_1x1_broadcasts(self):
        np.testing.assert_array_equal(upsample2x(np.array([[0.7]]), 4, 6), np.full((4, 6), 0.7))

    def test_constant_stays_constant(self):
        np.testing.assert_allclose(upsample2x(np.full((3, 3), 2.0), 7, 7), 2.0, atol=1e-15)

    def test_channels_kept(self):
        assert upsample2x(np.ones((2, 2, 3)), 4, 4).shape == (4, 4, 3)

    @pytest.mark.parametrize("out_h, out_w, message", [
        (2.5, 3, "out_h must be an integer"),
        (True, 3, "out_h must be an integer"),
        (3, 2.5, "out_w must be an integer"),
        (0, 3, "out_h must be >= 1"),
    ])
    def test_size_must_be_a_positive_integer(self, out_h, out_w, message):
        with pytest.raises(ValueError, match=message):
            upsample2x(np.ones((2, 2)), out_h, out_w)

    @pytest.mark.parametrize("h, w", [(64, 64), (63, 65)])
    def test_linear_ramp_survives_down_and_up(self, h, w):
        # A 2x2 block mean of a linear ramp is the ramp at the block centre,
        # and the half-pixel map reads it back there, so down then up is
        # exact away from the clamped border and the row/column that
        # downsample2x cropped.
        v, u = np.mgrid[0:h, 0:w].astype(float)
        ramp = 0.3 * u - 0.7 * v + 2.0
        out = upsample2x(downsample2x(ramp), h, w)
        inner = (slice(1, h // 2 * 2 - 1), slice(1, w // 2 * 2 - 1))
        np.testing.assert_allclose(out[inner], ramp[inner], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("w, h", [(128, 128), (65, 63)])
    def test_rendered_depth_oracle(self, w, h):
        # The slanted plane's depth rendered at level-1 intrinsics and
        # upsampled matches the full-resolution render; an align-corners
        # map reads 1.9e-3 and 6.1e-3 relative error here.
        spec = make_scene("slanted_plane")
        k = default_intrinsics(w, h)
        eye = SE3Transform.identity()
        full = render_view(spec, eye, k, w, h)[1].data
        half = render_view(spec, eye, downscale_intrinsics(k), w // 2, h // 2)[1].data
        rel = np.abs(upsample2x(half, h, w) / full - 1.0)
        assert rel[2:-2, 2:-2].max() < 1e-4

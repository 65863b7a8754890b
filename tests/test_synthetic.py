"""Tests for the analytic plane-scene renderer.

Oracles come from closed-form ray-plane intersection:

* A fronto-parallel plane at z = d gives depth exactly d at every pixel,
  because rays are parameterized so the ray parameter equals camera-frame z.
* A slanted plane {n . X = c} gives depth c / (n . dir(u, v)) with
  dir = ((u - cx) / fx, (v - cy) / fy, 1); the canonical slanted scene is
  built so the central ray hits at z = 5.
* The canonical two-plane scene has a bounded near patch at z = 4 over a
  background at z = 6, so the center hits 4 and the corners hit 6.
* A constant texture term (0, 0, a, 0) paints every hit pixel with clamp(a),
  making image values checkable without reimplementing the texture.
* Rays that miss every plane get SKY_DEPTH, intensity 0, and a False hit
  flag.
* PSNR of constant images 0.5 vs 0.75 is 10 log10(1 / 0.0625) = 40 log10 2.
* A one-ray-at-a-time loop over the planes (nearest positive hit inside the
  extent, texture summed at the hit) is the brute-force oracle for the
  vectorised single pass.

The renderer ray-casts both views independently (no image resampling), so
inverse-warping a rendered source with the exact depth and pose must
reproduce the target up to bilinear interpolation error only; a PSNR floor
on that reconstruction ties the renderer's pose convention to the warper's.
"""

import numpy as np
import pytest

from egowarp import (
    ImageBuffer,
    PlaneSpec,
    SceneSpec,
    SE3Transform,
    ValidityMask,
    default_intrinsics,
    exp_so3,
    inverse_warp,
    make_scene,
    psnr,
    render_pair,
    render_view,
)
from egowarp.synthetic import SCENE_KINDS, SKY_DEPTH


def _flat_scene(value: float, extent: float | None = None) -> SceneSpec:
    """Fronto plane at z = 5 painted with a constant texture."""
    return SceneSpec(
        planes=(PlaneSpec(np.array([0.0, 0.0, 1.0]), 5.0, extent=extent),),
        texture_freqs=((0.0, 0.0, value, 0.0),),
    )


def _cast_one_ray(spec: SceneSpec, pose: SE3Transform, k, u: int, v: int):
    """(depth, intensity) of pixel (u, v)'s nearest hit, or None on a miss."""
    r = pose.r.m
    center = -(r.T @ pose.t)
    ray = r.T @ np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0])
    best = None
    for plane in spec.planes:
        tau = (plane.offset - plane.normal @ center) / (plane.normal @ ray)
        e1, e2 = plane.basis()
        rel = center + tau * ray - plane.offset * plane.normal
        s, t = rel @ e1, rel @ e2
        inside = plane.extent is None or max(abs(s), abs(t)) <= plane.extent
        if tau > 1e-6 and inside and (best is None or tau < best[0]):
            value = sum(a * np.cos(2.0 * np.pi * (fu * s + fv * t) + phase)
                        for fu, fv, a, phase in spec.texture_freqs)
            best = (tau, min(max(value, 0.0), 1.0))
    return best


class TestPlaneSpec:
    @pytest.mark.parametrize("offset, extent, message", [
        (np.nan, None, "offset must be finite"),
        (np.inf, None, "offset must be finite"),
        (-np.inf, 1.0, "offset must be finite"),
        (5.0, np.nan, "extent must be positive and finite"),
        (5.0, np.inf, "extent must be positive and finite"),
        (5.0, 0.0, "extent must be positive and finite"),
    ])
    def test_non_finite_or_empty_plane_rejected(self, offset, extent, message):
        with pytest.raises(ValueError, match=message):
            PlaneSpec(np.array([0.0, 0.0, 1.0]), offset, extent=extent)

    @pytest.mark.parametrize("offset, extent, name", [
        (True, None, "plane offset"), (5.0, True, "plane extent"),
    ], ids=["offset", "extent"])
    def test_bool_rejected(self, offset, extent, name):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got True$"):
            PlaneSpec(np.array([0.0, 0.0, 1.0]), offset, extent=extent)

    @pytest.mark.parametrize("normal", [[1.0, 0.05, 0.0], [-1.0, 0.0, 0.0]], ids=["near-x", "on-x"])
    def test_basis_of_a_normal_near_the_x_axis(self, normal):
        # |n . x| > 0.9 makes basis() build e1 from the y axis instead.
        plane = PlaneSpec(np.array(normal), 5.0)
        frame = np.stack([*plane.basis(), plane.normal])
        np.testing.assert_allclose(frame @ frame.T, np.eye(3), atol=1e-12)

    def test_extent_stored_as_float(self):
        extent = PlaneSpec(np.array([0.0, 0.0, 1.0]), 5.0, extent=2).extent
        assert type(extent) is float and extent == 2.0

    @pytest.mark.parametrize("normal, message", [
        (np.array([0.0, 1.0]), r"plane normal must have shape \(3,\), got \(2,\)"),
        (np.array([0.0, np.nan, 1.0]), "plane normal must be finite"),
        (np.zeros(3), "plane normal must be nonzero"),
    ], ids=["2-vector", "nan", "zero"])
    def test_bad_normal_rejected(self, normal, message):
        with pytest.raises(ValueError, match=message):
            PlaneSpec(normal, 5.0)


class TestSceneSpec:
    @pytest.mark.parametrize("seed, message", [
        (-3, "seed must be >= 0"), (1.5, "seed must be an integer"),
    ])
    def test_seed_checked_as_make_scene_checks_it(self, seed, message):
        with pytest.raises(ValueError, match=message):
            make_scene("fronto_plane", seed)

    @pytest.mark.parametrize("planes, terms, message", [
        ((), None, "at least one plane"),
        (None, (), "at least one term"),
        (None, ((0.0, 0.0, np.nan, 0.0),), "texture terms must be finite"),
    ], ids=["no-planes", "no-terms", "nan-term"])
    def test_bad_spec_rejected(self, planes, terms, message):
        plane = PlaneSpec(np.array([0.0, 0.0, 1.0]), 5.0)
        with pytest.raises(ValueError, match=message):
            SceneSpec(planes=(plane,) if planes is None else planes,
                      texture_freqs=((0.0, 0.0, 0.5, 0.0),) if terms is None else terms)


class TestRenderView:
    def test_matches_one_ray_at_a_time(self):
        # Rotated and moved so the near patch's edge crosses the view.
        spec = make_scene("two_planes", seed=9)
        pose = SE3Transform(exp_so3(np.array([0.05, -0.08, 0.03])), np.array([0.3, -0.2, 0.5]))
        k = default_intrinsics(40, 30)
        image, depth, hit = render_view(spec, pose, k, 40, 30)
        for v in range(30):
            for u in range(40):
                best = _cast_one_ray(spec, pose, k, u, v)
                assert hit.data[v, u] == (best is not None)
                d, value = best if best is not None else (SKY_DEPTH, 0.0)
                assert depth.data[v, u] == pytest.approx(d, rel=1e-12)
                assert image.data[v, u, 0] == pytest.approx(value, abs=1e-12)
        assert depth.data.min() < 5.0 < depth.data.max()  # patch and background

    def test_fronto_plane_depth_is_constant(self):
        k = default_intrinsics(32, 24)
        _, depth, hit = render_view(make_scene("fronto_plane"), SE3Transform.identity(), k, 32, 24)
        assert np.all(depth.data == 5.0)
        assert np.all(hit.data)

    def test_constant_texture_paints_plane(self):
        k = default_intrinsics(16, 16)
        image, _, _ = render_view(_flat_scene(0.75), SE3Transform.identity(), k, 16, 16)
        assert np.all(image.data == 0.75)

    def test_texture_clamped_to_unit_interval(self):
        k = default_intrinsics(8, 8)
        image, _, _ = render_view(_flat_scene(1.5), SE3Transform.identity(), k, 8, 8)
        assert np.all(image.data == 1.0)

    def test_slanted_plane_matches_ray_formula(self):
        scene = make_scene("slanted_plane")
        k = default_intrinsics(65, 65)
        _, depth, _ = render_view(scene, SE3Transform.identity(), k, 65, 65)
        # cx = cy = 32 exactly, so the central ray is (0, 0, 1).
        assert depth.data[32, 32] == pytest.approx(5.0, rel=1e-12)
        plane = scene.planes[0]
        for v, u in [(0, 0), (10, 50), (64, 64), (3, 40)]:
            d = np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0])
            expect = plane.offset / (plane.normal @ d)
            assert depth.data[v, u] == pytest.approx(expect, rel=1e-12)
        assert depth.data[0, 0] != depth.data[64, 64]

    def test_two_planes_center_near_corner_far(self):
        k = default_intrinsics(64, 64)
        _, depth, _ = render_view(make_scene("two_planes"), SE3Transform.identity(), k, 64, 64)
        center = depth.data[32, 32]
        assert center == pytest.approx(4.0, rel=1e-12)
        assert depth.data[0, 0] == 6.0
        assert depth.data[-1, -1] == 6.0

    def test_missed_rays_are_sky(self):
        # A 0.5-unit patch at z = 5 subtends ~0.1 rad: corners miss.
        k = default_intrinsics(64, 64)
        image, depth, hit = render_view(_flat_scene(0.75, extent=0.5), SE3Transform.identity(), k, 64, 64)
        assert hit.data[32, 32]
        assert not hit.data[0, 0]
        assert depth.data[0, 0] == SKY_DEPTH
        assert image.data[0, 0, 0] == 0.0
        assert image.data[32, 32, 0] == 0.75

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError, match="width must be >= 1"):
            render_view(make_scene("fronto_plane"), SE3Transform.identity(), default_intrinsics(8, 8), 0, 8)

    @pytest.mark.parametrize("width, height, message", [
        (2.5, 8, "width must be an integer"),
        (True, 8, "width must be an integer"),
        (8, 2.5, "height must be an integer"),
        (8, 0, "height must be >= 1"),
    ])
    def test_size_must_be_a_positive_integer(self, width, height, message):
        with pytest.raises(ValueError, match=message):
            render_view(make_scene("fronto_plane"), SE3Transform.identity(),
                        default_intrinsics(8, 8), width, height)


class TestRenderPair:
    def test_identity_baseline_gives_equal_views(self):
        k = default_intrinsics(32, 32)
        pair = render_pair(make_scene("slanted_plane"), SE3Transform.identity(), k, 32, 32)
        np.testing.assert_array_equal(pair.target.data, pair.source.data)

    def test_deterministic_across_calls(self):
        k = default_intrinsics(32, 32)
        baseline = SE3Transform.from_translation([0.1, 0.0, 0.0])
        a = render_pair(make_scene("two_planes", seed=7), baseline, k, 32, 32)
        b = render_pair(make_scene("two_planes", seed=7), baseline, k, 32, 32)
        np.testing.assert_array_equal(a.target.data, b.target.data)
        np.testing.assert_array_equal(a.source.data, b.source.data)
        np.testing.assert_array_equal(a.gt_depth.data, b.gt_depth.data)

    def test_seed_changes_texture(self):
        k = default_intrinsics(32, 32)
        a = render_pair(make_scene("fronto_plane", seed=1), SE3Transform.identity(), k, 32, 32)
        b = render_pair(make_scene("fronto_plane", seed=2), SE3Transform.identity(), k, 32, 32)
        assert not np.array_equal(a.target.data, b.target.data)

    def test_pose_passthrough(self):
        k = default_intrinsics(16, 16)
        baseline = SE3Transform.from_translation([0.1, -0.05, 0.02])
        pair = render_pair(make_scene("fronto_plane"), baseline, k, 16, 16)
        np.testing.assert_array_equal(pair.gt_pose.matrix(), baseline.matrix())

    def test_exact_warp_reconstructs_target(self):
        # Ray-cast views share no grid, so only bilinear error remains.
        k = default_intrinsics(64, 64)
        pair = render_pair(
            make_scene("fronto_plane"), SE3Transform.from_translation([0.1, 0.0, 0.0]), k, 64, 64
        )
        recon, valid = inverse_warp(pair.source, pair.gt_depth, pair.gt_pose, k)
        assert valid.count > 0.9 * 64 * 64
        assert psnr(pair.target, recon, valid) > 50.0


class TestMakeScene:
    def test_known_kinds(self):
        assert SCENE_KINDS == ("fronto_plane", "slanted_plane", "two_planes")
        assert [len(make_scene(kind).planes) for kind in SCENE_KINDS] == [1, 1, 2]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scene kind"):
            make_scene("sphere")

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0"), (2.5, "seed must be an integer"),
        (True, "seed must be an integer"),
    ])
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        with pytest.raises(ValueError, match=message):
            make_scene("fronto_plane", seed)

    def test_texture_values_stay_interior(self):
        # Amplitudes sum to 0.45 around 0.5: never touches the clamp.
        k = default_intrinsics(64, 64)
        for kind in SCENE_KINDS:
            image, _, _ = render_view(make_scene(kind), SE3Transform.identity(), k, 64, 64)
            assert image.data.min() > 0.0
            assert image.data.max() < 1.0


class TestDefaultIntrinsics:
    def test_values(self):
        k = default_intrinsics(128, 96)
        assert (k.fx, k.fy, k.cx, k.cy) == (128.0, 128.0, 63.5, 47.5)

    @pytest.mark.parametrize("width, height, message", [
        (2.5, 3, "width must be an integer, got 2.5"),
        (True, 3, "width must be an integer, got True"),
        (3, 0, "height must be >= 1"),
    ], ids=["float-width", "bool-width", "zero-height"])
    def test_size_checked_as_render_view_checks_it(self, width, height, message):
        with pytest.raises(ValueError, match=message):
            default_intrinsics(width, height)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = render_view(
            make_scene("fronto_plane"), SE3Transform.identity(), default_intrinsics(8, 8), 8, 8
        )[0]
        assert psnr(img, img) == float("inf")

    def test_constant_difference_hand_value(self):
        a = ImageBuffer(np.full((4, 4, 1), 0.5))
        b = ImageBuffer(np.full((4, 4, 1), 0.75))
        assert psnr(a, b) == pytest.approx(40.0 * np.log10(2.0), rel=1e-12)

    def test_mask_excludes_pixels(self):
        a = ImageBuffer(np.full((2, 2, 1), 0.5))
        data = np.full((2, 2, 1), 0.5)
        data[0, 0, 0] = 1.0
        b = ImageBuffer(data)
        mask = ValidityMask(np.array([[False, True], [True, True]]))
        assert psnr(a, b, mask) == float("inf")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="a 2x2 and b 2x3 sizes differ"):
            psnr(ImageBuffer(np.zeros((2, 2, 1))), ImageBuffer(np.zeros((2, 3, 1))))

    def test_mask_size_mismatch_rejected(self):
        a = ImageBuffer(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError, match="images 2x2 and valid 2x3 sizes differ"):
            psnr(a, a, ValidityMask(np.ones((2, 3), dtype=bool)))

    def test_no_valid_pixel_rejected(self):
        a = ImageBuffer(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError, match="no valid pixels"):
            psnr(a, a, ValidityMask(np.zeros((2, 2), dtype=bool)))

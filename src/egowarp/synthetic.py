"""Analytic plane-scene renderer used as a ground-truth oracle.

Scenes are textured planes in the world frame; the target camera sits at the
world origin. Views are rendered by ray-casting each pixel to the nearest
plane and evaluating a continuous sinusoidal texture at the hit point, so no
image-grid resampling is involved anywhere: bilinear interpolation inside the
warping module is the only error source when a rendered pair is
reconstructed with the ground-truth depth and pose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .camera import CameraIntrinsics, _rays
from .exceptions import _check_count, _check_finite, _check_type
from .metrics import DEFAULT_MAX_DEPTH
from .se3 import SE3Transform
from .warp import DepthMap, ImageBuffer, ValidityMask, _check_same_size

# Depth recorded for rays that miss every plane: the evaluation's depth cap.
SKY_DEPTH = DEFAULT_MAX_DEPTH

SCENE_KINDS = ("fronto_plane", "slanted_plane", "two_planes")


@dataclass(frozen=True, eq=False)
class PlaneSpec:
    """Textured plane {X : normal . X = offset}, optionally bounded.

    extent, when set, bounds the plane to a square patch |s| <= extent,
    |t| <= extent in plane coordinates (s, t) anchored at offset * normal.
    """

    normal: np.ndarray
    offset: float
    extent: float | None = None

    def __post_init__(self) -> None:
        n = _check_finite(self.normal, "plane normal", (3,))
        norm = np.linalg.norm(n)
        if norm == 0:
            raise ValueError("plane normal must be nonzero")
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", float(_check_finite(self.offset, "plane offset")))
        if self.extent is not None:
            if not 0 < self.extent < np.inf:
                raise ValueError("plane extent must be positive and finite")
            object.__setattr__(self, "extent", float(_check_finite(self.extent, "plane extent")))

    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic orthonormal in-plane axes (e1, e2)."""
        n = self.normal
        a = np.array([1.0, 0.0, 0.0])
        if abs(n @ a) > 0.9:
            a = np.array([0.0, 1.0, 0.0])
        e1 = a - (a @ n) * n
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        return e1, e2


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Planes plus a shared texture: sum_k a_k cos(2pi(fu s + fv t) + phase).

    texture_freqs rows are (fu, fv, amplitude, phase) with frequencies in
    cycles per scene unit; texture values are clamped to [0, 1] after
    summation. A single zero-frequency, zero-phase term of amplitude a gives
    the constant texture clamp(a).
    """

    planes: tuple[PlaneSpec, ...]
    texture_freqs: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.planes) == 0:
            raise ValueError("scene needs at least one plane")
        for i, plane in enumerate(self.planes):
            _check_type(plane, PlaneSpec, f"planes[{i}]")
        if len(self.texture_freqs) == 0:
            raise ValueError("texture needs at least one term")
        rows = (_check_finite(row, "texture terms") for row in self.texture_freqs)
        freqs = tuple((float(a), float(b), float(c), float(d)) for a, b, c, d in rows)
        object.__setattr__(self, "planes", tuple(self.planes))
        object.__setattr__(self, "texture_freqs", freqs)


@dataclass(frozen=True, eq=False)
class RenderedPair:
    """Target/source views with the exact depth and relative pose."""

    target: ImageBuffer
    source: ImageBuffer
    gt_depth: DepthMap
    gt_pose: SE3Transform  # target -> source
    k: CameraIntrinsics


def _texture(spec: SceneSpec, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    val = np.zeros_like(s)
    for fu, fv, amp, phase in spec.texture_freqs:
        val += amp * np.cos(2.0 * np.pi * (fu * s + fv * t) + phase)
    return np.clip(val, 0.0, 1.0)


def render_view(
    spec: SceneSpec,
    pose: SE3Transform,
    k: CameraIntrinsics,
    width: int,
    height: int,
) -> tuple[ImageBuffer, DepthMap, ValidityMask]:
    """Ray-cast one view of the scene.

    Args:
        pose: world-to-camera transform of this view. The target view uses
            the identity, so the source view's pose equals the
            target-to-source transform.

    Returns:
        (image, depth, hit): grayscale intensities, camera-frame z of the
        nearest intersection (SKY_DEPTH where no plane is hit), and the hit
        mask. Sky pixels have intensity 0.

    One pass over the planes casts each ray once: a nearer hit overwrites
    both the depth and the texture of its pixel.
    """
    _check_count(width, "width", 1)
    _check_count(height, "height", 1)
    r = pose.r.m
    center = -(r.T @ pose.t)
    rays = _rays(np.arange(width, dtype=float), np.arange(height, dtype=float)[:, None], k)
    dir_cam = np.stack(np.broadcast_arrays(*rays, 1.0), axis=-1)
    dir_world = dir_cam @ r  # R^T applied to each ray

    # dir_cam z-component is 1, so the ray parameter equals camera-frame depth.
    depth = np.full((height, width), np.inf)
    image = np.zeros((height, width))
    for plane in spec.planes:
        denom = dir_world @ plane.normal
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = (plane.offset - center @ plane.normal) / denom
        ok = (np.abs(denom) > 1e-12) & (tau > 1e-6) & np.isfinite(tau)
        e1, e2 = plane.basis()
        # Rays that miss the plane read it at tau = 0: no inf or NaN in the texture.
        hit = center + np.where(ok, tau, 0.0)[..., None] * dir_world
        rel = hit - plane.offset * plane.normal
        s, t = rel @ e1, rel @ e2
        if plane.extent is not None:
            ok &= (np.abs(s) <= plane.extent) & (np.abs(t) <= plane.extent)
        closer = ok & (tau < depth)
        depth = np.where(closer, tau, depth)
        image = np.where(closer, _texture(spec, s, t), image)

    hit_any = np.isfinite(depth)
    depth = np.where(hit_any, depth, SKY_DEPTH)
    return (
        ImageBuffer.grayscale(image),
        DepthMap(depth),
        ValidityMask(hit_any),
    )


def render_pair(
    spec: SceneSpec,
    baseline_pose: SE3Transform,
    k: CameraIntrinsics,
    width: int,
    height: int,
) -> RenderedPair:
    """Render the target view at identity and the source at baseline_pose.

    Identical inputs give bit-identical buffers; a baseline of identity makes
    source and target equal arrays.
    """
    target, gt_depth, _ = render_view(spec, SE3Transform.identity(), k, width, height)
    source, _, _ = render_view(spec, baseline_pose, k, width, height)
    return RenderedPair(
        target=target, source=source, gt_depth=gt_depth, gt_pose=baseline_pose, k=k
    )


def make_scene(kind: str, seed: int = 42) -> SceneSpec:
    """Canonical scene of the given kind with a seeded multi-frequency texture.

    Three non-axis-aligned sinusoids (orientations spread over ~180 degrees,
    0.25..0.5 cycles per scene unit) over a 0.5 constant term keep values
    inside (0, 1): smooth everywhere, no clamping kinks, and enough oriented
    gradient for pose alignment without aperture ambiguity.
    """
    if kind not in SCENE_KINDS:
        raise ValueError(f"unknown scene kind {kind!r}")
    _check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    terms = [(0.0, 0.0, 0.5, 0.0)]
    base_angles = np.array([10.0, 65.0, 120.0]) + rng.uniform(-15.0, 15.0, 3)
    mags = rng.uniform(0.25, 0.5, 3)
    amps = (0.22, 0.15, 0.08)
    for ang_deg, mag, amp in zip(base_angles, mags, amps):
        ang = np.deg2rad(ang_deg)
        terms.append(
            (mag * np.cos(ang), mag * np.sin(ang), amp, rng.uniform(0.0, 2.0 * np.pi))
        )
    if kind == "fronto_plane":
        planes = (PlaneSpec(np.array([0.0, 0.0, 1.0]), 5.0),)
    elif kind == "slanted_plane":
        n = np.array([0.25, -0.15, 1.0])
        n = n / np.linalg.norm(n)
        # offset chosen so the central ray hits at z = 5
        planes = (PlaneSpec(n, float(n[2] * 5.0)),)
    else:
        planes = (
            PlaneSpec(np.array([0.0, 0.0, 1.0]), 6.0),
            PlaneSpec(np.array([0.0, 0.0, 1.0]), 4.0, extent=1.0),
        )
    return SceneSpec(planes=planes, texture_freqs=tuple(terms))


def default_intrinsics(width: int, height: int) -> CameraIntrinsics:
    """Square-pixel intrinsics with f = width and the center mid-image."""
    _check_count(width, "width", 1)
    _check_count(height, "height", 1)
    return CameraIntrinsics(
        fx=float(width),
        fy=float(width),
        cx=(width - 1) / 2.0,
        cy=(height - 1) / 2.0,
    )


def psnr(a: ImageBuffer, b: ImageBuffer, valid: ValidityMask | None = None) -> float:
    """Peak signal-to-noise ratio in dB (peak 1.0), over valid pixels.

    Returns inf for identical inputs.
    """
    _check_same_size(a, b, "a", "b")
    diff = a.data - b.data
    if valid is not None:
        _check_same_size(a, valid, "images", "valid")
        if valid.count == 0:
            raise ValueError("no valid pixels")
        diff = diff[valid.data]
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return -10.0 * np.log10(mse)

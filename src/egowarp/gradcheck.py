"""Finite-difference verification of every analytic gradient in the package.

Central differences with h = 1e-5 against seeded random configurations.
Relative error uses a unit floor, |a - fd| / max(1, |a|, |fd|), so
near-zero entries are compared absolutely. Known kinks are excluded by
construction: sample points near bilinear grid lines or validity borders,
photometric residuals near L1 zero crossings, depth differences near
smoothness sign flips, and ReLU preactivations near zero.

The `corruption` knob is the checker's self-test: it shifts every analytic
entry by corruption * (1 + |entry|), which guarantees a reported error of at
least ~corruption / (1 + corruption) whatever the gradient's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionGateParams, FeatureMap, ag_backward, ag_forward
from .camera import (
    CameraIntrinsics,
    Pixel,
    backproject,
    reproject,
    reproject_grid,
    reproject_jacobian,
)
from .align import retract_pose
from .losses import (
    LossWeights,
    WeightMask,
    explainability_reg,
    loss_gradients,
    photometric_l1,
    smoothness,
)
from .se3 import SE3Transform, exp_so3
from .warp import (
    DepthMap,
    ImageBuffer,
    inverse_warp,
    pixel_grid,
    warp_jacobians,
)

COMPONENTS = ("reproject", "warp", "losses", "attention")

FD_STEP = 1e-5
# Exclusion margins around non-differentiable sets, in the relevant units
# (pixels for grid lines and borders, intensity for L1 kinks, scene units
# for depth differences). FD displacements are orders of magnitude smaller.
GRID_MARGIN = 1e-3
KINK_MARGIN = 1e-3
_MAX_DRAWS = 400


@dataclass(frozen=True)
class GradCheckReport:
    """Worst relative error over all trials of one component."""

    component: str
    trials: int
    max_rel_err: float


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """|analytic - fd| / max(1, |analytic|, |fd|), with NaN read as inf.

    A NaN here (a NaN input, or inf against inf) would otherwise vanish in
    the callers' max(), so a non-finite gradient could never fail.
    """
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    with np.errstate(invalid="ignore"):
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
        err = np.abs(analytic - fd) / denom
    return np.where(np.isnan(err), np.inf, err)


def _corrupt(arr: np.ndarray, corruption: float) -> np.ndarray:
    if corruption == 0.0:
        return arr
    return arr + corruption * (1.0 + np.abs(arr))


def _smooth_field(rng: np.random.Generator, h: int, w: int, amp: float) -> np.ndarray:
    """Sum of 3 random sinusoids, bounded by 3*amp, smooth in (u, v)."""
    v, u = np.mgrid[0:h, 0:w].astype(float)
    out = np.zeros((h, w))
    for _ in range(3):
        fu, fv = rng.uniform(-0.25, 0.25, 2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += rng.uniform(0.3, 1.0) * amp * np.cos(
            2.0 * np.pi * (fu * u + fv * v) + phase
        )
    return out


def _random_image(rng: np.random.Generator, h: int, w: int) -> ImageBuffer:
    return ImageBuffer.grayscale(0.5 + _smooth_field(rng, h, w, 0.12))


def _random_depth(rng: np.random.Generator, h: int, w: int) -> DepthMap:
    return DepthMap(rng.uniform(3.5, 5.5) + _smooth_field(rng, h, w, 0.2))


def _random_small_pose(rng: np.random.Generator) -> SE3Transform:
    return SE3Transform(
        exp_so3(rng.uniform(-0.05, 0.05, 3)), rng.uniform(-0.08, 0.08, 3)
    )


def _check_reproject(rng: np.random.Generator, corruption: float) -> float:
    for _ in range(_MAX_DRAWS):
        k = CameraIntrinsics(
            fx=rng.uniform(80.0, 150.0),
            fy=rng.uniform(80.0, 150.0),
            cx=rng.uniform(28.0, 36.0),
            cy=rng.uniform(28.0, 36.0),
        )
        p = Pixel(rng.uniform(4.0, 60.0), rng.uniform(4.0, 60.0))
        depth = rng.uniform(2.0, 8.0)
        t = SE3Transform(exp_so3(rng.uniform(-0.3, 0.3, 3)), rng.uniform(-0.5, 0.5, 3))
        if t.apply(backproject(p, depth, k))[2] > 0.5:
            break
    else:
        raise RuntimeError("could not draw a valid reproject configuration")

    d_depth, d_pose = reproject_jacobian(p, depth, t, k)
    d_depth = _corrupt(d_depth, corruption)
    d_pose = _corrupt(d_pose, corruption)
    h = FD_STEP
    fd_depth = (
        np.array(reproject(p, depth + h, t, k))
        - np.array(reproject(p, depth - h, t, k))
    ) / (2.0 * h)
    worst = float(np.max(_rel_err(d_depth, fd_depth)))
    for i in range(6):
        delta = np.zeros(6)
        delta[i] = h
        fd = (
            np.array(reproject(p, depth, retract_pose(t, delta), k))
            - np.array(reproject(p, depth, retract_pose(t, -delta), k))
        ) / (2.0 * h)
        worst = max(worst, float(np.max(_rel_err(d_pose[:, i], fd))))
    return worst


def _stable_pixels(
    source: ImageBuffer, depth: DepthMap, pose: SE3Transform, k: CameraIntrinsics
) -> np.ndarray:
    """Pixels whose sample point is valid and far from grid lines/borders."""
    h, w = depth.data.shape
    uv = pixel_grid(h, w)
    uv_src, z, in_front = reproject_grid(uv, depth.data, pose, k)
    u, v = uv_src[..., 0], uv_src[..., 1]
    inside = (
        (u > GRID_MARGIN)
        & (u < source.width - 1 - GRID_MARGIN)
        & (v > GRID_MARGIN)
        & (v < source.height - 1 - GRID_MARGIN)
    )
    frac = uv_src - np.floor(uv_src)
    off_grid = np.all(np.minimum(frac, 1.0 - frac) > GRID_MARGIN, axis=-1)
    return in_front & (z > 0.5) & inside & off_grid


def _check_warp(
    rng: np.random.Generator,
    corruption: float,
    source: ImageBuffer | None = None,
) -> float:
    h = w = 8
    k = CameraIntrinsics(8.0, 8.0, 3.5, 3.5)
    if source is None:
        source = _random_image(rng, h, w)
    depth = _random_depth(rng, h, w)
    pose = _random_small_pose(rng)
    include = _stable_pixels(source, depth, pose, k)

    d_depth_an, d_pose_an = warp_jacobians(source, depth, pose, k)
    d_depth_an = _corrupt(d_depth_an, corruption)
    d_pose_an = _corrupt(d_pose_an, corruption)

    step = FD_STEP
    # recon(p) depends on depth(p) alone, so one whole-map perturbation
    # yields every diagonal entry at once.
    r_plus = inverse_warp(source, DepthMap(depth.data + step), pose, k)[0].data
    r_minus = inverse_warp(source, DepthMap(depth.data - step), pose, k)[0].data
    fd_depth = (r_plus - r_minus) / (2.0 * step)
    worst = float(np.max(_rel_err(d_depth_an, fd_depth)[include], initial=0.0))
    for i in range(6):
        delta = np.zeros(6)
        delta[i] = step
        r_plus = inverse_warp(source, depth, retract_pose(pose, delta), k)[0].data
        r_minus = inverse_warp(source, depth, retract_pose(pose, -delta), k)[0].data
        fd = (r_plus - r_minus) / (2.0 * step)
        err = _rel_err(d_pose_an[..., i], fd)[include]
        worst = max(worst, float(np.max(err, initial=0.0)))
    return worst


def _check_losses(rng: np.random.Generator, corruption: float) -> float:
    h = w = 8
    k = CameraIntrinsics(8.0, 8.0, 3.5, 3.5)
    for _ in range(_MAX_DRAWS):
        target = _random_image(rng, h, w)
        source = _random_image(rng, h, w)
        depth = _random_depth(rng, h, w)
        pose = _random_small_pose(rng)
        mask = WeightMask(rng.uniform(0.2, 0.9, (h, w)))
        weights = LossWeights(
            lambda_smo=rng.uniform(0.05, 0.2),
            lambda_reg=rng.uniform(0.05, 0.2),
            lambda_bf=0.1,
        )
        recon, valid = inverse_warp(source, depth, pose, k)
        stable = _stable_pixels(source, depth, pose, k)
        # pose FD sums every pixel, so the whole frame must be kink-free:
        # valid pixels stable and away from L1 zero crossings, invalid
        # pixels far outside the border.
        uv_src, _, _ = reproject_grid(pixel_grid(h, w), depth.data, pose, k)
        u, v = uv_src[..., 0], uv_src[..., 1]
        deep_outside = (
            (u < -GRID_MARGIN)
            | (u > w - 1 + GRID_MARGIN)
            | (v < -GRID_MARGIN)
            | (v > h - 1 + GRID_MARGIN)
        )
        diff_ok = np.min(np.abs(target.data - recon.data), axis=2) > KINK_MARGIN
        if not np.all(np.where(valid.data, stable & diff_ok, deep_outside)):
            continue
        dx_ok = np.abs(np.diff(depth.data, axis=1)) > KINK_MARGIN
        dy_ok = np.abs(np.diff(depth.data, axis=0)) > KINK_MARGIN
        break
    else:
        raise RuntimeError("could not draw a kink-free loss configuration")

    def scalar_loss(depth_arr: np.ndarray, pose_t: SE3Transform, mask_arr: np.ndarray) -> float:
        d = DepthMap(depth_arr)
        m = WeightMask(mask_arr)
        recon_l, valid_l = inverse_warp(source, d, pose_t, k)
        return (
            photometric_l1(target, recon_l, m, valid_l)
            + weights.lambda_smo * smoothness(d, target)
            + weights.lambda_reg * explainability_reg(m)
        )

    g = loss_gradients(target, source, depth, pose, k, mask, weights)
    d_depth = _corrupt(g.d_depth, corruption)
    d_pose = _corrupt(g.d_pose, corruption)
    d_mask = _corrupt(g.d_mask, corruption)
    step = FD_STEP
    worst = 0.0

    # Per-pixel depth FD; a pixel also needs its smoothness edges sign-stable.
    edge_ok = np.ones((h, w), dtype=bool)
    edge_ok[:, 1:] &= dx_ok
    edge_ok[:, :-1] &= dx_ok
    edge_ok[1:, :] &= dy_ok
    edge_ok[:-1, :] &= dy_ok
    depth_ok = edge_ok & (~valid.data | stable)
    for i in range(h):
        for j in range(w):
            if not depth_ok[i, j]:
                continue
            dp = depth.data.copy()
            dp[i, j] += step
            dm = depth.data.copy()
            dm[i, j] -= step
            fd = (scalar_loss(dp, pose, mask.data) - scalar_loss(dm, pose, mask.data)) / (
                2.0 * step
            )
            worst = max(worst, float(_rel_err(d_depth[i, j], fd)))

    for i in range(6):
        delta = np.zeros(6)
        delta[i] = step
        fd = (
            scalar_loss(depth.data, retract_pose(pose, delta), mask.data)
            - scalar_loss(depth.data, retract_pose(pose, -delta), mask.data)
        ) / (2.0 * step)
        worst = max(worst, float(_rel_err(d_pose[i], fd)))

    for i in range(h):
        for j in range(w):
            mp = mask.data.copy()
            mp[i, j] += step
            mm = mask.data.copy()
            mm[i, j] -= step
            fd = (scalar_loss(depth.data, pose, mp) - scalar_loss(depth.data, pose, mm)) / (
                2.0 * step
            )
            worst = max(worst, float(_rel_err(d_mask[i, j], fd)))
    return worst


def _check_attention(rng: np.random.Generator, corruption: float) -> float:
    for _ in range(_MAX_DRAWS):
        f_x, f_g, f_int = (int(n) for n in rng.integers(1, 5, 3))
        h, w = (int(n) for n in rng.integers(2, 4, 2))
        x = FeatureMap(rng.normal(0.0, 1.0, (h, w, f_x)))
        g = FeatureMap(rng.normal(0.0, 1.0, (h, w, f_g)))
        params = AttentionGateParams(
            w_x=rng.normal(0.0, 0.6, (f_x, f_int)),
            w_g=rng.normal(0.0, 0.6, (f_g, f_int)),
            psi=rng.normal(0.0, 0.6, f_int),
            b_xg=rng.normal(0.0, 0.6, f_int),
            b_psi=float(rng.normal(0.0, 0.6)),
        )
        pre = x.data @ params.w_x + g.data @ params.w_g + params.b_xg
        if np.min(np.abs(pre)) > KINK_MARGIN:
            break
    else:
        raise RuntimeError("could not draw a ReLU-stable attention configuration")
    upstream = FeatureMap(rng.normal(0.0, 1.0, (h, w, f_x)))

    def loss_at(p: AttentionGateParams, x_d: np.ndarray, g_d: np.ndarray) -> float:
        _, gated = ag_forward(FeatureMap(x_d), FeatureMap(g_d), p)
        return float(np.sum(upstream.data * gated.data))

    d_params, d_x, d_g = ag_backward(x, g, params, upstream)
    step = FD_STEP
    worst = 0.0

    def fd_param(build) -> float:
        return (
            loss_at(build(step), x.data, g.data) - loss_at(build(-step), x.data, g.data)
        ) / (2.0 * step)

    def bumped(field_name: str, idx, eps: float) -> AttentionGateParams:
        fields = {
            "w_x": params.w_x.copy(),
            "w_g": params.w_g.copy(),
            "psi": params.psi.copy(),
            "b_xg": params.b_xg.copy(),
            "b_psi": params.b_psi,
        }
        if field_name == "b_psi":
            fields["b_psi"] = params.b_psi + eps
        else:
            fields[field_name][idx] += eps
        return AttentionGateParams(**fields)

    for name, analytic in (
        ("w_x", _corrupt(d_params.w_x, corruption)),
        ("w_g", _corrupt(d_params.w_g, corruption)),
        ("psi", _corrupt(d_params.psi, corruption)),
        ("b_xg", _corrupt(d_params.b_xg, corruption)),
    ):
        arr = getattr(params, name)
        for idx in np.ndindex(arr.shape):
            fd = fd_param(lambda eps, i=idx, n=name: bumped(n, i, eps))
            worst = max(worst, float(_rel_err(analytic[idx], fd)))
    fd = fd_param(lambda eps: bumped("b_psi", None, eps))
    worst = max(worst, float(_rel_err(_corrupt(np.float64(d_params.b_psi), corruption), fd)))

    d_x_c = _corrupt(d_x.data, corruption)
    for idx in np.ndindex(x.data.shape):
        xp = x.data.copy()
        xp[idx] += step
        xm = x.data.copy()
        xm[idx] -= step
        fd = (loss_at(params, xp, g.data) - loss_at(params, xm, g.data)) / (2.0 * step)
        worst = max(worst, float(_rel_err(d_x_c[idx], fd)))
    d_g_c = _corrupt(d_g.data, corruption)
    for idx in np.ndindex(g.data.shape):
        gp = g.data.copy()
        gp[idx] += step
        gm = g.data.copy()
        gm[idx] -= step
        fd = (loss_at(params, x.data, gp) - loss_at(params, x.data, gm)) / (2.0 * step)
        worst = max(worst, float(_rel_err(d_g_c[idx], fd)))
    return worst


_CHECKERS = {
    "reproject": _check_reproject,
    "warp": _check_warp,
    "losses": _check_losses,
    "attention": _check_attention,
}


def grad_check(
    component: str, seed: int = 42, trials: int = 100, corruption: float = 0.0
) -> GradCheckReport:
    """Run seeded finite-difference trials for one component.

    Args:
        component: one of COMPONENTS.
        seed: master seed; trial i uses default_rng([seed, i]).
        trials: number of independent configurations.
        corruption: self-test knob, see module docstring. Zero in normal use.

    Returns:
        GradCheckReport with the worst relative error observed.
    """
    if component not in _CHECKERS:
        raise ValueError(f"component must be one of {COMPONENTS}, got {component!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    checker = _CHECKERS[component]
    worst = 0.0
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        worst = max(worst, checker(rng, corruption))
    return GradCheckReport(component=component, trials=trials, max_rel_err=worst)

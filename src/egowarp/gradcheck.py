"""Finite-difference verification of every analytic gradient in the package.

Central differences with h = 1e-5 against seeded random configurations.
Relative error uses a unit floor, |a - fd| / max(1, |a|, |fd|), so
near-zero entries are compared absolutely. Known kinks are excluded by
construction: sample points near bilinear grid lines or validity borders,
photometric residuals near L1 zero crossings, depth differences near
smoothness sign flips, and ReLU preactivations near zero.

Components (one random configuration per trial):
  reproject  reproject_jacobian_grid, the camera._channel_rows of unit
             pixel gradients, which warp_jacobians and the solver's
             curvature run too, against reproject_grid on an 8x8 grid of
             random pixels and depths.
  warp       warp_jacobians, whose rows the solver's IRLS curvature is
             built from, against inverse_warp on a random 8x8 image, depth
             and small pose, at pixels whose sample point is stable.
  losses     loss_gradients (depth, pose, mask) against the scalar
             photometric + smoothness + explainability total, on a frame
             drawn free of kinks.
  attention  ag_backward (every gate parameter, x and g) against the
             scalar <upstream, gated> of ag_forward.
Per-pixel maps depend on depth(p) alone, so one whole-map depth step gives
their diagonal; pose columns step along the six retract_pose directions.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .attention import AttentionGateParams, FeatureMap, ag_backward, ag_forward
from .camera import CameraIntrinsics, reproject_grid, reproject_jacobian_grid
from .exceptions import _check_count, _check_finite
from .losses import (
    LossWeights,
    WeightMask,
    _edge_weights,
    _smoothness,
    explainability_reg,
    loss_gradients,
    photometric_l1,
    smoothness,
    total_loss,
)
from .se3 import SE3Transform, exp_so3, retract_pose
from .warp import (
    DepthMap,
    ImageBuffer,
    inverse_warp,
    pixel_grid,
    warp_jacobians,
)

FD_STEP = 1e-5
# Exclusion margins around non-differentiable sets, in the relevant units
# (pixels for grid lines and borders, intensity for L1 kinks, scene units
# for depth differences). FD displacements are orders of magnitude smaller.
GRID_MARGIN = 1e-3
KINK_MARGIN = 1e-3
_MAX_DRAWS = 400


@dataclass(frozen=True)
class GradCheckReport:
    """Worst relative error over all trials of one component.

    worst_trial is the trial it came from and worst_entry the analytic
    entry, named with its index, e.g. "d_pose[4]".
    """

    component: str
    trials: int
    max_rel_err: float
    worst_trial: int
    worst_entry: str


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


def _worst(terms) -> tuple[float, str]:
    """(largest error, its entry) over (name, analytic, fd, include) terms.

    include (None for all) masks the leading axes; excluded entries read 0.
    """
    found = []
    for name, analytic, fd, include in terms:
        err = _rel_err(analytic, fd)
        if include is not None:
            err[~include] = 0.0
        idx = np.unravel_index(np.argmax(err), err.shape)
        found.append((float(err[idx]), f"{name}{[int(i) for i in idx]}"))
    return max(found, key=lambda f: f[0])


def _central(f, move):
    """(f(move(h)) - f(move(-h))) / 2h for h = FD_STEP."""
    return (f(move(FD_STEP)) - f(move(-FD_STEP))) / (2.0 * FD_STEP)


def _bumped(arr: np.ndarray, idx, eps: float) -> np.ndarray:
    """A copy of arr with arr[idx] += eps."""
    out = np.array(arr, dtype=float)
    out[idx] += eps
    return out


def _fd(f, x: np.ndarray, include: np.ndarray | None = None) -> np.ndarray:
    """Central differences of scalar f at x along each entry (0 outside include)."""
    fd = np.zeros(np.shape(x))
    for idx in np.ndindex(fd.shape):
        if include is None or include[idx]:
            fd[idx] = _central(f, lambda eps: _bumped(x, idx, eps))
    return fd


def _fd_pose(f, pose: SE3Transform) -> np.ndarray:
    """Central differences of f along the six retract_pose directions, last axis."""
    cols = [_central(f, lambda eps: retract_pose(pose, eps * e)) for e in np.eye(6)]
    return np.stack(cols, axis=-1)


def _per_pixel(f, d_depth, d_pose, depth: np.ndarray, pose: SE3Transform, include=None):
    """Terms for a map f(depth, pose) whose pixel p depends on depth(p) only."""
    fd_depth = _central(lambda d: f(d, pose), lambda eps: depth + eps)
    fd_pose = _fd_pose(lambda p: f(depth, p), pose)
    return [("d_depth", d_depth, fd_depth, include), ("d_pose", d_pose, fd_pose, include)]


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


def _check_reproject(rng: np.random.Generator) -> list:
    for _ in range(_MAX_DRAWS):
        k = CameraIntrinsics(
            fx=rng.uniform(80.0, 150.0),
            fy=rng.uniform(80.0, 150.0),
            cx=rng.uniform(28.0, 36.0),
            cy=rng.uniform(28.0, 36.0),
        )
        uv = rng.uniform(4.0, 60.0, (8, 8, 2))
        depth = rng.uniform(2.0, 8.0, (8, 8))
        t = SE3Transform(exp_so3(rng.uniform(-0.3, 0.3, 3)), rng.uniform(-0.5, 0.5, 3))
        if np.all(reproject_grid(uv, depth, t, k)[1] > 0.5):
            break
    else:
        raise RuntimeError("could not draw a valid reproject configuration")

    d_depth, d_pose, _ = reproject_jacobian_grid(uv, depth, t, k)
    return _per_pixel(lambda d, p: reproject_grid(uv, d, p, k)[0], d_depth, d_pose, depth, t)


def _stable_pixels(
    source: ImageBuffer, depth: DepthMap, pose: SE3Transform, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """(stable, outside): pixels whose sample point is valid and far from
    grid lines/borders, and pixels whose sample point lies more than
    GRID_MARGIN outside the frame."""
    h, w = depth.data.shape
    uv = pixel_grid(h, w)
    uv_src, z, in_front = reproject_grid(uv, depth.data, pose, k)
    u, v = uv_src[..., 0], uv_src[..., 1]
    # Signed distance to the nearest frame border, negative outside.
    edge = np.minimum.reduce([u, source.width - 1 - u, v, source.height - 1 - v])
    inside, outside = edge > GRID_MARGIN, edge < -GRID_MARGIN
    frac = uv_src - np.floor(uv_src)
    off_grid = np.all(np.minimum(frac, 1.0 - frac) > GRID_MARGIN, axis=-1)
    return in_front & (z > 0.5) & inside & off_grid, outside


def _check_warp(rng: np.random.Generator) -> list:
    h = w = 8
    k = CameraIntrinsics(8.0, 8.0, 3.5, 3.5)
    source = _random_image(rng, h, w)
    depth = _random_depth(rng, h, w)
    pose = _random_small_pose(rng)
    include, _ = _stable_pixels(source, depth, pose, k)

    d_depth, d_pose = warp_jacobians(source, depth, pose, k)
    return _per_pixel(
        lambda d, p: inverse_warp(source, DepthMap(d), p, k)[0].data,
        d_depth, d_pose, depth.data, pose, include,
    )


def _check_losses(rng: np.random.Generator) -> list:
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
        # pose FD sums every pixel, so the whole frame must be kink-free:
        # valid pixels stable and away from L1 zero crossings, invalid
        # pixels far outside the border.
        stable, outside = _stable_pixels(source, depth, pose, k)
        diff_ok = np.min(np.abs(target.data - recon.data), axis=2) > KINK_MARGIN
        if np.all(np.where(valid.data, stable & diff_ok, outside)):
            break
    else:
        raise RuntimeError("could not draw a kink-free loss configuration")

    def total(recon_l, valid_l, smo: float, m: WeightMask, reg: float) -> float:
        return total_loss(photometric_l1(target, recon_l, m, valid_l), smo, reg, 0.0, weights)

    # Each sweep recomputes only the terms its variable moves: the mask's
    # explainability term is built once for the depth and pose sweeps, the
    # smoothness once for the pose and mask sweeps, and the depth sweep runs
    # smoothness's own _smoothness on the target's edge weights, built once.
    edges = _edge_weights(target)
    smo = smoothness(depth, target)
    reg = explainability_reg(mask)

    def warped_loss(depth_arr: np.ndarray, pose_t: SE3Transform, smo_d: float) -> float:
        return total(*inverse_warp(source, DepthMap(depth_arr), pose_t, k), smo_d, mask, reg)

    def masked_loss(m_arr: np.ndarray) -> float:
        m = WeightMask(m_arr)
        return total(recon, valid, smo, m, explainability_reg(m))

    g = loss_gradients(target, source, depth, pose, k, mask, weights)
    # Per-pixel depth FD; a pixel also needs its smoothness edges sign-stable.
    edge_ok = np.ones((h, w), dtype=bool)
    for ahead, behind, _ in edges:
        sign_stable = np.abs(depth.data[ahead] - depth.data[behind]) > KINK_MARGIN
        edge_ok[ahead] &= sign_stable
        edge_ok[behind] &= sign_stable
    depth_ok = edge_ok & (~valid.data | stable)
    fd_depth = _fd(lambda d: warped_loss(d, pose, _smoothness(d, edges)), depth.data, depth_ok)
    fd_pose = _fd_pose(lambda p: warped_loss(depth.data, p, smo), pose)
    # Neither the warp nor smoothness depends on the mask.
    fd_mask = _fd(masked_loss, mask.data)
    return [
        ("d_depth", g.d_depth, fd_depth, depth_ok),
        ("d_pose", g.d_pose, fd_pose, None),
        ("d_mask", g.d_mask, fd_mask, None),
    ]


def _check_attention(rng: np.random.Generator) -> list:
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

    def loss_at(p: AttentionGateParams, x_m: FeatureMap, g_m: FeatureMap) -> float:
        return float(np.sum(upstream.data * ag_forward(x_m, g_m, p)[1].data))

    def bumped(name: str, a: np.ndarray) -> AttentionGateParams:  # checks that field alone
        p, checked = copy.copy(params), _check_finite(a, name)
        object.__setattr__(p, name, checked if checked.ndim else float(checked))
        return p

    d_params, d_x, d_g = ag_backward(x, g, params, upstream)
    terms = []
    for name in ("w_x", "w_g", "psi", "b_xg", "b_psi"):
        fd = _fd(lambda a, n=name: loss_at(bumped(n, a), x, g), getattr(params, name))
        terms.append((f"d_params.{name}", getattr(d_params, name), fd, None))
    terms.append(("d_x", d_x.data, _fd(lambda a: loss_at(params, FeatureMap(a), g), x.data), None))
    terms.append(("d_g", d_g.data, _fd(lambda a: loss_at(params, x, FeatureMap(a)), g.data), None))
    return terms


_CHECKERS = {
    "reproject": _check_reproject,
    "warp": _check_warp,
    "losses": _check_losses,
    "attention": _check_attention,
}
COMPONENTS = tuple(_CHECKERS)


def grad_check(component: str, seed: int = 42, trials: int = 100) -> GradCheckReport:
    """Run seeded finite-difference trials for one component.

    Args:
        component: one of COMPONENTS.
        seed: master seed, an integer >= 0; trial i uses default_rng([seed, i]).
        trials: number of independent configurations, an integer >= 1.

    Returns:
        GradCheckReport with the worst relative error observed and where.
    """
    if component not in _CHECKERS:
        raise ValueError(f"component must be one of {COMPONENTS}, got {component!r}")
    _check_count(seed, "seed", 0)
    _check_count(trials, "trials", 1)
    checker = _CHECKERS[component]
    found = [_worst(checker(np.random.default_rng([seed, i]))) for i in range(trials)]
    trial = max(range(trials), key=lambda i: found[i][0])
    err, entry = found[trial]
    return GradCheckReport(component, trials, err, trial, entry)

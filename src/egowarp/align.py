"""Desk-scale direct pose (and depth) alignment by IRLS Gauss-Newton.

Minimizes the single-pair total loss (photometric + weighted smoothness,
mask fixed at 1) over the 6 pose parameters, optionally alternating with
projected depth steps, coarse-to-fine over an area-averaged pyramid. A pair
variant optimizes forward and backward poses jointly with the
backward-forward consistency term. One driver runs all three: per level and
iteration, each parameter block (pose; pose then depth; the 12-vector pose
pair) takes one Newton-type step, the direct-alignment step of Baker and
Matthews, "Lucas-Kanade 20 Years On" (IJCV 2004). Each L1 residual r is
reweighted by 1 / max(|r|, floor) (iteratively reweighted least squares),
so the pose block solves the 6x6 Gauss-Newton normal equations, the pair
block one 12x12 system holding both photometric terms and the bf term's 12
residuals, and the depth block takes the per-pixel diagonal Newton step.
The gradient and the block's curvature come from the one loss_gradients
call per block. Every step starts at length 1 under Armijo backtracking (factor 0.5,
c = 1e-4), so accepted steps never increase the loss. A level whose
starting loss is not finite (no valid pixel) is skipped, so loss histories
stay finite; the next level then starts from the caller's depth, not an
upsampled estimate.

A loss evaluation is one inverse_warp per direction; what cannot change
within a level is hoisted out of it. The all-ones mask is built once per
level (its explainability term is the constant 0) and smoothness once per
depth map: once per level for a fixed depth, and in pose_and_depth mode once
per depth step, carried in the state beside its depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .camera import CameraIntrinsics
from .exceptions import DegenerateInputError, _check_count
from .losses import (
    LossWeights,
    WeightMask,
    loss_gradients,
    photometric_l1,
    smoothness,
    total_loss,
)
from .pyramid import depth_pyramid, image_pyramid, intrinsics_pyramid, upsample2x
from .se3 import (
    Pose6DoF,
    Rotation,
    SE3Transform,
    bf_consistency_loss,
    bf_residual_jacobian,
    exp_so3,
    log_so3,
)
from .warp import DepthMap, ImageBuffer, inverse_warp

ARMIJO_C = 1e-4
ARMIJO_FACTOR = 0.5
# A line search gives up after _MAX_BACKTRACKS halvings of the Newton step
# or once the move is shorter than TOL_STEP; the block then does not move.
TOL_STEP = 1e-6
_MAX_BACKTRACKS = 10
# Depth estimates are kept above this during projected steps.
DEPTH_FLOOR = 1e-3
# Damping of the diagonal depth step, relative to the mean curvature: a
# pixel with little photometric curvature (out of frame, flat texture)
# would otherwise take an unbounded step and stall the line search.
DEPTH_DAMPING = 0.1
# IRLS floor of the bf residuals. It is small because the bf term is an
# unnormalized L1 penalty that the solve should drive to (near) zero: a
# floor of 1e-3 stalls the pair solve at 2-7 % translation error.
BF_IRLS_FLOOR = 1e-6

MODES = ("pose_only", "pose_and_depth")


@dataclass(frozen=True)
class AlignOptions:
    """Solver settings; max_iters applies per pyramid level."""

    mode: str = "pose_only"
    max_iters: int = 100
    pyramid_levels: int = 3
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("max_iters", "pyramid_levels"):
            _check_count(getattr(self, name), name, 1)


@dataclass(frozen=True, eq=False)
class AlignReport:
    """Outcome of align_pose.

    converged is True iff the finest level ran and its last iteration moved
    no block: for each block, the Newton step was not a descent direction
    (as at a zero gradient), or the Armijo line search found no decrease
    within _MAX_BACKTRACKS halvings of the full Newton step before the move
    fell below TOL_STEP. It says the step's model is exhausted, not that the
    gradient vanished: at an L1 kink it never does, and in pose_and_depth
    mode the diagonal depth step can stop short of the minimum. Hitting
    max_iters reports False. Levels with a non-finite starting loss are
    skipped and add no iters.
    loss_history holds the finest level's finite total losses: the initial
    value, then one entry per accepted step (non-increasing by construction).
    """

    converged: bool
    iters: int
    final_loss: float
    pose: Pose6DoF
    loss_history: tuple[float, ...]
    depth: DepthMap | None = None


@dataclass(frozen=True, eq=False)
class AlignPairReport:
    """Outcome of align_pose_pair; shared fields mean what they do in AlignReport."""

    converged: bool
    iters: int
    final_loss: float
    pose_forward: Pose6DoF
    pose_backward: Pose6DoF
    bf_term: float
    loss_history: tuple[float, ...]


def retract_pose(pose: SE3Transform, delta: np.ndarray) -> SE3Transform:
    """Apply a 6-vector step: left-multiplicative rotation, additive translation."""
    return SE3Transform(
        Rotation(exp_so3(delta[:3]).m @ pose.r.m), pose.t + delta[3:]
    )


def perturb_pose(
    pose: Pose6DoF, rot_deg: float, trans_frac: float, seed: int
) -> Pose6DoF:
    """Perturb by rot_deg about a random axis and trans_frac of ||t|| along
    a random direction (absolute units if the translation is zero)."""
    rng = np.random.default_rng(seed)

    def unit() -> np.ndarray:
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    t = pose.to_transform()
    rotated = retract_pose(t, np.concatenate([np.deg2rad(rot_deg) * unit(), np.zeros(3)]))
    scale = np.linalg.norm(pose.trans)
    offset = trans_frac * (scale if scale > 0 else 1.0) * unit()
    return Pose6DoF(log_so3(rotated.r), rotated.t + offset)


def _level_loss(
    target: ImageBuffer,
    source: ImageBuffer,
    k: CameraIntrinsics,
    ones: WeightMask,
    weights: LossWeights,
):
    """One level's single-pair total as loss(pose, depth, smo); +inf when
    nothing is valid.

    smo must be smoothness(depth, target); callers compute it once per depth
    map. The mask is the level's all-ones mask, so its explainability term
    is the constant 0.
    """

    def loss(pose: SE3Transform, depth: DepthMap, smo: float) -> float:
        recon, valid = inverse_warp(source, depth, pose, k)
        try:
            photo = photometric_l1(target, recon, ones, valid)
        except DegenerateInputError:
            return float("inf")
        return total_loss(photo, smo, 0.0, 0.0, weights)

    return loss


def _floored(depth: np.ndarray) -> DepthMap:
    """The depth map max(depth, DEPTH_FLOOR)."""
    return DepthMap(np.maximum(depth, DEPTH_FLOOR))


def _backtrack(loss_fn, retract, x, loss0, grad, direction):
    """One Armijo line search from the full step. Returns (x_new, loss_new) or
    None, at once and without a loss evaluation when direction does not descend."""
    slope = float(np.sum(grad * direction))
    if not slope < 0.0:
        return None
    dir_norm = float(np.linalg.norm(direction))
    step = 1.0
    for _ in range(_MAX_BACKTRACKS):
        if step * dir_norm < TOL_STEP:
            return None
        cand = retract(x, step * direction)
        cand_loss = loss_fn(cand)
        if np.isfinite(cand_loss) and cand_loss <= loss0 + ARMIJO_C * step * slope:
            return cand, cand_loss
        step *= ARMIJO_FACTOR
    return None


def _gauss_newton(grad: np.ndarray, curvature: np.ndarray) -> np.ndarray:
    """The step -H^+ g; the pseudo-inverse keeps a rank-deficient H usable."""
    return -np.linalg.lstsq(curvature, grad, rcond=None)[0]


def _diagonal_newton(grad: np.ndarray, curvature: np.ndarray) -> np.ndarray:
    """The per-pixel step -g / (h + mu), Levenberg-Marquardt damped by
    mu = DEPTH_DAMPING * mean(h); pixels whose h + mu is 0 do not move."""
    denom = curvature + DEPTH_DAMPING * curvature.mean()
    return np.divide(-grad, denom, out=np.zeros_like(grad), where=denom > 0)


def _descend(x, loss0, blocks, opts, on_accept):
    """One pyramid level from state x; returns (x, loss, iters, converged).

    A block is (newton(x), loss(x), retract(x, delta)); newton gives the
    block's gradient and Newton step at x. The level converges when an
    iteration moves no block; on_accept sees every accepted loss.
    """
    for it in range(1, opts.max_iters + 1):
        moved = False
        for newton, loss_fn, retract in blocks:
            res = _backtrack(loss_fn, retract, x, loss0, *newton(x))
            if res is None:
                continue
            x, loss0 = res
            moved = True
            on_accept(loss0)
        if not moved:
            return x, loss0, it, True
    return x, loss0, opts.max_iters, False


def _coarse_to_fine(levels, x, level, opts):
    """Levels coarsest to finest; returns (x, loss, iters, converged, history).

    level(li, x, ran) gives level li's starting state, loss function and
    blocks; ran says whether level li + 1 ran (was not skipped).
    converged and history describe the finest level.
    """
    iters, converged, history, loss0, ran = 0, False, [], float("inf"), False
    for li in range(levels - 1, -1, -1):
        x, loss_fn, blocks = level(li, x, ran)
        loss0, converged = loss_fn(x), False
        ran = bool(np.isfinite(loss0))
        if not ran:
            continue
        on_accept = history.append if li == 0 else lambda _: None
        on_accept(loss0)
        x, loss0, n, converged = _descend(x, loss0, blocks, opts, on_accept)
        iters += n
    return x, loss0, iters, converged, tuple(history)


def align_pose(
    target: ImageBuffer,
    source: ImageBuffer,
    depth: DepthMap,
    k: CameraIntrinsics,
    init: Pose6DoF,
    opts: AlignOptions | None = None,
) -> AlignReport:
    """Recover the target-to-source pose by direct photometric alignment.

    Args:
        target: image whose reconstruction error is minimized.
        source: image sampled by the warp.
        depth: target depth; fixed in pose_only mode, refined (projected to
            > 1e-3) in pose_and_depth mode.
        init: starting pose; must be within the photometric basin for the
            report to be meaningful (a far-off init ends in converged=False
            or a visibly large final_loss).

    Returns:
        AlignReport; depth is the refined map in pose_and_depth mode.
    """
    if opts is None:
        opts = AlignOptions()
    levels = opts.pyramid_levels
    imgs_t = image_pyramid(target, levels)
    imgs_s = image_pyramid(source, levels)
    depths = depth_pyramid(depth, levels)
    ks = intrinsics_pyramid(k, levels)
    refine_depth = opts.mode == "pose_and_depth"
    w = opts.weights

    def level(li: int, x: tuple[SE3Transform, DepthMap | None, float | None], ran: bool):
        t_l, s_l, k_l = imgs_t[li], imgs_s[li], ks[li]
        pose, d_l, _ = x
        if refine_depth and ran:  # hand the coarser level's estimate up
            d_l = _floored(upsample2x(d_l.data, t_l.height, t_l.width))
        else:  # the caller's own depth, also after a skipped level
            d_l = depths[li]
        ones = WeightMask.ones(t_l.height, t_l.width)
        loss_l = _level_loss(t_l, s_l, k_l, ones, w)

        def loss_fn(x):
            return loss_l(*x)

        def pose_newton(x):
            g = loss_gradients(t_l, s_l, x[1], x[0], k_l, ones, w, curvature=True)
            return g.d_pose, _gauss_newton(g.d_pose, g.h_pose)

        def depth_newton(x):
            g = loss_gradients(t_l, s_l, x[1], x[0], k_l, ones, w, curvature=True)
            return g.d_depth, _diagonal_newton(g.d_depth, g.h_depth)

        def retract_depth(x, delta):  # projected above DEPTH_FLOOR
            d = _floored(x[1].data + delta)
            return x[0], d, smoothness(d, t_l)

        blocks = [(pose_newton, loss_fn,
                   lambda x, delta: (retract_pose(x[0], delta), *x[1:]))]
        if refine_depth:
            blocks.append((depth_newton, loss_fn, retract_depth))
        return (pose, d_l, smoothness(d_l, t_l)), loss_fn, blocks

    (pose, depth_est, _), loss, iters, converged, history = _coarse_to_fine(
        levels, (init.to_transform(), None, None), level, opts
    )
    return AlignReport(
        converged=converged,
        iters=iters,
        final_loss=loss,
        pose=pose.to_pose(),
        loss_history=history,
        depth=depth_est if refine_depth else None,
    )


def align_pose_pair(
    target: ImageBuffer,
    source: ImageBuffer,
    depth_target: DepthMap,
    depth_source: DepthMap,
    k: CameraIntrinsics,
    init_forward: Pose6DoF,
    init_backward: Pose6DoF,
    opts: AlignOptions | None = None,
) -> AlignPairReport:
    """Jointly optimize forward and backward poses with the bf penalty.

    Loss: photometric(target | source, forward) + photometric(source |
    target, backward) + lambda_smo * (both smoothness terms) + lambda_bf *
    bf_consistency_loss([(forward, backward)]). Depths stay fixed.
    """
    if opts is None:
        opts = AlignOptions()
    levels = opts.pyramid_levels
    imgs_t = image_pyramid(target, levels)
    imgs_s = image_pyramid(source, levels)
    depths_t = depth_pyramid(depth_target, levels)
    depths_s = depth_pyramid(depth_source, levels)
    ks = intrinsics_pyramid(k, levels)
    w = opts.weights

    def level(li: int, poses: tuple[SE3Transform, SE3Transform], _ran: bool):
        t_l, s_l, k_l = imgs_t[li], imgs_s[li], ks[li]
        ones = WeightMask.ones(t_l.height, t_l.width)
        loss_f = _level_loss(t_l, s_l, k_l, ones, w)
        loss_b = _level_loss(s_l, t_l, k_l, ones, w)
        smo_f, smo_b = smoothness(depths_t[li], t_l), smoothness(depths_s[li], s_l)

        def loss_fn(poses):  # inf when either direction has no valid pixel
            fwd, bwd = poses
            l_f = loss_f(fwd, depths_t[li], smo_f)
            l_b = loss_b(bwd, depths_s[li], smo_b)
            return l_f + l_b + w.lambda_bf * bf_consistency_loss([(fwd, bwd)])

        def newton(poses):
            fwd, bwd = poses
            g_f = loss_gradients(t_l, s_l, depths_t[li], fwd, k_l, ones, w, curvature=True)
            g_b = loss_gradients(s_l, t_l, depths_s[li], bwd, k_l, ones, w, curvature=True)
            e, jac = bf_residual_jacobian(fwd, bwd)
            grad = np.concatenate([g_f.d_pose, g_b.d_pose]) + w.lambda_bf * (jac.T @ np.sign(e))
            curv = w.lambda_bf * (jac.T / np.maximum(np.abs(e), BF_IRLS_FLOOR)) @ jac
            curv[:6, :6] += g_f.h_pose
            curv[6:, 6:] += g_b.h_pose
            return grad, _gauss_newton(grad, curv)

        return poses, loss_fn, [(newton, loss_fn, lambda p, delta: (
            retract_pose(p[0], delta[:6]), retract_pose(p[1], delta[6:])))]

    (fwd, bwd), loss, iters, converged, history = _coarse_to_fine(
        levels, (init_forward.to_transform(), init_backward.to_transform()), level, opts
    )
    return AlignPairReport(
        converged=converged,
        iters=iters,
        final_loss=loss,
        pose_forward=fwd.to_pose(),
        pose_backward=bwd.to_pose(),
        bf_term=bf_consistency_loss([(fwd, bwd)]),
        loss_history=history,
    )

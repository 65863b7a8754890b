"""Desk-scale direct pose (and depth) alignment by gradient descent.

Minimizes the single-pair total loss (photometric + weighted smoothness,
mask fixed at 1) over the 6 pose parameters, optionally alternating with
projected depth steps, coarse-to-fine over an area-averaged pyramid. A pair
variant optimizes forward and backward poses jointly with the
backward-forward consistency term. One driver runs all three: per level and
iteration, each parameter block (pose; pose then depth; the 12-vector pose
pair) takes one Barzilai-Borwein-seeded Armijo step (factor 0.5, c = 1e-4),
so accepted steps never increase the loss. A level whose starting loss is
not finite (no valid pixel) is skipped, so loss histories stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .camera import CameraIntrinsics
from .exceptions import DegenerateInputError
from .losses import (
    LossWeights,
    WeightMask,
    explainability_reg,
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
    bf_consistency_grad,
    bf_consistency_loss,
    exp_so3,
    log_so3,
)
from .warp import DepthMap, ImageBuffer, inverse_warp

ARMIJO_C = 1e-4
ARMIJO_FACTOR = 0.5
_MAX_BACKTRACKS = 60
# Depth estimates are kept above this during projected steps.
DEPTH_FLOOR = 1e-3

MODES = ("pose_only", "pose_and_depth")


@dataclass(frozen=True)
class AlignOptions:
    """Optimizer settings.

    max_iters applies per pyramid level. step is the initial Armijo step for
    pose parameters; depth steps reuse it on the pixel-count-scaled gradient.
    """

    mode: str = "pose_only"
    max_iters: int = 100
    step: float = 0.1
    tol_grad: float = 1e-9
    tol_step: float = 1e-12
    pyramid_levels: int = 3
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step <= 0 or self.tol_grad < 0 or self.tol_step < 0:
            raise ValueError("step must be > 0 and tolerances >= 0")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")


@dataclass(frozen=True, eq=False)
class AlignReport:
    """Outcome of align_pose.

    converged is True iff the finest level ran and stopped because no block
    moved more than tol_step (gradient below tol_grad or line search
    exhausted at an L1 kink bottom); hitting max_iters reports False.
    Levels with a non-finite starting loss are skipped and add no iters.
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


def _pair_total(
    target: ImageBuffer,
    source: ImageBuffer,
    depth: DepthMap,
    pose: SE3Transform,
    k: CameraIntrinsics,
    weights: LossWeights,
) -> float:
    """Single-pair total with an all-ones mask; +inf when nothing is valid."""
    try:
        recon, valid = inverse_warp(source, depth, pose, k)
        mask = WeightMask.ones(target.height, target.width)
        photo = photometric_l1(target, recon, mask, valid)
    except DegenerateInputError:
        return float("inf")
    return total_loss(
        photo, smoothness(depth, target), explainability_reg(mask), 0.0, weights
    )


def _floored(depth: np.ndarray) -> DepthMap:
    """The depth map max(depth, DEPTH_FLOOR)."""
    return DepthMap(np.maximum(depth, DEPTH_FLOOR))


def _backtrack(loss_fn, retract, x, loss0, grad, direction, step0, tol_step):
    """One Armijo line search. Returns (x_new, loss_new, step_used) or None."""
    slope = float(np.sum(grad * direction))
    if slope >= 0.0:
        return None
    dir_norm = float(np.linalg.norm(direction))
    step = float(step0)
    for _ in range(_MAX_BACKTRACKS):
        if step * dir_norm < tol_step:
            return None
        cand = retract(x, step * direction)
        cand_loss = loss_fn(cand)
        if np.isfinite(cand_loss) and cand_loss <= loss0 + ARMIJO_C * step * slope:
            return cand, cand_loss, step
        step *= ARMIJO_FACTOR
    return None


def _bb_step(delta: np.ndarray | None, grad: np.ndarray, prev_grad: np.ndarray | None,
             fallback: float) -> float:
    """Barzilai-Borwein trial step for the next steepest-descent iteration.

    s^T s / s^T y adapts the step to the local curvature along the trajectory,
    which plain fixed-step descent needs thousands of iterations to match on
    ill-conditioned pose problems. Armijo backtracking still guards every
    step, so accepted losses remain non-increasing. Falls back to the
    configured step on the first iteration or when curvature is non-convex.
    """
    if delta is None or prev_grad is None:
        return fallback
    y = grad - prev_grad
    denom = float(delta @ y)
    if denom <= 0.0:
        return fallback
    return float(np.clip((delta @ delta) / denom, 1e-12, 1e6))


def _descend(x, loss0, blocks, opts, on_accept):
    """One pyramid level from state x; returns (x, loss, iters, converged).

    A block is (grad(x), preconditioner, loss(x), retract(x, delta)) and
    steps along -preconditioner * grad(x). The level converges when an
    iteration moves no block; on_accept sees every accepted loss.
    """
    memory = [(None, None)] * len(blocks)  # (last step, its gradient) per block
    for it in range(1, opts.max_iters + 1):
        moved = False
        for b, (grad, precond, loss_fn, retract) in enumerate(blocks):
            g = grad(x)
            if float(np.linalg.norm(g)) < opts.tol_grad:
                continue
            direction = -g * precond
            delta, prev_g = memory[b]
            step0 = _bb_step(delta, g.ravel(), prev_g, opts.step)
            res = _backtrack(loss_fn, retract, x, loss0, g, direction, step0, opts.tol_step)
            if res is None:
                continue
            x, loss0, used = res
            memory[b] = (used * direction.ravel(), g.ravel())
            moved = True
            on_accept(loss0)
        if not moved:
            return x, loss0, it, True
    return x, loss0, opts.max_iters, False


def _coarse_to_fine(levels, x, level, opts):
    """Levels coarsest to finest; returns (x, loss, iters, converged, history).

    level(li, x) gives level li's starting state, loss function and blocks.
    converged and history describe the finest level.
    """
    iters, converged, history, loss0 = 0, False, [], float("inf")
    for li in range(levels - 1, -1, -1):
        x, loss_fn, blocks = level(li, x)
        loss0, converged = loss_fn(x), False
        if not np.isfinite(loss0):
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
    """Recover the target-to-source pose by direct photometric descent.

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

    def level(li: int, x: tuple[SE3Transform, DepthMap]):
        t_l, s_l, k_l = imgs_t[li], imgs_s[li], ks[li]
        pose, d_l = x
        if not refine_depth:
            d_l = depths[li]
        elif li < levels - 1:  # hand the coarser estimate up one level
            d_l = _floored(upsample2x(d_l.data, t_l.height, t_l.width))
        ones = WeightMask.ones(t_l.height, t_l.width)

        def grads(x):
            return loss_gradients(t_l, s_l, x[1], x[0], k_l, ones, w)

        def loss_fn(x):
            return _pair_total(t_l, s_l, x[1], x[0], k_l, w)

        blocks = [(lambda x: grads(x).d_pose, 1.0, loss_fn,
                   lambda x, delta: (retract_pose(x[0], delta), x[1]))]
        if refine_depth:  # pixel-count preconditioner, projected above DEPTH_FLOOR
            blocks.append((lambda x: grads(x).d_depth, d_l.data.size, loss_fn,
                           lambda x, delta: (x[0], _floored(x[1].data + delta))))
        return (pose, d_l), loss_fn, blocks

    (pose, depth_est), loss, iters, converged, history = _coarse_to_fine(
        levels, (init.to_transform(), depths[-1]), level, opts
    )
    return AlignReport(
        converged=converged,
        iters=iters,
        final_loss=loss,
        pose=Pose6DoF(log_so3(pose.r), pose.t),
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

    def level(li: int, poses: tuple[SE3Transform, SE3Transform]):
        t_l, s_l, k_l = imgs_t[li], imgs_s[li], ks[li]
        ones_t = WeightMask.ones(t_l.height, t_l.width)
        ones_s = WeightMask.ones(s_l.height, s_l.width)

        def loss_fn(poses):  # inf when either direction has no valid pixel
            fwd, bwd = poses
            l_f = _pair_total(t_l, s_l, depths_t[li], fwd, k_l, w)
            l_b = _pair_total(s_l, t_l, depths_s[li], bwd, k_l, w)
            return l_f + l_b + w.lambda_bf * bf_consistency_loss([(fwd, bwd)])

        def grad(poses):
            fwd, bwd = poses
            g_f = loss_gradients(t_l, s_l, depths_t[li], fwd, k_l, ones_t, w)
            g_b = loss_gradients(s_l, t_l, depths_s[li], bwd, k_l, ones_s, w)
            bf_f, bf_b = bf_consistency_grad([(fwd, bwd)])[0]
            return np.concatenate([g_f.d_pose + w.lambda_bf * bf_f,
                                   g_b.d_pose + w.lambda_bf * bf_b])

        return poses, loss_fn, [(grad, 1.0, loss_fn, lambda p, delta: (
            retract_pose(p[0], delta[:6]), retract_pose(p[1], delta[6:])))]

    (fwd, bwd), loss, iters, converged, history = _coarse_to_fine(
        levels, (init_forward.to_transform(), init_backward.to_transform()), level, opts
    )
    return AlignPairReport(
        converged=converged,
        iters=iters,
        final_loss=loss,
        pose_forward=Pose6DoF(log_so3(fwd.r), fwd.t),
        pose_backward=Pose6DoF(log_so3(bwd.r), bwd.t),
        bf_term=bf_consistency_loss([(fwd, bwd)]),
        loss_history=history,
    )

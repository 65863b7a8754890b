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
The pair block steps in the chart (F, E) with E = B o F, where the bf
residuals depend on E alone, so a step does not leave the curved set
B o F = I (the on-manifold change of variables of Blanco, "A tutorial on
SE(3) transformation parameterizations and on-manifold optimization",
2010): its gradient and curvature are pulled back through C = d(F, B) /
d(F, E), and a step retracts F and E, then sets B = E o F^-1.
Each iteration makes one loss_gradients call per warp direction, at its
starting state, for the blocks still in the level (pose_only=True unless
the depth block is), and every block steps from it. In pose_and_depth the
depth step comes from the gradient taken before the pose step, and its line
search runs from the moved pose. Steps pass an Armijo test (_backtrack), so
they never increase the loss. A block leaves the level once its search
fails, or once it accepts a step that lowers the loss by less than
MODEL_RTOL of the loss before it (the block keeps that step): a block that
no longer moves the loss costs no more searches there, as in
block-coordinate descent (Tseng, JOTA 2001). A level ends, with no line
search, once every block left predicts a decrease -g.d/2 below MODEL_RTOL
of the loss, once none is left, or at max_iters. A level with a non-finite
starting loss (no valid pixel) is skipped, so loss histories stay finite,
and the next level starts from the caller's depth.

A loss evaluation is one inverse_warp per direction, with one exception:
an align_pose line-search candidate whose lambda_smo * smoothness alone
exceeds its Armijo bound loss0 + ARMIJO_C * t * slope gets +inf with no
warp. The photometric term is >= 0, so the total would fail the same test,
and every decision is the one the warp would give. What cannot change
within a level is hoisted out of the evaluation. The all-ones mask is built
once per level (its explainability term is the constant 0) and smoothness
once per depth map: once per level for a fixed depth, and in pose_and_depth
mode once per depth step, carried in the state beside its depth. align_pose
computes it from the target's edge weights, built once per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .camera import CameraIntrinsics
from .exceptions import DegenerateInputError, _check_count, _check_finite, _check_type
from .losses import (
    LossWeights,
    WeightMask,
    _edge_weights,
    _smoothness,
    loss_gradients,
    photometric_l1,
    smoothness,
    total_loss,
)
from .pyramid import depth_pyramid, image_pyramid, intrinsics_pyramid, upsample2x
from .se3 import (
    Pose6DoF,
    SE3Transform,
    bf_consistency_loss,
    bf_residual_jacobian,
    compose,
    hat,
    inverse,
    log_so3,
    retract_pose,
)
from .warp import DepthMap, ImageBuffer, _check_same_size, inverse_warp

ARMIJO_C = 1e-4
ARMIJO_FACTOR = 0.5
# Gain-ratio bounds of the step rule stated in _backtrack's docstring.
GAIN_HIGH = 0.75
GAIN_LOW = 0.25
TOL_STEP = 1e-6
# A level ends once every block's model decrease -g.d/2 is below this
# fraction of the loss, and a block leaves it once a step it accepts lowers
# the loss by less than this fraction of the loss before that step.
MODEL_RTOL = 1e-4
_MAX_BACKTRACKS = 10
# Depth estimates are kept above this during projected steps.
DEPTH_FLOOR = 1e-3
# Damping of the diagonal depth step, relative to the mean curvature: a
# pixel with little photometric curvature (out of frame, flat texture)
# would otherwise take an unbounded step and stall the line search.
DEPTH_DAMPING = 0.1
# IRLS floor of the bf residuals. It is small because the bf term is an
# unnormalized L1 penalty that the solve should drive to (near) zero: a
# floor of 1e-3 stalls the pair solve at 2-7 % translation error. In the
# (F, E) chart, once |e| is below the floor E's Newton step is about the
# floor long and overshoots the L1 kink; Armijo then halves the whole
# 12-vector, F's half too, about 8 times per search. At 1e-6 that took a
# 64^2 solve's 32^2 level to 356 gradient calls at 8-9 evaluations each.
BF_IRLS_FLOOR = 1e-9

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
        _check_type(self.weights, LossWeights, "weights")


@dataclass(frozen=True, eq=False)
class AlignReport:
    """Outcome of align_pose.

    A level ends for one of four reasons, each iteration counting in iters:
    (1) every block left in it predicts a decrease below MODEL_RTOL of the
    loss; (2) no block is left: a block leaves once its Newton step does not
    descend (as at a zero gradient), once its Armijo search finds no
    decrease within _MAX_BACKTRACKS halvings before the move falls below
    TOL_STEP, or once its search accepts a step that lowers the loss by less
    than MODEL_RTOL of the loss before it (the step is kept); (3) max_iters;
    (4) a non-finite starting loss skips it.
    converged is True iff the finest level ran and ended by (1) or (2): the
    step's model is exhausted, not the gradient zero; at an L1 kink it never
    is, and in pose_and_depth mode the diagonal depth step can stop short of
    the minimum.
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


def perturb_pose(
    pose: Pose6DoF, rot_deg: float, trans_frac: float, seed: int
) -> Pose6DoF:
    """Perturb by rot_deg about a random axis and trans_frac of ||t|| along
    a random direction (absolute units if the translation is zero)."""
    _check_count(seed, "seed", 0)
    _check_finite(rot_deg, "rot_deg")
    _check_finite(trans_frac, "trans_frac")
    rng = np.random.default_rng(seed)

    def unit() -> np.ndarray:
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    t = pose.to_transform()
    rotated = retract_pose(t, np.concatenate([np.deg2rad(rot_deg) * unit(), np.zeros(3)]))
    scale = np.linalg.norm(pose.trans)
    offset = trans_frac * (scale if scale > 0 else 1.0) * unit()
    return Pose6DoF(log_so3(rotated.r), rotated.t + offset)


def _direction(target: ImageBuffer, source: ImageBuffer, k: CameraIntrinsics,
               weights: LossWeights):
    """One warp direction at one level: (loss(pose, depth, smo, bound),
    grads(pose, depth)).

    loss is the single-pair total, +inf when nothing is valid; smo must be
    smoothness(depth, target), which callers compute once per depth map.
    It is +inf too, with no warp, when lambda_smo * smo > bound: the total
    adds the photometric term, which is >= 0, to that product first, so it
    would exceed bound as well. grads is the direction's one loss_gradients
    call, with curvature, and with pose_only (the default) it asks for the
    pose block alone. Both use the level's all-ones mask, whose
    explainability term is the constant 0.
    """
    ones = WeightMask.ones(target.height, target.width)

    def loss(pose: SE3Transform, depth: DepthMap, smo: float, bound: float = np.inf) -> float:
        if weights.lambda_smo * smo > bound:
            return float("inf")
        recon, valid = inverse_warp(source, depth, pose, k)
        try:
            photo = photometric_l1(target, recon, ones, valid)
        except DegenerateInputError:
            return float("inf")
        return total_loss(photo, smo, 0.0, 0.0, weights)

    def grads(pose: SE3Transform, depth: DepthMap, pose_only: bool = True):
        return loss_gradients(target, source, depth, pose, k, ones, weights, curvature=True,
                              pose_only=pose_only)

    return loss, grads


def _level_inputs(opts: AlignOptions | None, target: ImageBuffer, source: ImageBuffer,
                  k: CameraIntrinsics, depths: dict, inits: dict):
    """(opts or the default options, one (target, source, k, *depths) tuple
    per pyramid level, finest first). depths and inits map the caller's
    argument names to its depth maps and initial poses. An argument of the
    wrong type, a source or depth that does not pair with target, or a
    target too small for opts.pyramid_levels raises ValueError naming the
    caller's argument."""
    for name, value, cls in (("target", target, ImageBuffer), ("source", source, ImageBuffer),
                             *((n, d, DepthMap) for n, d in depths.items()),
                             ("k", k, CameraIntrinsics),
                             *((n, p, Pose6DoF) for n, p in inits.items())):
        _check_type(value, cls, name)
    if opts is None:
        opts = AlignOptions()
    _check_type(opts, AlignOptions, "opts")
    n = opts.pyramid_levels
    for name, arr in (("source", source), *depths.items()):
        _check_same_size(target, arr, "target", name)
    side = 2 ** (n - 1)
    if min(target.height, target.width) < side:
        raise ValueError(
            f"pyramid_levels={n} needs images of at least {side}x{side} pixels, "
            f"got target {target.height}x{target.width}")
    return opts, list(zip(
        image_pyramid(target, n), image_pyramid(source, n), intrinsics_pyramid(k, n),
        *(depth_pyramid(d, n) for d in depths.values())))


def _floored(depth: np.ndarray) -> DepthMap:
    """The depth map max(depth, DEPTH_FLOOR)."""
    return DepthMap(np.maximum(depth, DEPTH_FLOOR))


def _backtrack(loss_fn, retract, x, loss0, slope, direction, step):
    """One block's Armijo line search (factor ARMIJO_FACTOR, c = ARMIJO_C)
    along direction, whose slope g . d is slope, halving from step.

    A candidate x + t d is accepted iff its loss is finite and at most the
    Armijo bound loss0 + ARMIJO_C * t * slope. loss_fn(x, bound) gets that
    bound, so it may return +inf without its full evaluation once a part of
    the loss already exceeds it (align_pose's smoothness term does).

    Returns (x_new, loss_new, next start) or None. None comes at once, with
    no loss evaluation, when direction does not descend, and otherwise after
    _MAX_BACKTRACKS halvings or once the move is shorter than TOL_STEP.
    An accepted step t sets the next start by its gain ratio, the actual
    over the decrease -t s (1 - t/2) that the block's quadratic model
    predicts along its Newton step t d (as d^T H d = -s; Madsen, Nielsen &
    Tingleff, "Methods for Non-Linear Least Squares Problems", 2004): near
    convergence more residuals fall below the IRLS floor, the model
    underestimates the curvature and the full step overshoots, so a search
    that started at length 1 would pay a rejected evaluation per halving.
    """
    if not slope < 0.0:
        return None
    dir_norm = float(np.linalg.norm(direction))
    for _ in range(_MAX_BACKTRACKS):
        if step * dir_norm < TOL_STEP:
            return None
        cand = retract(x, step * direction)
        bound = loss0 + ARMIJO_C * step * slope
        cand_loss = loss_fn(cand, bound)
        if np.isfinite(cand_loss) and cand_loss <= bound:
            predicted = -step * slope * (1 - step / 2)
            return cand, cand_loss, _next_start(step, (loss0 - cand_loss) / predicted)
        step *= ARMIJO_FACTOR
    return None


def _next_start(step, gain):
    """The next search's start step after accepting step with gain ratio
    gain: twice step (at most 1) above GAIN_HIGH, half of it below GAIN_LOW,
    step itself in between."""
    if gain > GAIN_HIGH:
        return min(1.0, 2 * step)
    return step / 2 if gain < GAIN_LOW else step


def _gauss_newton(grad: np.ndarray, curvature: np.ndarray):
    """(g . d, d) for d = -H^+ g; the pseudo-inverse keeps a rank-deficient H usable."""
    d = -np.linalg.lstsq(curvature, grad, rcond=None)[0]
    return float(np.sum(grad * d)), d


def _diagonal_newton(grad: np.ndarray, curvature: np.ndarray):
    """(g . d, d) for d = -g / (h + mu) per pixel, Levenberg-Marquardt damped
    by mu = DEPTH_DAMPING * mean(h); pixels whose h + mu is 0 do not move."""
    denom = curvature + DEPTH_DAMPING * curvature.mean()
    d = np.divide(-grad, denom, out=np.zeros_like(grad), where=denom > 0)
    return float(np.sum(grad * d)), d


def _pair_chart(fwd: SE3Transform, bwd: SE3Transform) -> np.ndarray:
    """C = d(F, B) / d(F, E) at E = B o F, in retract_pose's parameters.

    A step (dF, dE) moves B by omega_B = omega_E - R_B omega_F and
    rho_B = rho_E - R_B rho_F + hat(R_B t_F) omega_B; F moves by dF itself.
    """
    c = np.eye(12)
    rb, h = bwd.r.m, hat(bwd.r.m @ fwd.t)
    c[6:9, :3] = -rb
    c[9:, :3] = -h @ rb
    c[9:, 3:6] = -rb
    c[9:, 6:9] = h
    return c


def _retract_pair(poses: tuple[SE3Transform, SE3Transform], delta: np.ndarray):
    """(F', B') = (retract(F, dF), E' o F'^-1) with E' = retract(B o F, dE)."""
    fwd, bwd = poses
    moved = retract_pose(fwd, delta[:6])
    return moved, compose(retract_pose(compose(bwd, fwd), delta[6:]), inverse(moved))


def _coarse_to_fine(x, level, opts):
    """Levels coarsest to finest; returns (x, loss, iters, converged, history).

    level(li, x, ran) gives level li's (starting state, loss(x, bound),
    evaluate(x, left), blocks); loss gets _backtrack's Armijo bound, and inf
    for the level's starting loss; ran says whether level li + 1 ran (was
    not skipped). A block is (newton(ev), retract(x, delta)): newton gives
    the block's slope and Newton step from evaluate's result. evaluate runs
    once at the top of each iteration, and left holds the indices of the
    blocks still in the level, the only ones that read its result; every
    block steps from that one result, so a level stopped by max_iters never
    evaluates its last state. Each level starts every block at step 1. A
    block leaves the level when its _backtrack returns None, or when the
    step it accepts lowers the loss by less than MODEL_RTOL times the loss
    before it (x keeps that step): no Newton step, search or say in the
    model test after that. A level converges, before any line search, once
    every block left has a model decrease -slope / 2 below MODEL_RTOL times
    the loss, or once none is left. loss, converged and history describe
    the finest level; history is its starting loss, then every accepted
    loss.
    """
    iters, ran = 0, False
    for li in range(opts.pyramid_levels - 1, -1, -1):
        x, loss_fn, evaluate, blocks = level(li, x, ran)
        loss = loss_fn(x, np.inf)
        ran, converged = bool(np.isfinite(loss)), False
        history = [loss] if ran else []
        starts = dict.fromkeys(range(len(blocks)), 1.0)  # the blocks left, in order
        for _ in range(opts.max_iters if ran else 0):
            iters += 1
            ev, converged = evaluate(x, starts), True
            models = {b: blocks[b][0](ev) for b in starts}
            if all(-slope / 2 < MODEL_RTOL * loss for slope, _ in models.values()):
                break
            for b, model in models.items():  # only a search that gains puts b back
                res = _backtrack(loss_fn, blocks[b][1], x, loss, *model, starts.pop(b))
                if res is None:
                    continue
                x, new_loss, start = res
                if loss - new_loss >= MODEL_RTOL * loss:
                    starts[b] = start
                loss = new_loss
                history.append(loss)
            converged = not starts
            if converged:
                break
    return x, loss, iters, converged, tuple(history)


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
    opts, levels = _level_inputs(opts, target, source, k, {"depth": depth}, {"init": init})
    refine_depth = opts.mode == "pose_and_depth"

    def level(li: int, x: tuple[SE3Transform, DepthMap | None, float | None], ran: bool):
        t_l, s_l, k_l, d_l = levels[li]  # the caller's depth, also after a skipped level
        if refine_depth and ran:  # hand the coarser level's estimate up
            d_l = _floored(upsample2x(x[1].data, t_l.height, t_l.width))
        loss_l, grads_l = _direction(t_l, s_l, k_l, opts.weights)
        edges = _edge_weights(t_l)  # the target's, shared by every depth of the level

        def retract_depth(x, delta):  # projected above DEPTH_FLOOR
            d = _floored(x[1].data + delta)
            return x[0], d, _smoothness(d.data, edges)

        blocks = [(lambda g: _gauss_newton(g.d_pose, g.h_pose),
                   lambda x, delta: (retract_pose(x[0], delta), *x[1:]))]
        if refine_depth:
            blocks.append((lambda g: _diagonal_newton(g.d_depth, g.h_depth), retract_depth))
        # Block 1, the depth block, is the only one that reads the depth rows.
        return ((x[0], d_l, _smoothness(d_l.data, edges)), lambda x, bound: loss_l(*x, bound),
                lambda x, left: grads_l(*x[:2], pose_only=1 not in left), blocks)

    (pose, depth_est, _), loss, iters, converged, history = _coarse_to_fine(
        (init.to_transform(), None, None), level, opts
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
    bf_consistency_loss([(forward, backward)]). Depths stay fixed, so
    opts.mode must be "pose_only".
    """
    opts, levels = _level_inputs(
        opts, target, source, k, {"depth_target": depth_target, "depth_source": depth_source},
        {"init_forward": init_forward, "init_backward": init_backward})
    if opts.mode != "pose_only":
        raise ValueError(f"align_pose_pair solves poses only, got mode {opts.mode!r}")
    w = opts.weights

    def level(li: int, poses: tuple[SE3Transform, SE3Transform], _ran: bool):
        t_l, s_l, k_l, d_t, d_s = levels[li]
        loss_f, grads_f = _direction(t_l, s_l, k_l, w)
        loss_b, grads_b = _direction(s_l, t_l, k_l, w)
        smo_f, smo_b = smoothness(d_t, t_l), smoothness(d_s, s_l)

        def loss_fn(poses, _bound):  # inf when either direction has no valid pixel
            fwd, bwd = poses
            return (loss_f(fwd, d_t, smo_f) + loss_b(bwd, d_s, smo_b)
                    + w.lambda_bf * bf_consistency_loss([(fwd, bwd)]))

        def evaluate(poses, _left):  # the 12-vector gradient and IRLS curvature in (F, E)
            fwd, bwd = poses
            g_f, g_b = grads_f(fwd, d_t), grads_b(bwd, d_s)
            e, jac = bf_residual_jacobian(fwd, bwd)
            grad = np.concatenate([g_f.d_pose, g_b.d_pose]) + w.lambda_bf * (jac.T @ np.sign(e))
            curv = w.lambda_bf * (jac.T / np.maximum(np.abs(e), BF_IRLS_FLOOR)) @ jac
            curv[:6, :6] += g_f.h_pose
            curv[6:, 6:] += g_b.h_pose
            c = _pair_chart(fwd, bwd)
            return c.T @ grad, c.T @ curv @ c

        return poses, loss_fn, evaluate, [(lambda ev: _gauss_newton(*ev), _retract_pair)]

    (fwd, bwd), loss, iters, converged, history = _coarse_to_fine(
        (init_forward.to_transform(), init_backward.to_transform()), level, opts
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

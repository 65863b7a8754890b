"""Self-supervised photometric loss stack and its analytic gradients.

Components: masked photometric L1 on an inverse-warped reconstruction,
explainability regularization (cross entropy of the mask against constant 1),
edge-aware first-order depth smoothness, and the weighted total that also
accepts a backward-forward pose consistency term computed elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .camera import CameraIntrinsics, _depth_rows, _pose_sum, _projection_vjp
from .exceptions import DegenerateInputError
from .se3 import SE3Transform
from .warp import DepthMap, ImageBuffer, ValidityMask, _PixelArray
from .warp import _channel_rows, _check_same_size, _warp_eval

# Explainability masks are clamped here before the log; keeps the
# regularizer finite when a mask collapses toward zero.
MASK_FLOOR = 1e-7
# IRLS weights 1 / max(|r|, IRLS_FLOOR) stay finite where a residual vanishes.
IRLS_FLOOR = 1e-3


@dataclass(frozen=True)
class LossWeights:
    """Weights of the total loss. Defaults follow the reference training setup."""

    lambda_smo: float = 0.1
    lambda_reg: float = 0.1
    lambda_bf: float = 0.1

    def __post_init__(self) -> None:
        vals = (self.lambda_smo, self.lambda_reg, self.lambda_bf)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("loss weights must be finite")
        if any(v < 0 for v in vals):
            raise ValueError("loss weights must be >= 0")


@dataclass(frozen=True, eq=False)
class WeightMask(_PixelArray):
    """Continuous per-pixel weight in [0, 1], shape (h, w)."""

    _RANGE = (0.0, 1.0)

    @classmethod
    def ones(cls, height: int, width: int) -> "WeightMask":
        return cls(np.ones((height, width)))


class LossGradients(NamedTuple):
    """Analytic gradients of the single-pair total (photo + smo + reg), and
    the photometric term's IRLS curvature when it was asked for."""

    d_depth: np.ndarray  # (h, w)
    d_pose: np.ndarray  # (6,)
    d_mask: np.ndarray  # (h, w)
    h_pose: np.ndarray | None = None  # (6, 6)
    h_depth: np.ndarray | None = None  # (h, w), the Hessian's diagonal


def photometric_l1(
    target: ImageBuffer, recon: ImageBuffer, mask: WeightMask, valid: ValidityMask
) -> float:
    """Masked mean absolute reconstruction error.

    (1 / |V|) * sum_p mask(p) * valid(p) * sum_c |target - recon|, where
    |V| is the number of valid pixels (not the mask weight sum).

    Raises:
        DegenerateInputError: no valid pixels.
    """
    _check_same_size(target, recon, "target", "recon")
    _check_same_size(target, mask, "target", "mask")
    if target.channels != recon.channels:
        raise ValueError("target and recon channel counts differ")
    _check_same_size(target, valid, "target", "valid")
    n_valid = valid.count
    if n_valid == 0:
        raise DegenerateInputError("photometric loss undefined: no valid pixels")
    per_pixel = np.sum(np.abs(target.data - recon.data), axis=2)
    return float(np.sum(per_pixel * mask.data * valid.data) / n_valid)


def explainability_reg(mask: WeightMask) -> float:
    """Mean cross entropy of the mask against the constant-1 label.

    (1 / N) * sum_p -log(mask(p)); mask values are clamped to >= 1e-7 so the
    regularizer diverges no further once a mask pixel collapses.
    """
    clamped = np.maximum(mask.data, MASK_FLOOR)
    return float(np.mean(-np.log(clamped)))


def _forward_diffs(depth: DepthMap, image: ImageBuffer):
    """Yield (ahead, behind, dD, exp(-mean_c |dI|)) for each axis with a
    forward difference, x first and then y, where dD = D[ahead] - D[behind];
    an axis of length 1 has none and is skipped."""
    d, img = depth.data, image.data
    for axis, ahead, behind in ((1, np.s_[:, 1:], np.s_[:, :-1]), (0, np.s_[1:], np.s_[:-1])):
        if d.shape[axis] > 1:
            weight = np.exp(-np.mean(np.abs(img[ahead] - img[behind]), axis=2))
            yield ahead, behind, d[ahead] - d[behind], weight


def smoothness(depth: DepthMap, image: ImageBuffer) -> float:
    """Edge-aware first-order depth smoothness.

    Forward differences; each axis contributes the mean of
    |dD| * exp(-|dI|) over its defined entries (x: h*(w-1), y: (h-1)*w).
    The last column (x) / last row (y) has no forward difference and is
    excluded. An axis without defined entries contributes 0.
    """
    _check_same_size(depth, image, "depth", "image")
    total = 0.0
    for *_, dd, weight in _forward_diffs(depth, image):
        total += float(np.mean(np.abs(dd) * weight))
    return total


def multiscale_smoothness(
    depths: list[DepthMap], images: list[ImageBuffer]
) -> float:
    """Unweighted sum of smoothness across scales (canonically 4)."""
    if len(depths) != len(images):
        raise ValueError(
            f"got {len(depths)} depth scales but {len(images)} image scales"
        )
    if len(depths) == 0:
        raise ValueError("multiscale smoothness needs at least one scale")
    return float(sum(smoothness(d, i) for d, i in zip(depths, images)))


def total_loss(
    photo: float, smo: float, reg: float, bf: float, weights: LossWeights
) -> float:
    """photo + lambda_smo * smo + lambda_reg * reg + lambda_bf * bf."""
    parts = (photo, smo, reg, bf)
    if not all(np.isfinite(p) for p in parts):
        raise ValueError(f"loss components must be finite, got {parts}")
    return float(
        photo
        + weights.lambda_smo * smo
        + weights.lambda_reg * reg
        + weights.lambda_bf * bf
    )


def _smoothness_grad_depth(depth: DepthMap, image: ImageBuffer) -> np.ndarray:
    """d(smoothness)/d(depth), scatter of the per-difference subgradients."""
    grad = np.zeros_like(depth.data)
    for ahead, behind, dd, weight in _forward_diffs(depth, image):
        s = np.sign(dd) * weight / dd.size
        grad[ahead] += s
        grad[behind] -= s
    return grad


def loss_gradients(
    target: ImageBuffer,
    source: ImageBuffer,
    depth: DepthMap,
    pose: SE3Transform,
    k: CameraIntrinsics,
    mask: WeightMask,
    weights: LossWeights,
    curvature: bool = False,
) -> LossGradients:
    """Gradients of photo + lambda_smo*smo + lambda_reg*reg for one pair.

    The bf term has no gradient w.r.t. a single pose and is handled by the
    pose aligner's pair mode. Validity is treated as locally constant: the
    subgradients are one-sided at L1 kinks, bilinear grid lines, and
    visibility flips, and checks exclude those sets.

    The photometric gradient runs in reverse mode over one point transform:
    the sign- and mask-weighted sampler gradient is contracted over
    channels to dL/d(u, v), chained through d(u, v)/d(X') to dL/dX', and
    read off by camera's row helpers as d_pose (the sum of the pose rows)
    and d_depth (the depth rows).

    curvature=True also returns the photometric term's iteratively
    reweighted least-squares (Gauss-Newton) curvature: each residual r of
    the pixel-and-channel sum is replaced by r^2 / (2 max(|r|, 1e-3)), so
    h_pose = sum m v / (n max(|r|, 1e-3)) J J^T over pixels and channels,
    with J = d(recon)/d(pose), and h_depth is the same sum with
    J = d(recon)/d(depth) per pixel (the depth Hessian is diagonal). Both
    come from the rows that warp_jacobians returns.

    Returns:
        LossGradients(d_depth (h, w), d_pose (6,), d_mask (h, w), h_pose,
        h_depth); the pose entries follow the left-perturbation rotation
        convention, and h_pose and h_depth are None unless curvature is True.
    """
    if not isinstance(curvature, bool):
        raise ValueError(f"curvature must be True or False, got {curvature!r}")
    _check_same_size(target, source, "target", "source")
    _check_same_size(target, depth, "target", "depth")
    _check_same_size(target, mask, "target", "mask")
    if target.channels != source.channels:
        raise ValueError("target and source channel counts differ")
    recon, valid, grad, transformed = _warp_eval(source, depth, pose, k, jacobians=True)
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise DegenerateInputError("loss gradients undefined: no valid pixels")

    diff = target.data - recon
    pix_weight = mask.data * valid / n_valid  # (h, w)

    # d|t - r|/d(r) = -sign(t - r), contracted over channels to dL/du and
    # dL/dv and chained back through the reprojection. The sign is deleted
    # before the curvature block so that it does not raise the peak memory.
    sign = np.sign(diff)
    d_u, d_v = (-np.einsum("hwc,hwc->hw", g, sign) * pix_weight for g in grad)
    del sign
    rx, x_src, _, z_safe = transformed
    d_x = _projection_vjp(x_src, z_safe, k, d_u, d_v)  # dL/dX'
    d_photo_pose = _pose_sum(d_x, rx)
    d_photo_depth = _depth_rows(d_x, rx, depth.data)
    d_photo_mask = np.sum(np.abs(diff), axis=2) * valid / n_valid

    d_depth = d_photo_depth + weights.lambda_smo * _smoothness_grad_depth(
        depth, target
    )

    n_pix = mask.data.size
    d_reg_mask = np.where(
        mask.data > MASK_FLOOR, -1.0 / (n_pix * np.maximum(mask.data, MASK_FLOOR)), 0.0
    )
    d_mask = d_photo_mask + weights.lambda_reg * d_reg_mask
    grads = LossGradients(d_depth, d_photo_pose, d_mask)
    if not curvature:
        return grads
    irls = pix_weight[..., None] / np.maximum(np.abs(diff), IRLS_FLOOR)  # (h, w, c)
    j_depth, j_pose = _channel_rows(grad, transformed, depth.data, k)
    j_pose = j_pose.reshape(-1, 6)
    return grads._replace(
        h_pose=j_pose.T @ (j_pose * irls.reshape(-1, 1)),
        h_depth=np.einsum("hwc,hwc->hw", irls, j_depth * j_depth),
    )

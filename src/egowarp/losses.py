"""Self-supervised photometric loss stack and its analytic gradients.

Components: masked photometric L1 on an inverse-warped reconstruction,
explainability regularization (cross entropy of the mask against constant 1),
edge-aware first-order depth smoothness, and the weighted total that also
accepts a backward-forward pose consistency term computed elsewhere.

loss_gradients returns the gradients in depth, pose and mask, and with
curvature=True the IRLS curvature h_pose and h_depth (None otherwise); with
pose_only=True it builds the pose entries alone: d_depth, d_mask, h_depth None.

The smoothness edge weights exp(-mean_c |dI|) depend on the image alone.
_edge_weights builds them, and smoothness, its depth gradient, gradcheck's
edge-stability mask and the aligner share it; the aligner builds them once
per pyramid level, and gradcheck once per trial, and each runs _smoothness
on them for each depth it tries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .camera import CameraIntrinsics, _channel_rows, _depth_rows, _pose_sum, _projection_vjp
from .exceptions import DegenerateInputError, _check_finite
from .se3 import SE3Transform
from .warp import DepthMap, ImageBuffer, ValidityMask, _PixelArray, _check_same_size, _warp_eval

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
        vals = _check_finite((self.lambda_smo, self.lambda_reg, self.lambda_bf), "loss weights")
        if np.any(vals < 0):
            raise ValueError("loss weights must be >= 0")


@dataclass(frozen=True, eq=False)
class WeightMask(_PixelArray):
    """Per-pixel loss weight or attention coefficient in [0, 1], shape (h, w)."""

    _RANGE = (0.0, 1.0)

    @classmethod
    def ones(cls, height: int, width: int) -> "WeightMask":
        return cls(np.ones((height, width)))


class LossGradients(NamedTuple):
    """Analytic gradients of the single-pair total (photo + smo + reg), and
    the photometric term's IRLS curvature when it was asked for; a
    pose-only request leaves the depth and mask entries None."""

    d_depth: np.ndarray | None  # (h, w)
    d_pose: np.ndarray  # (6,)
    d_mask: np.ndarray | None  # (h, w)
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
    _check_same_size(target, valid, "target", "valid")
    n_valid = valid.count
    if n_valid == 0:
        raise DegenerateInputError("photometric loss undefined: no valid pixels")
    per_pixel = _csum(np.abs(target.data - recon.data))
    return float(np.sum(per_pixel * mask.data * valid.data) / n_valid)


def explainability_reg(mask: WeightMask) -> float:
    """Mean cross entropy of the mask against the constant-1 label.

    (1 / N) * sum_p -log(mask(p)); mask values are clamped to >= 1e-7 so the
    regularizer diverges no further once a mask pixel collapses.
    """
    logs = np.log(np.maximum(mask.data, MASK_FLOOR))
    # The negated mean, as sum / size: negation commutes with the sum, bit for bit.
    return -float(np.add.reduce(logs, axis=None) / logs.size)


def _csum(x: np.ndarray) -> np.ndarray:
    """sum_c x[..., c] as plane additions, left to right from +0.0: the order
    in which np.sum(x, axis=-1) adds an axis of fewer than 8 entries, so the
    two agree bit for bit."""
    out = np.add(x[..., 0], 0.0)
    for c in range(1, x.shape[-1]):
        out += x[..., c]
    return out


def _cdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_c x[..., c] * y[..., c] as plane products."""
    out = x[..., 0] * y[..., 0]
    for c in range(1, x.shape[-1]):
        out += x[..., c] * y[..., c]
    return out


def _edge_weights(image: ImageBuffer) -> list:
    """[(ahead, behind, exp(-mean_c |I[ahead] - I[behind]|))] for each axis
    with a forward difference, x first and then y: the edge weights of
    smoothness and its gradient, which depend on the image alone. An axis of
    length 1 has none and is skipped."""
    img = image.data
    edges = []
    for axis, ahead, behind in ((1, np.s_[:, 1:], np.s_[:, :-1]), (0, np.s_[1:], np.s_[:-1])):
        if img.shape[axis] > 1:
            di = img[ahead] - img[behind]
            weight = _csum(np.abs(di, out=di))
            del di  # freed before the next axis
            weight /= -img.shape[2]  # -mean_c |dI|, as np.mean divides
            edges.append((ahead, behind, np.exp(weight, out=weight)))
    return edges


def _smoothness(depth: np.ndarray, edges: list) -> float:
    """smoothness of the depth array under the edge weights of _edge_weights."""
    total = 0.0
    for ahead, behind, weight in edges:
        dd = depth[ahead] - depth[behind]
        np.abs(dd, out=dd)
        dd *= weight
        total += float(np.add.reduce(dd, axis=None) / dd.size)  # np.mean's sum / size
    return total


def smoothness(depth: DepthMap, image: ImageBuffer) -> float:
    """Edge-aware first-order depth smoothness.

    Forward differences; each axis contributes the mean of
    |dD| * exp(-|dI|) over its defined entries (x: h*(w-1), y: (h-1)*w).
    The last column (x) / last row (y) has no forward difference and is
    excluded. An axis without defined entries contributes 0.
    """
    _check_same_size(depth, image, "depth", "image")
    return _smoothness(depth.data, _edge_weights(image))


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
    """photo + lambda_smo * smo + lambda_reg * reg + lambda_bf * bf.

    Each part must be a finite real number; a bool, a string, None or an
    array raises ValueError naming the part.
    """
    parts = (photo, smo, reg, bf)
    for name, part in zip(("photo", "smo", "reg", "bf"), parts):
        if type(part) is not float and (
                isinstance(part, bool) or not isinstance(part, numbers.Real)):
            raise ValueError(f"loss component {name} must be a real number, got {part!r}")
    if not (math.isfinite(photo) and math.isfinite(smo) and math.isfinite(reg)
            and math.isfinite(bf)):
        raise ValueError(f"loss components must be finite, got {parts}")
    return float(
        photo
        + weights.lambda_smo * smo
        + weights.lambda_reg * reg
        + weights.lambda_bf * bf
    )


def _smoothness_grad_depth(depth: DepthMap, image: ImageBuffer) -> np.ndarray:
    """d(smoothness)/d(depth), scatter of the per-difference subgradients."""
    d = depth.data
    grad = np.zeros_like(d)
    for ahead, behind, weight in _edge_weights(image):
        dd = d[ahead] - d[behind]
        s = np.sign(dd, out=dd)
        s *= weight
        s /= s.size
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
    pose_only: bool = False,
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
    h_pose = sum w J J^T over pixels and channels, w = m v / (n max(|r|,
    1e-3)), with J = d(recon)/d(pose), and h_depth is the same sum with
    J = d(recon)/d(depth) per pixel (the depth Hessian is diagonal). J is
    linear in the channel's pixel gradient (g_u, g_v), so the rows are built,
    as warp_jacobians builds them, from the sqrt(w)-weighted gradients,
    and h_pose is the one product J J^T of the (6, N) pose rows. Only each
    pixel's 2 x 2 S = sum_c w (g_u, g_v)^T (g_u, g_v) enters both, so with
    more than two channels the two rows of S's Cholesky factor replace
    them: at most two pseudo-channels of rows per pixel.

    pose_only=True asks for the pose block alone, all that a solve with a
    fixed depth and mask reads: the depth rows, the smoothness subgradient,
    the mask terms and the curvature's depth rows are not built, and d_pose
    and h_pose come from the same statements as in the full call, so they
    are the full call's bit for bit.

    Returns:
        LossGradients(d_depth (h, w), d_pose (6,), d_mask (h, w), h_pose,
        h_depth); the pose entries follow the left-perturbation rotation
        convention, h_pose and h_depth are None unless curvature is True,
        and d_depth, d_mask and h_depth are None when pose_only is True.
    """
    for name, flag in (("curvature", curvature), ("pose_only", pose_only)):
        if not isinstance(flag, bool):
            raise ValueError(f"{name} must be True or False, got {flag!r}")
    _check_same_size(target, source, "target", "source")
    _check_same_size(target, depth, "target", "depth")
    _check_same_size(target, mask, "target", "mask")
    recon, valid, grad, transformed = _warp_eval(source, depth, pose, k, jacobians=True)
    n_valid = np.count_nonzero(valid)
    if n_valid == 0:
        raise DegenerateInputError("loss gradients undefined: no valid pixels")

    diff = np.subtract(target.data, recon, out=recon)
    pix_weight = mask.data * valid  # (h, w)
    pix_weight /= n_valid

    # d|t - r|/d(r) = -sign(t - r), contracted over channels to dL/du and
    # dL/dv and chained back through the reprojection. The temporaries are
    # deleted before the curvature block so that they do not raise its peak.
    sign = np.sign(diff)
    d_uv = [_cdot(g, sign) for g in grad]
    del sign
    for d in d_uv:
        np.negative(d, out=d)
        d *= pix_weight
    rx, x_src, _, z_safe = transformed
    d_x = _projection_vjp(x_src, z_safe, k, *d_uv)  # dL/dX'
    d_photo_pose = _pose_sum(d_x, rx)
    abs_diff = np.abs(diff, out=diff)
    d_depth = d_mask = None
    if not pose_only:
        d_depth = _depth_rows(d_x, rx, depth.data)
        d_depth += weights.lambda_smo * _smoothness_grad_depth(depth, target)
        d_mask = _csum(abs_diff)
        d_mask *= valid
        d_mask /= n_valid
        # d(reg)/d(mask) = -1 / (n_pix mask), 0 where the floor clamps the mask
        d_reg = np.maximum(mask.data, MASK_FLOOR)
        d_reg *= mask.data.size
        np.divide(-1.0, d_reg, out=d_reg)
        d_reg[mask.data <= MASK_FLOOR] = 0.0
        d_mask += weights.lambda_reg * d_reg
        del d_reg
    del d_uv, d_x
    grads = LossGradients(d_depth, d_photo_pose, d_mask)
    if not curvature:
        return grads
    # Each channel's rows are sqrt(w) times those of its pixel gradient
    # (g_u, g_v). The residual's buffer is let go before the rows are built.
    sqrt_w = np.maximum(abs_diff, IRLS_FLOOR, out=abs_diff)  # (h, w, c)
    np.divide(pix_weight[..., None], sqrt_w, out=sqrt_w)
    np.sqrt(sqrt_w, out=sqrt_w)
    g_u, g_v = grad
    g_u *= sqrt_w
    g_v *= sqrt_w
    del recon, diff, abs_diff, sqrt_w, pix_weight, grad
    if g_u.shape[-1] > 2:
        # The rows of S's Cholesky factor, (l11, l21) and (0, l22), stand in
        # for the channels as two pseudo-channels.
        s_uu, s_uv, s_vv = _cdot(g_u, g_u), _cdot(g_u, g_v), _cdot(g_v, g_v)
        g_u, g_v = np.zeros(s_uu.shape + (2,)), np.zeros(s_uu.shape + (2,))
        l11 = np.sqrt(s_uu, out=g_u[..., 0])
        l21 = np.divide(s_uv, l11, out=g_v[..., 0], where=l11 > 0.0)
        s_vv -= np.multiply(l21, l21, out=s_uv)
        np.sqrt(np.maximum(s_vv, 0.0, out=s_vv), out=g_v[..., 1])
    j_depth, j_pose = _channel_rows((g_u, g_v), transformed, None if pose_only else depth.data, k)
    j_pose = j_pose.reshape(6, -1)
    return grads._replace(h_pose=j_pose @ j_pose.T,
                          h_depth=None if pose_only else _cdot(j_depth, j_depth))

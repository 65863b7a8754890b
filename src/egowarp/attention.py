"""Additive attention gate over skip-connection features.

Per position i: q_i = psi^T relu(W_x^T x_i + W_g^T g_i + b_xg) + b_psi,
alpha_i = sigmoid(q_i), gated_i = alpha_i * x_i. The backward pass includes
the alpha path through x (product rule), which is what distinguishes a gate
from a fixed mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import _check_count, _check_finite
from .losses import WeightMask
from .warp import _PixelArray, _resample


@dataclass(frozen=True, eq=False)
class FeatureMap(_PixelArray):
    """Dense feature grid, shape (h, w, f), finite values."""

    _AXES = "hwf"

    @property
    def features(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class AttentionGateParams:
    """Gate parameters.

    Shapes: w_x (f_x, f_int), w_g (f_g, f_int), psi (f_int,), b_xg (f_int,),
    b_psi scalar.
    """

    w_x: np.ndarray
    w_g: np.ndarray
    psi: np.ndarray
    b_xg: np.ndarray
    b_psi: float

    def __post_init__(self) -> None:
        for name in ("w_x", "w_g", "psi", "b_xg"):
            object.__setattr__(self, name, _check_finite(getattr(self, name), name))
        object.__setattr__(self, "b_psi", float(_check_finite(self.b_psi, "b_psi")))
        if self.w_x.ndim != 2 or self.w_g.ndim != 2:
            raise ValueError("w_x and w_g must be 2-d")
        f_int = self.w_x.shape[1]
        if self.w_g.shape[1] != f_int or self.psi.shape != (f_int,) or self.b_xg.shape != (f_int,):
            raise ValueError("inner dimensions of gate parameters disagree")

    @classmethod
    def zeros(cls, f_x: int, f_g: int, f_int: int) -> "AttentionGateParams":
        return cls(
            np.zeros((f_x, f_int)),
            np.zeros((f_g, f_int)),
            np.zeros(f_int),
            np.zeros(f_int),
            0.0,
        )


def _check_gate_inputs(
    x: FeatureMap, g: FeatureMap, params: AttentionGateParams
) -> None:
    if (x.height, x.width) != (g.height, g.width):
        raise ValueError(
            f"x {x.height}x{x.width} and g {g.height}x{g.width} sizes differ; "
            "resample_gating first"
        )
    if x.features != params.w_x.shape[0]:
        raise ValueError("x feature count does not match w_x")
    if g.features != params.w_g.shape[0]:
        raise ValueError("g feature count does not match w_g")


def _gate(
    x: FeatureMap, g: FeatureMap, params: AttentionGateParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(preactivation, hidden, alpha) of the gate at every position."""
    pre = x.data @ params.w_x + g.data @ params.w_g + params.b_xg
    hidden = np.maximum(pre, 0.0)
    with np.errstate(over="ignore"):  # exp(-q) is inf once q < -709: alpha = 0, its limit
        alpha = 1.0 / (1.0 + np.exp(-(hidden @ params.psi + params.b_psi)))
    return pre, hidden, alpha


def ag_forward(
    x: FeatureMap, g: FeatureMap, params: AttentionGateParams
) -> tuple[WeightMask, FeatureMap]:
    """Gate x by the attention computed from (x, g).

    Returns:
        (alpha, gated): the attention coefficients and alpha * x. All-zero
        parameters give q = 0 everywhere, hence alpha = 0.5 exactly.
    """
    _check_gate_inputs(x, g, params)
    alpha = _gate(x, g, params)[2]
    return WeightMask(alpha), FeatureMap(alpha[:, :, None] * x.data)


def ag_backward(
    x: FeatureMap,
    g: FeatureMap,
    params: AttentionGateParams,
    upstream: FeatureMap,
) -> tuple[AttentionGateParams, FeatureMap, FeatureMap]:
    """Gradients of L = sum_i <upstream_i, gated_i> w.r.t. params, x, and g.

    The x gradient carries both the direct term alpha * upstream and the
    attention term through the preactivation. The ReLU subgradient at 0 is 0,
    so positions in the dead zone propagate nothing into w_x, w_g, b_xg, or
    psi's input, while b_psi still receives signal through the sigmoid.

    Returns:
        (d_params, d_x, d_g) shaped like their primals.
    """
    _check_gate_inputs(x, g, params)
    if upstream.data.shape != x.data.shape:
        raise ValueError("upstream gradient must be shaped like x")
    pre, hidden, alpha = _gate(x, g, params)

    s = np.sum(upstream.data * x.data, axis=2)  # dL/d(alpha)
    c = s * alpha * (1.0 - alpha)  # dL/d(q)
    d_pre = c[:, :, None] * params.psi * (pre > 0.0)

    d_params = AttentionGateParams(
        w_x=np.einsum("hwl,hwi->li", x.data, d_pre),
        w_g=np.einsum("hwg,hwi->gi", g.data, d_pre),
        psi=np.einsum("hw,hwi->i", c, hidden),
        b_xg=np.sum(d_pre, axis=(0, 1)),
        b_psi=float(np.sum(c)),
    )
    d_x = alpha[:, :, None] * upstream.data + d_pre @ params.w_x.T
    d_g = d_pre @ params.w_g.T
    return d_params, FeatureMap(d_x), FeatureMap(d_g)


def _align_corners(arr: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Bilinear resize mapping corner samples onto corner samples.

    Output (i, j) reads the input at (j (w - 1) / (out_width - 1),
    i (h - 1) / (out_height - 1)). Attention grids differ by arbitrary
    ratios and carry no intrinsics, so there is no pyramid half-pixel map
    to invert, as pyramid.upsample2x does.
    """
    _check_count(out_height, "out_height", 1)
    _check_count(out_width, "out_width", 1)
    h, w = arr.shape[:2]
    u = np.arange(out_width) * ((w - 1) / max(out_width - 1, 1))
    v = np.arange(out_height) * ((h - 1) / max(out_height - 1, 1))
    return _resample(arr, u, v)


def resample_gating(g: FeatureMap, out_height: int, out_width: int) -> FeatureMap:
    """Bilinear, align-corners resampling of the gating signal to x's grid.

    A 1x1 gating signal broadcasts to a constant map.
    """
    return FeatureMap(_align_corners(g.data, out_height, out_width))


def alpha_to_loss_mask(
    alpha: WeightMask, out_height: int, out_width: int
) -> WeightMask:
    """Resample attention coefficients to image resolution as a loss mask.

    Bilinear align-corners interpolation of values in [0, 1] stays in [0, 1];
    the clip only sweeps float dust.
    """
    up = _align_corners(alpha.data, out_height, out_width)
    return WeightMask(np.clip(up, 0.0, 1.0))

"""Rigid-body transforms on SO(3)/SE(3) and the backward-forward pose loss.

Conventions:
  - Rotations are 3x3 row-major matrices acting on column vectors (X' = R @ X).
  - Rotation vectors are axis-angle: direction = axis, norm = angle in radians.
  - SE(3) transforms act as X' = R @ X + t and compose left-to-right as
    matrices: compose(a, b) applies b first, then a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import AmbiguousLogError, _check_finite, _check_type

# Below this angle Rodrigues coefficients switch to 2nd-order Taylor series.
SMALL_ANGLE = 1e-8
# log is refused within this distance of pi, where the axis sign is ambiguous.
PI_MARGIN = 1e-6

_ORTHO_TOL = 1e-9


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix W with W @ x = v x x (cross product)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"v must have shape (3,), got {v.shape}")
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


@dataclass(frozen=True, eq=False)
class Rotation:
    """Orthonormal 3x3 matrix with determinant +1.

    Attributes:
        m: the matrix. Orthonormality and det are checked to 1e-9 on
            construction; exp_so3 output is exact to machine precision.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = _check_finite(self.m, "rotation matrix", (3, 3))
        if np.max(np.abs(m.T @ m - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("rotation matrix is not orthonormal within 1e-9")
        if abs(np.linalg.det(m) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation matrix determinant is not +1 within 1e-9")
        object.__setattr__(self, "m", m)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))


@dataclass(frozen=True, eq=False)
class SE3Transform:
    """Rigid transform X' = r.m @ X + t."""

    r: Rotation
    t: np.ndarray

    def __post_init__(self) -> None:
        _check_type(self.r, Rotation, "r")
        object.__setattr__(self, "t", _check_finite(self.t, "translation", (3,)))

    @classmethod
    def identity(cls) -> "SE3Transform":
        return cls(Rotation.identity(), np.zeros(3))

    @classmethod
    def from_translation(cls, t) -> "SE3Transform":
        return cls(Rotation.identity(), np.asarray(t, dtype=float))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SE3Transform":
        m = _check_finite(m, "homogeneous transform", (4, 4))
        if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValueError("bottom row must be [0, 0, 0, 1]")
        return cls(Rotation(m[:3, :3]), m[:3, 3])

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 form."""
        m = np.eye(4)
        m[:3, :3] = self.r.m
        m[:3, 3] = self.t
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        points = np.asarray(points, dtype=float)
        return points @ self.r.m.T + self.t

    def to_pose(self) -> "Pose6DoF":
        return Pose6DoF(log_so3(self.r), self.t.copy())


@dataclass(frozen=True, eq=False)
class Pose6DoF:
    """Minimal 6-parameter pose: axis-angle rotation vector + translation.

    The rotation-vector norm must be < pi - PI_MARGIN, the angles log_so3
    returns, so the parameterization stays single-valued (and continuous
    near the identity, where pose networks and the aligner operate).
    """

    rot: np.ndarray = field(default_factory=lambda: np.zeros(3))
    trans: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        rot = _check_finite(self.rot, "rotation vector", (3,))
        trans = _check_finite(self.trans, "translation", (3,))
        if np.linalg.norm(rot) >= np.pi - PI_MARGIN:
            raise ValueError(f"rotation-vector norm must be < pi - {PI_MARGIN:g}")
        object.__setattr__(self, "rot", rot)
        object.__setattr__(self, "trans", trans)

    def to_transform(self) -> SE3Transform:
        return SE3Transform(exp_so3(self.rot), self.trans.copy())


def _rodrigues(rot: np.ndarray) -> np.ndarray:
    """The matrix of exp_so3(rot), before Rotation checks it."""
    rot = _check_finite(rot, "rotation vector", (3,))
    theta = np.linalg.norm(rot)
    w = hat(rot)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * w + b * (w @ w)


def exp_so3(rot: np.ndarray) -> Rotation:
    """Rodrigues exponential map from a rotation vector.

    R = I + A*W + B*W^2 with W = hat(rot), A = sin(th)/th, B = (1-cos(th))/th^2.
    For th < 1e-8 the coefficients use their 2nd-order Taylor expansions,
    which agree with the closed form to ~th^4 (continuous at the threshold).

    Args:
        rot: (3,) axis-angle vector.

    Returns:
        Rotation with angle norm(rot) about rot/norm(rot).
    """
    return Rotation(_rodrigues(rot))


def log_so3(r: Rotation) -> np.ndarray:
    """Inverse of exp_so3.

    Past 90 degrees, where arccos and vee / sin(theta) lose precision as
    theta -> pi, theta is atan2(sin, cos) and the axis is read from the
    symmetric part (R + R^T) / 2 - cos(theta) I = (1 - cos(theta)) a a^T.

    Args:
        r: rotation with angle < pi - 1e-6.

    Returns:
        (3,) rotation vector with norm in [0, pi - 1e-6).

    Raises:
        AmbiguousLogError: angle within 1e-6 of pi (axis sign undetermined).
    """
    m = r.m
    cos_theta = np.clip((np.trace(m) - 1.0) / 2.0, -1.0, 1.0)
    # vee(R - R^T) = 2 sin(theta) * axis
    vee = 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    obtuse = cos_theta < 0.0
    theta = np.arctan2(np.linalg.norm(vee), cos_theta) if obtuse else np.arccos(cos_theta)
    if theta >= np.pi - PI_MARGIN:
        raise AmbiguousLogError(
            f"rotation angle {theta:.9f} is within 1e-6 of pi; log is ambiguous"
        )
    if obtuse:
        # The column with the largest diagonal, signed to agree with vee.
        s = 0.5 * (m + m.T) - cos_theta * np.eye(3)
        axis = s[:, np.argmax(np.diag(s))]
        axis = axis * (theta / np.linalg.norm(axis))
        return axis if axis @ vee >= 0.0 else -axis
    if theta < SMALL_ANGLE:
        # theta/sin(theta) -> 1 + theta^2/6
        return vee * (1.0 + theta * theta / 6.0)
    return vee * (theta / np.sin(theta))


def compose(a: SE3Transform, b: SE3Transform) -> SE3Transform:
    """a compose b: the transform that applies b first, then a."""
    return SE3Transform(Rotation(a.r.m @ b.r.m), a.r.m @ b.t + a.t)


def inverse(a: SE3Transform) -> SE3Transform:
    """Transform undoing a: R^T, -R^T t."""
    rt = a.r.m.T
    return SE3Transform(Rotation(rt), -(rt @ a.t))


def retract_pose(pose: SE3Transform, delta: np.ndarray) -> SE3Transform:
    """Apply a 6-vector step: left-multiplicative rotation, additive
    translation, the parameterization of bf_residual_jacobian's columns."""
    if np.shape(delta) != (6,):
        raise ValueError(f"delta must have shape (6,), got {np.shape(delta)}")
    return SE3Transform(Rotation(_rodrigues(delta[:3]) @ pose.r.m), pose.t + delta[3:])


def bf_consistency_loss(pairs: list[tuple[SE3Transform, SE3Transform]]) -> float:
    """Backward-forward pose consistency penalty.

    Each pair holds the forward transform (target -> source) and the backward
    transform (source -> target) estimated independently; their composition
    should be the identity. The penalty is the sum over pairs of the
    elementwise L1 norm of (backward o forward - I4).

    Args:
        pairs: non-empty list of (forward, backward) transforms.

    Returns:
        Non-negative scalar, zero iff every backward is the exact inverse.
    """
    if len(pairs) == 0:
        raise ValueError("bf_consistency_loss needs at least one pose pair")
    total = 0.0
    for forward, backward in pairs:
        m = backward.matrix() @ forward.matrix()
        total += float(np.sum(np.abs(m - np.eye(4))))
    return total


def bf_residual_jacobian(
    forward: SE3Transform, backward: SE3Transform
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the bf penalty and their Jacobian w.r.t. both poses.

    The residuals are the 12 entries of the top three rows of
    (backward o forward - I4), row-major; the bottom row is identically 0.
    Columns 0..5 perturb the forward pose and 6..11 the backward pose, each
    as in the reprojection Jacobian: rotation left-multiplicatively
    (exp(d^) @ R), translation additively.

    Returns:
        (e, jac): shapes (12,) and (12, 12).
    """
    rf, rb = forward.r.m, backward.r.m
    e = (backward.matrix() @ forward.matrix() - np.eye(4))[:3].ravel()
    jac = np.zeros((3, 4, 12))
    for k in range(3):
        g = hat(np.eye(3)[k])
        # B @ dF: dF = [g R_f, 0] for a rotation, [0, e_k] for a translation.
        jac[:, :3, k] = rb @ g @ rf
        jac[:, 3, 3 + k] = rb[:, k]
        # dB @ F: dB = [g R_b, 0] moves both blocks of F; [0, e_k] adds e_k.
        jac[:, :3, 6 + k] = g @ rb @ rf
        jac[:, 3, 6 + k] = g @ rb @ forward.t
        jac[k, 3, 9 + k] = 1.0
    return e, jac.reshape(12, 12)


def bf_consistency_grad(
    pairs: list[tuple[SE3Transform, SE3Transform]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Subgradients of bf_consistency_loss w.r.t. each pose's 6 parameters.

    J^T sign(e) from bf_residual_jacobian, so the parameterization matches
    the reprojection Jacobian. At entries where (backward o forward - I) is
    exactly zero the subgradient 0 is used.

    Returns:
        One (d_forward, d_backward) pair of (6,) arrays per input pair.
    """
    if len(pairs) == 0:
        raise ValueError("bf_consistency_grad needs at least one pose pair")
    grads = []
    for forward, backward in pairs:
        e, jac = bf_residual_jacobian(forward, backward)
        g = jac.T @ np.sign(e)
        grads.append((g[:6], g[6:]))
    return grads

"""The shared input checks in egowarp.exceptions, through the records that
pass several fields to _check_finite as one tuple or list, through scalar
arguments and through array fields: a Python or numpy bool, or an array of
bools, is not a number."""

import numpy as np
import pytest

from egowarp import (AteResult, AttentionGateParams, CameraIntrinsics, DepthMetrics,
                     LossWeights, PlaneSpec, Pose6DoF, Rotation, SceneSpec, SE3Transform,
                     Trajectory, perturb_pose)

_BOOLS = np.array([True, False, True])


def _gate(w_x):
    return AttentionGateParams(w_x, np.ones((1, 2)), np.ones(2), np.zeros(2), 0.0)


def _scene(row):
    return SceneSpec((PlaneSpec(np.array([0.0, 0.0, 1.0]), 5.0),), (row,))


@pytest.mark.parametrize("make, name", [
    (lambda: CameraIntrinsics(True, 1.0, 0.0, 0.0), "intrinsics"),
    (lambda: LossWeights(lambda_smo=True), "loss weights"),
    (lambda: AteResult(True, 0.0), "ATE statistics"),
    (lambda: DepthMetrics(True, 0.0, 0.0, 0.0, 0.5, 0.6, 0.7), "metrics"),
    (lambda: CameraIntrinsics(np.True_, 1.0, 0.0, 0.0), "intrinsics"),
    (lambda: LossWeights(lambda_smo=np.True_), "loss weights"),
    (lambda: AteResult(np.True_, 0.0), "ATE statistics"),
    (lambda: DepthMetrics(np.True_, 0.0, 0.0, 0.0, 0.5, 0.6, 0.7), "metrics"),
    (lambda: PlaneSpec(np.array([0.0, 0.0, 1.0]), np.True_), "plane offset"),
    (lambda: perturb_pose(Pose6DoF(np.zeros(3), np.ones(3)), np.True_, 0.0, 1), "rot_deg"),
    (lambda: PlaneSpec(_BOOLS, 5.0), "plane normal"),
    (lambda: _gate(np.ones((3, 2), dtype=bool)), "w_x"),
    (lambda: Pose6DoF(_BOOLS, np.zeros(3)), "rotation vector"),
    (lambda: SE3Transform(Rotation.identity(), _BOOLS), "translation"),
    (lambda: Rotation(np.eye(3, dtype=bool)), "rotation matrix"),
    (lambda: Trajectory(_BOOLS[1:], [SE3Transform.identity()] * 2), "timestamps"),
    (lambda: _scene(np.array([False, False, True, False])), "texture terms"),
    (lambda: _scene((0.0, 0.0, True, 0.0)), "texture terms"),
], ids=["CameraIntrinsics", "LossWeights", "AteResult", "DepthMetrics",
        "CameraIntrinsics-numpy", "LossWeights-numpy", "AteResult-numpy", "DepthMetrics-numpy",
        "PlaneSpec-numpy", "perturb_pose-numpy", "PlaneSpec-array", "AttentionGateParams-array",
        "Pose6DoF-array", "SE3Transform-array", "Rotation-array", "Trajectory-array",
        "SceneSpec-array", "SceneSpec-tuple"])
def test_bool_field_of_a_packed_record_rejected(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got .*True"):
        make()

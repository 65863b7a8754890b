"""The shared input checks in egowarp.exceptions, through the records that
pass several fields to _check_finite as one tuple or list, through scalar
arguments and through array fields: a Python or numpy bool, or an array of
bools, is not a number."""

import os

import numpy as np
import pytest

from egowarp import (AteResult, AttentionGateParams, CameraIntrinsics, DepthMap, DepthMetrics,
                     FeatureMap, ImageBuffer, LossWeights, PlaneSpec, Pose6DoF, Rotation,
                     SceneSpec, SE3Transform, Trajectory, WeightMask, perturb_pose)
from egowarp.fileio import write_timestamps

_BOOLS = np.array([True, False, True])
# A bool pixel array or time series is rejected by its dtype, and its message
# names the type without printing the data.
_NOT_PRINTED = "a bool array$"


def _gate(w_x):
    return AttentionGateParams(w_x, np.ones((1, 2)), np.ones(2), np.zeros(2), 0.0)


def _scene(row):
    return SceneSpec((PlaneSpec(np.array([0.0, 0.0, 1.0]), 5.0),), (row,))


@pytest.mark.parametrize("make, name, got", [
    (lambda: CameraIntrinsics(True, 1.0, 0.0, 0.0), "intrinsics", "True"),
    (lambda: LossWeights(lambda_smo=True), "loss weights", "True"),
    (lambda: AteResult(True, 0.0), "ATE statistics", "True"),
    (lambda: DepthMetrics(True, 0.0, 0.0, 0.0, 0.5, 0.6, 0.7), "metrics", "True"),
    (lambda: CameraIntrinsics(np.True_, 1.0, 0.0, 0.0), "intrinsics", "True"),
    (lambda: LossWeights(lambda_smo=np.True_), "loss weights", "True"),
    (lambda: AteResult(np.True_, 0.0), "ATE statistics", "True"),
    (lambda: DepthMetrics(np.True_, 0.0, 0.0, 0.0, 0.5, 0.6, 0.7), "metrics", "True"),
    (lambda: PlaneSpec(np.array([0.0, 0.0, 1.0]), np.True_), "plane offset", "True"),
    (lambda: perturb_pose(Pose6DoF(np.zeros(3), np.ones(3)), np.True_, 0.0, 1), "rot_deg",
     "True"),
    (lambda: PlaneSpec(_BOOLS, 5.0), "plane normal", "True"),
    (lambda: _gate(np.ones((3, 2), dtype=bool)), "w_x", "True"),
    (lambda: Pose6DoF(_BOOLS, np.zeros(3)), "rotation vector", "True"),
    (lambda: SE3Transform(Rotation.identity(), _BOOLS), "translation", "True"),
    (lambda: Rotation(np.eye(3, dtype=bool)), "rotation matrix", "True"),
    (lambda: Trajectory(_BOOLS[1:], [SE3Transform.identity()] * 2), "timestamps", "True"),
    (lambda: _scene(np.array([False, False, True, False])), "texture terms", "True"),
    (lambda: _scene((0.0, 0.0, True, 0.0)), "texture terms", "True"),
    (lambda: ImageBuffer(np.ones((2, 2, 1), dtype=bool)), "ImageBuffer values", _NOT_PRINTED),
    (lambda: DepthMap(np.ones((2, 2), dtype=bool)), "DepthMap values", _NOT_PRINTED),
    (lambda: WeightMask(np.ones((2, 2), dtype=bool)), "WeightMask values", _NOT_PRINTED),
    (lambda: FeatureMap(np.ones((2, 2, 1), dtype=bool)), "FeatureMap values", _NOT_PRINTED),
    (lambda: write_timestamps(os.devnull, _BOOLS[:2]), f"{os.devnull}: timestamps", _NOT_PRINTED),
], ids=["CameraIntrinsics", "LossWeights", "AteResult", "DepthMetrics",
        "CameraIntrinsics-numpy", "LossWeights-numpy", "AteResult-numpy", "DepthMetrics-numpy",
        "PlaneSpec-numpy", "perturb_pose-numpy", "PlaneSpec-array", "AttentionGateParams-array",
        "Pose6DoF-array", "SE3Transform-array", "Rotation-array", "Trajectory-array",
        "SceneSpec-array", "SceneSpec-tuple", "ImageBuffer-array", "DepthMap-array",
        "WeightMask-array", "FeatureMap-array", "write_timestamps-array"])
def test_bool_field_of_a_packed_record_rejected(make, name, got):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got .*{got}"):
        make()


_NESTED_EYE = [[True, False, False], [False, True, False], [False, False, True]]
_NESTED_MATRIX = [[1.0, 0.0, 0.0, True], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0]]


@pytest.mark.parametrize("make, name, got", [
    (lambda: Rotation(_NESTED_EYE), "rotation matrix", "True"),
    (lambda: SE3Transform.from_matrix(_NESTED_MATRIX), "homogeneous transform", "True"),
    (lambda: DepthMap([[1.0, True]]), "DepthMap values", _NOT_PRINTED),
], ids=["Rotation-nested", "SE3Transform.from_matrix-nested", "DepthMap-nested"])
def test_bool_nested_in_lists_rejected(make, name, got):
    """A bool inside a list inside a list is no number either: numpy would
    read True as 1.0 once a float sits beside it."""
    with pytest.raises(ValueError, match=f"^{name} must be a number, got .*{got}"):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda: SE3Transform(np.eye(3), np.zeros(3)), r"r must be a Rotation, got ndarray"),
    (lambda: Trajectory(np.arange(2.0), (1, 2)), r"poses\[0\] must be a SE3Transform, got int"),
    (lambda: SceneSpec((1,), ((0, 0, 0.5, 0),)), r"planes\[0\] must be a PlaneSpec, got int"),
], ids=["SE3Transform", "Trajectory", "SceneSpec"])
def test_member_of_the_wrong_type_rejected(make, name):
    """A record rejects a member of the wrong type when it is built, naming
    the field, not later with an AttributeError where the member is used."""
    with pytest.raises(ValueError, match=f"^{name}$"):
        make()


@pytest.mark.parametrize("make, name, got", [
    (lambda: LossWeights(lambda_smo="0.1"), "loss weights", "('0.1', 0.1, 0.1)"),
    (lambda: CameraIntrinsics("100", 100, 3, 3), "intrinsics", "('100', 100, 3, 3)"),
    (lambda: perturb_pose(Pose6DoF(np.zeros(3), np.ones(3)), "1.0", 0.02, 1), "rot_deg",
     "'1.0'"),
    (lambda: perturb_pose(Pose6DoF(np.zeros(3), np.ones(3)), b"1.0", 0.02, 1), "rot_deg",
     "b'1.0'"),
    (lambda: Pose6DoF(np.array([0.1j, 0, 0]), np.zeros(3)), "rotation vector",
     "a complex128 array"),
    (lambda: DepthMap(np.full((2, 2), 1 + 1j)), "DepthMap values", "a complex128 array"),
    (lambda: ImageBuffer([[["0.5"]]]), "ImageBuffer values", "a <U3 array"),
], ids=["LossWeights-str", "CameraIntrinsics-str", "perturb_pose-str", "perturb_pose-bytes",
        "Pose6DoF-complex", "DepthMap-complex", "ImageBuffer-str"])
def test_string_or_complex_rejected(make, name, got):
    """A float conversion would parse a string and drop an imaginary part;
    the check names the argument instead of failing later or truncating."""
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == f"{name} must be real, got {got}"

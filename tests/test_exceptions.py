"""The shared input checks in egowarp.exceptions, through the records that
pass several fields to _check_finite as one tuple or list, and through
scalar arguments: a Python or numpy bool is not a number."""

import numpy as np
import pytest

from egowarp import (AteResult, CameraIntrinsics, DepthMetrics, LossWeights, PlaneSpec,
                     Pose6DoF, perturb_pose)


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
], ids=["CameraIntrinsics", "LossWeights", "AteResult", "DepthMetrics",
        "CameraIntrinsics-numpy", "LossWeights-numpy", "AteResult-numpy", "DepthMetrics-numpy",
        "PlaneSpec-numpy", "perturb_pose-numpy"])
def test_bool_field_of_a_packed_record_rejected(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got .*True"):
        make()

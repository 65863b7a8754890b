"""The shared input checks in egowarp.exceptions, through the records that
pass several fields to _check_finite as one tuple or list."""

import pytest

from egowarp import AteResult, CameraIntrinsics, DepthMetrics, LossWeights


@pytest.mark.parametrize("make, name", [
    (lambda: CameraIntrinsics(True, 1.0, 0.0, 0.0), "intrinsics"),
    (lambda: LossWeights(lambda_smo=True), "loss weights"),
    (lambda: AteResult(True, 0.0), "ATE statistics"),
    (lambda: DepthMetrics(True, 0.0, 0.0, 0.0, 0.5, 0.6, 0.7), "metrics"),
], ids=["CameraIntrinsics", "LossWeights", "AteResult", "DepthMetrics"])
def test_bool_field_of_a_packed_record_rejected(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got .*True"):
        make()

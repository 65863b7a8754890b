"""tools/fingerprint.py's walker over an operation's output: equal outputs
print equal lines, and a 1-ulp move of one array entry changes that leaf's
line and no other, and reads as a relative move of about 1e-16 there and 0
on every other numeric leaf."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from egowarp import AlignReport, DepthMap, LossGradients, Pose6DoF

_SPEC = importlib.util.spec_from_file_location(
    "fingerprint", Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


def _output(bump=None):
    """One output of every kind the workloads return; bump names the array
    whose entry 2 moves up by one ulp."""
    arrays = {"d_pose": np.linspace(-1.0, 1.0, 6), "depth": np.full((2, 3), 2.0)}
    if bump is not None:
        arrays[bump].flat[2] = np.nextafter(arrays[bump].flat[2], np.inf)
    report = AlignReport(converged=True, iters=np.int64(3), final_loss=np.float64(0.25),
                         pose=Pose6DoF(np.zeros(3), np.ones(3)), loss_history=(1.0, 0.25),
                         depth=DepthMap(arrays["depth"]))
    grads = LossGradients(d_depth=None, d_pose=arrays["d_pose"], d_mask=None)
    return {"report": report, "grads": grads, "runs": {"align": (0, "converged=true\n")},
            "loss": 0.5, "valid": np.ones((2, 2), dtype=bool)}


def _lines(out):
    return [f"{path} {sha}" for path, sha in fingerprint.leaves("wl:1:0", out)]


def test_equal_outputs_print_equal_lines():
    lines = _lines(_output())
    assert lines == _lines(_output())
    paths = [line.split()[0] for line in lines]
    assert len(set(paths)) == len(paths)
    assert "wl:1:0.report.depth.data" in paths
    assert "wl:1:0.grads.d_pose" in paths
    assert "wl:1:0.runs.align[1]" in paths
    assert "wl:1:0.report.loss_history[1]" in paths


@pytest.mark.parametrize("bump, path", [
    ("d_pose", "wl:1:0.grads.d_pose"),
    ("depth", "wl:1:0.report.depth.data"),
])
def test_one_ulp_changes_that_leaf_alone(bump, path):
    before, after = _lines(_output()), _lines(_output(bump))
    changed = [a.split()[0] for a, b in zip(before, after, strict=True) if a != b]
    assert changed == [path]


def test_unknown_leaf_type_rejected():
    with pytest.raises(TypeError, match="wl:1:0.x"):
        _lines({"x": object()})


@pytest.mark.parametrize("bump, path", [
    ("d_pose", "wl:1:0.grads.d_pose"),
    ("depth", "wl:1:0.report.depth.data"),
])
def test_one_ulp_moves_that_leaf_alone_by_about_1e_16(tmp_path, bump, path):
    """Saved and reloaded, a 1-ulp bump of one entry reads as a relative
    move of about 1e-16 on its leaf and 0 on every other numeric leaf."""
    files = tmp_path / "before.npz", tmp_path / "after.npz"
    for file, out in zip(files, (_output(), _output(bump))):
        np.savez(file, **fingerprint.numeric_leaves("wl:1:0", out))
    before, after = (fingerprint.load(str(f)) for f in files)
    assert before.keys() == after.keys()
    assert "wl:1:0.report.iters" in before and "wl:1:0.report.converged" not in before
    moved = fingerprint.moves(before, after)
    assert moved.keys() == before.keys()
    assert 5e-17 < moved.pop(path) < 5e-16
    assert set(moved.values()) == {0.0}


@pytest.mark.parametrize("a, b, move", [
    ([0.0], [0.0], 0.0), ([0.0], [1e-300], np.inf), ([np.nan], [np.nan], 0.0),
    ([1.0], [np.nan], np.inf), ([2.0, 4.0], [2.0, 5.0], 0.25), ([1.0], [1.0, 1.0], np.inf),
])
def test_largest_move(a, b, move):
    assert fingerprint.largest_move(np.array(a), np.array(b)) == move

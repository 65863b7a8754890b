"""tools/fingerprint.py's walker over an operation's output: equal outputs
print equal lines, and a 1-ulp move of one array entry changes that leaf's
line and no other, and reads as a relative move of about 1e-16 there and 0
on every other numeric leaf. The gradcheck lines cover every term of trials
0 and 1, so a moved finite difference shows on its own line."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from egowarp import AlignReport, DepthMap, LossGradients, Pose6DoF, gradcheck

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


def _gradcheck_lines(monkeypatch):
    monkeypatch.setattr(fingerprint, "GRADCHECK_TRIALS", 1)  # the term lines do not read it
    return [f"{path} {sha}" for name, out in fingerprint.gradcheck_outputs()
            for path, sha in fingerprint.leaves(name, out)]


def test_gradcheck_lines_cover_every_term_of_two_trials(monkeypatch):
    lines = _gradcheck_lines(monkeypatch)
    assert lines == _gradcheck_lines(monkeypatch)
    paths = [line.split()[0] for line in lines]
    assert len(set(paths)) == len(paths)
    for c in gradcheck.COMPONENTS:
        assert f"gradcheck:{c}.max_rel_err" in paths
        for i in (0, 1):
            names = [t[0] for t in gradcheck._CHECKERS[c](np.random.default_rng([42, i]))]
            got = sorted(p for p in paths if p.startswith(f"gradcheck:{c}:{i}."))
            assert got == sorted(f"gradcheck:{c}:{i}.{n}.{part}" for n in names
                                 for part in ("analytic", "fd", "include"))
    numeric = fingerprint.numeric_leaves("gradcheck:losses:0", fingerprint.terms("losses", 0))
    assert "gradcheck:losses:0.d_depth.fd" in numeric
    assert "gradcheck:losses:0.d_depth.include" not in numeric  # bool


def test_one_ulp_in_one_fd_entry_changes_that_line_alone(monkeypatch):
    inner = gradcheck._CHECKERS["losses"]

    def moved(rng):
        terms = inner(rng)
        name, analytic, fd, include = terms[0]
        fd = fd.copy()
        idx = tuple(np.argwhere(include)[0])
        fd[idx] = np.nextafter(fd[idx], np.inf)
        return [(name, analytic, fd, include)] + terms[1:]

    before = _lines(fingerprint.terms("losses", 1))
    monkeypatch.setitem(gradcheck._CHECKERS, "losses", moved)
    after = _lines(fingerprint.terms("losses", 1))
    changed = [a.split()[0] for a, b in zip(before, after, strict=True) if a != b]
    assert changed == ["wl:1:0.d_depth.fd"]

"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv), which returns the exit code
and prints through normal stdout/stderr, so capsys captures the exact
console bytes. The contract under test:

* exit codes: 0 success, 1 gradient-check failure, 2 bad flags, 3 output
  write failure, 4 unreadable alignment inputs, 5 evaluation parse or
  count mismatch or degenerate content;
* synth writes exactly target.ppm, source.ppm, gt_depth.pfm, gt_pose.txt,
  intrinsics.txt, and identical invocations produce byte-identical files
  and console output;
* numeric console output is fixed 4-decimal (metrics, poses) or
  4-decimal scientific (gradient errors).

The depth-evaluation hand oracle uses constant maps: pred = 1.3 * 5
against gt = 5 gives abs_rel 0.3, sq_rel 0.45, rmse 1.5,
rmse_log ln 1.3 = 0.2624, deltas (0, 1, 1).
"""

import re

import numpy as np
import pytest

from egowarp import (
    DegenerateInputError,
    DepthMap,
    Rotation,
    SE3Transform,
    write_depth,
    write_pose,
    write_timestamps,
    write_trajectory,
)
from egowarp import gradcheck
from egowarp.cli import main

PAIR_FILES = (
    "target.ppm",
    "source.ppm",
    "gt_depth.pfm",
    "gt_pose.txt",
    "intrinsics.txt",
)


def _synth(out, size="48x48", scene="slanted_plane", baseline="0.35,0.25,0.2,0,0,0"):
    return main(
        [
            "synth",
            "--scene", scene,
            "--size", size,
            "--baseline", baseline,
            "--out", str(out),
        ]
    )


def _write_depth_dir(dirpath, values):
    dirpath.mkdir()
    for i, v in enumerate(values):
        write_depth(dirpath / f"{i:03d}.pfm", DepthMap(np.full((4, 4), v)))


def _poses(n, step=0.5):
    return [
        SE3Transform.from_translation([step * i, 0.1 * i, 0.0]) for i in range(n)
    ]


class TestSynth:
    def test_writes_expected_files_and_banner(self, tmp_path, capsys):
        out = tmp_path / "pair"
        assert _synth(out, size="32x32", scene="fronto_plane", baseline="0.1,0,0,0,0,0") == 0
        banner = capsys.readouterr().out
        assert banner == (
            f"synth scene=fronto_plane size=32x32 seed=42 wrote 5 files to {out}\n"
        )
        assert sorted(p.name for p in out.iterdir()) == sorted(PAIR_FILES)

    def test_byte_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _synth(a) == 0
        out_a = capsys.readouterr().out
        assert _synth(b) == 0
        out_b = capsys.readouterr().out
        assert out_a.replace(str(a), "") == out_b.replace(str(b), "")
        for name in PAIR_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unwritable_out_returns_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory\n")
        code = _synth(blocker / "sub")
        err = capsys.readouterr().err
        assert code == 3
        assert "cannot write outputs" in err


class TestAlign:
    def test_end_to_end_with_report(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        assert _synth(pair) == 0
        capsys.readouterr()
        report_path = tmp_path / "report.txt"
        code = main(
            [
                "align",
                "--pair", str(pair),
                "--max-iters", "30",
                "--out", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert re.fullmatch(r"converged=(true|false) iters=\d+", lines[0])
        assert re.fullmatch(r"final_loss=\d+\.\d{4}", lines[1])
        assert re.fullmatch(r"pose_rot=(-?\d+\.\d{4} ?){3}", lines[2])
        assert re.fullmatch(r"pose_trans=(-?\d+\.\d{4} ?){3}", lines[3])
        assert re.fullmatch(
            r"rot_err_deg=\d+\.\d{4} trans_err_rel=\d+\.\d{4}", lines[4]
        )
        text = report_path.read_text()
        for key in (
            "converged", "iters", "final_loss", "rot_x", "rot_y", "rot_z",
            "trans_x", "trans_y", "trans_z", "rot_err_deg", "trans_err_rel",
        ):
            assert f"{key}=" in text

    def test_byte_reproducible(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        assert _synth(pair) == 0
        capsys.readouterr()
        argv = ["align", "--pair", str(pair), "--max-iters", "25"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_missing_pair_returns_4(self, tmp_path, capsys):
        code = main(["align", "--pair", str(tmp_path / "nope")])
        assert code == 4
        assert "cannot read pair inputs" in capsys.readouterr().err

    def test_corrupt_pose_file_returns_4(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        assert _synth(pair) == 0
        capsys.readouterr()
        (pair / "gt_pose.txt").write_text("not a pose\n")
        code = main(["align", "--pair", str(pair)])
        assert code == 4
        assert "cannot read pair inputs" in capsys.readouterr().err

    def test_non_finite_pose_entry_returns_4_and_names_the_file(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        assert _synth(pair) == 0
        capsys.readouterr()
        (pair / "gt_pose.txt").write_text("1 nan 0 0.35 0 1 0 0.25 0 0 1 0.2\n")
        assert main(["align", "--pair", str(pair)]) == 4
        err = capsys.readouterr().err
        assert err == (
            f"error: cannot read pair inputs: {pair / 'gt_pose.txt'}:1: "
            "rotation matrix must be finite\n"
        )

    def test_pyramid_deeper_than_image_returns_5(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        assert _synth(pair, size="32x32") == 0
        capsys.readouterr()
        assert main(["align", "--pair", str(pair), "--levels", "8"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_pair_without_overlap_returns_5(self, tmp_path, capsys):
        # A 50-unit baseline moves every pixel out of frame at every level,
        # so no level runs and the final loss is inf.
        pair = tmp_path / "pair"
        assert _synth(pair, baseline="50,0,0,0,0,0") == 0
        capsys.readouterr()
        assert main(["align", "--pair", str(pair)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot align pair: ")
        assert captured.err.count("\n") == 1

    def test_ground_truth_rotation_of_pi_returns_5(self, tmp_path, capsys):
        # diag(-1, -1, 1) is a half turn about z: log_so3 has two answers.
        pair = tmp_path / "pair"
        assert _synth(pair) == 0
        capsys.readouterr()
        half_turn = Rotation(np.diag([-1.0, -1.0, 1.0]))
        write_pose(pair / "gt_pose.txt", SE3Transform(half_turn, np.array([0.35, 0.25, 0.2])))
        assert main(["align", "--pair", str(pair)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot align pair: ")
        assert captured.err.count("\n") == 1

    def test_unusable_coarse_level_is_skipped(self, tmp_path, capsys):
        # At 32x32 the sixth level is 1x1 and has no valid pixel; the run
        # skips it and gives what five levels give.
        pair = tmp_path / "pair"
        assert _synth(pair, size="32x32") == 0
        capsys.readouterr()
        outs = []
        for levels in ("5", "6"):
            argv = ["align", "--pair", str(pair), "--levels", levels, "--max-iters", "3"]
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]
        assert "final_loss=inf" not in outs[1]

    def test_payload_starting_with_whitespace_byte(self, tmp_path, capsys):
        # This seed's target image starts with byte 32, the value a header
        # separator has; align must still read all 32x32x3 bytes.
        pair = tmp_path / "pair"
        argv = ["synth", "--scene", "fronto_plane", "--seed", "62", "--size", "32x32"]
        assert main(argv + ["--out", str(pair)]) == 0
        assert (pair / "target.ppm").read_bytes()[len(b"P6\n32 32\n255\n")] == 32
        assert main(["align", "--pair", str(pair)]) == 0
        capsys.readouterr()


class TestEvalDepth:
    def test_identical_dirs_give_zero_row(self, tmp_path, capsys):
        _write_depth_dir(tmp_path / "gt", [5.0, 7.0])
        code = main(
            ["eval-depth", "--pred", str(tmp_path / "gt"), "--gt", str(tmp_path / "gt")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            "abs_rel sq_rel rmse rmse_log d1 d2 d3\n"
            "0.0000 0.0000 0.0000 0.0000 1.0000 1.0000 1.0000\n"
        )

    def test_constant_scale_hand_row(self, tmp_path, capsys):
        _write_depth_dir(tmp_path / "gt", [5.0])
        _write_depth_dir(tmp_path / "pred", [6.5])
        code = main(
            ["eval-depth", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[1] == "0.3000 0.4500 1.5000 0.2624 0.0000 1.0000 1.0000"

    def test_median_align_cancels_global_scale(self, tmp_path, capsys):
        _write_depth_dir(tmp_path / "gt", [5.0, 8.0])
        _write_depth_dir(tmp_path / "pred", [1.25, 2.0])
        code = main(
            [
                "eval-depth",
                "--pred", str(tmp_path / "pred"),
                "--gt", str(tmp_path / "gt"),
                "--median-align",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[1] == "0.0000 0.0000 0.0000 0.0000 1.0000 1.0000 1.0000"

    def test_count_mismatch_returns_5(self, tmp_path, capsys):
        _write_depth_dir(tmp_path / "gt", [5.0, 7.0])
        _write_depth_dir(tmp_path / "pred", [5.0])
        code = main(
            ["eval-depth", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")]
        )
        assert code == 5
        assert "1 predictions vs 2" in capsys.readouterr().err

    def test_files_paired_by_name(self, tmp_path, capsys):
        # Equal counts but 002.pfm has no ground truth; zipping the sorted
        # lists would score it against 001.pfm.
        _write_depth_dir(tmp_path / "gt", [5.0, 7.0])
        (tmp_path / "pred").mkdir()
        for name, v in (("000.pfm", 5.0), ("002.pfm", 7.0)):
            write_depth(tmp_path / "pred" / name, DepthMap(np.full((4, 4), v)))
        code = main(
            ["eval-depth", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")]
        )
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "002.pfm" in captured.err

    def test_empty_pred_returns_5(self, tmp_path, capsys):
        (tmp_path / "pred").mkdir()
        _write_depth_dir(tmp_path / "gt", [5.0])
        code = main(
            ["eval-depth", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")]
        )
        assert code == 5
        assert "no *.pfm files" in capsys.readouterr().err


class TestEvalAte:
    def _write_fixture(self, tmp_path, n=6):
        poses = _poses(n)
        write_trajectory(tmp_path / "pred.txt", poses)
        write_trajectory(tmp_path / "gt.txt", poses)
        write_timestamps(tmp_path / "times.txt", np.arange(n, dtype=float))

    def test_identical_trajectories(self, tmp_path, capsys):
        self._write_fixture(tmp_path)
        code = main(
            [
                "eval-ate",
                "--pred", str(tmp_path / "pred.txt"),
                "--gt", str(tmp_path / "gt.txt"),
                "--times", str(tmp_path / "times.txt"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ate 0.0000 +/- 0.0000\n"

    def test_pose_timestamp_mismatch_returns_5(self, tmp_path, capsys):
        self._write_fixture(tmp_path)
        write_timestamps(tmp_path / "times.txt", np.arange(4, dtype=float))
        code = main(
            [
                "eval-ate",
                "--pred", str(tmp_path / "pred.txt"),
                "--gt", str(tmp_path / "gt.txt"),
                "--times", str(tmp_path / "times.txt"),
            ]
        )
        assert code == 5
        assert "poses vs 4 timestamps" in capsys.readouterr().err

    def test_unmatchable_gt_times_returns_5(self, tmp_path, capsys):
        self._write_fixture(tmp_path)
        write_timestamps(tmp_path / "gt_times.txt", np.arange(6, dtype=float) + 100.0)
        code = main(
            [
                "eval-ate",
                "--pred", str(tmp_path / "pred.txt"),
                "--gt", str(tmp_path / "gt.txt"),
                "--times", str(tmp_path / "times.txt"),
                "--gt-times", str(tmp_path / "gt_times.txt"),
            ]
        )
        assert code == 5
        assert "no gt frame" in capsys.readouterr().err


class TestGradcheck:
    def test_single_component_passes(self, capsys):
        code = main(["gradcheck", "--component", "reproject", "--trials", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert re.fullmatch(
            r"reproject  trials=2 max_rel_err=\d\.\d{4}e[+-]\d{2} PASS\n", out
        )

    def test_all_components_print_one_line_each(self, capsys):
        code = main(["gradcheck", "--trials", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.endswith("PASS") for line in lines)

    def test_corruption_fails_with_exit_1(self, capsys, monkeypatch):
        # Every analytic entry is shifted by 0.01 * (1 + |entry|).
        inner = gradcheck._CHECKERS["warp"]

        def corrupted(rng):
            return [
                (name, analytic + 0.01 * (1.0 + np.abs(analytic)), fd, include)
                for name, analytic, fd, include in inner(rng)
            ]

        monkeypatch.setitem(gradcheck._CHECKERS, "warp", corrupted)
        code = main(["gradcheck", "--component", "warp", "--trials", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


def test_degenerate_input_error_returns_5(monkeypatch, capsys):
    def no_valid_pixels(*args, **kwargs):
        raise DegenerateInputError("no valid pixels")

    monkeypatch.setattr("egowarp.cli.grad_check", no_valid_pixels)
    assert main(["gradcheck", "--trials", "1"]) == 5
    assert capsys.readouterr().err == "error: no valid pixels\n"


class TestBadFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--scene", "torus", "--out", "x"],
            ["synth", "--size", "128", "--out", "x"],
            ["synth", "--size", "0x32", "--out", "x"],
            ["synth", "--baseline", "1,2,3", "--out", "x"],
            ["synth", "--baseline", "a,b,c,d,e,f", "--out", "x"],
            ["align"],
            ["eval-depth", "--pred", "x"],
            ["no-such-command"],
            ["align", "--pair", "x", "--levels", "0"],
            ["align", "--pair", "x", "--max-iters", "0"],
            ["align", "--pair", "x", "--step", "-1"],
            ["gradcheck", "--trials", "0"],
            ["gradcheck", "--seed", "-1"],
            ["synth", "--seed", "-1", "--out", "x"],
            ["align", "--pair", "x", "--seed", "-1"],
            ["align", "--pair", "x", "--perturb-rot", "nan"],
            ["align", "--pair", "x", "--perturb-trans", "inf"],
            ["synth", "--size", "1x1", "--out", "x"],
            ["synth", "--size", "4x1", "--out", "x"],
            ["synth", "--size", "1x4", "--out", "x"],
            ["eval-ate", "--pred", "x", "--gt", "x", "--times", "x", "--snippet-len", "0"],
            ["eval-ate", "--pred", "x", "--gt", "x", "--times", "x", "--snippet-len", "-1"],
            ["eval-depth", "--pred", "x", "--gt", "x", "--min-depth", "nan"],
            ["eval-depth", "--pred", "x", "--gt", "x", "--min-depth", "5", "--max-depth", "1"],
            ["synth", "--baseline", "nan,0,0,0,0,0", "--out", "x"],
            ["synth", "--baseline", "0,0,0,inf,0,0", "--out", "x"],
            ["synth", "--baseline", "0,0,0,4,0,0", "--out", "x"],
            ["align", "--pair", "x", "--perturb-rot", "180"],
        ],
    )
    def test_returns_2(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

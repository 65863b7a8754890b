"""Tests for depth, image, pose, and report file formats.

Byte-level oracles are written out by hand:

* PFM: "Pf\\n", "W H\\n", "-1.0\\n", then H rows of W little-endian float32,
  bottom row first. A 2x2 map has a fully predictable 12-byte header and
  16-byte payload.
* PGM/PPM: "P5"/"P6", size, maxval 255, then bytes round(v * 255).
* Pose lines: 12 space-separated reals via repr(float), row-major 3x4.

Round trips must be byte-identical (write -> read -> write compares the
files, not the arrays), because downstream reproducibility tests compare
command outputs byte-for-byte. Parse errors name the offending file and
line. Rotation blocks are accepted as-is when orthonormal to 1e-9,
re-projected onto SO(3) when within 1e-6 (text round-trip damage), and
rejected beyond that.
"""

import struct

import numpy as np
import pytest

from egowarp import (
    CameraIntrinsics,
    DepthMap,
    ImageBuffer,
    Pose6DoF,
    SE3Transform,
    read_depth,
    read_image,
    read_intrinsics,
    read_pfm,
    read_pose,
    read_report,
    read_timestamps,
    read_trajectory,
    write_depth,
    write_image,
    write_intrinsics,
    write_pfm,
    write_pose,
    write_report,
    write_timestamps,
    write_trajectory,
)


def _random_poses(rng, n):
    return [
        Pose6DoF(rng.uniform(-0.8, 0.8, 3), rng.normal(size=3)).to_transform()
        for _ in range(n)
    ]


class TestPfm:
    def test_hand_assembled_bytes(self, tmp_path):
        path = tmp_path / "d.pfm"
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        write_pfm(path, data)
        raw = path.read_bytes()
        # Bottom row (3, 4) is stored first.
        payload = struct.pack("<4f", 3.0, 4.0, 1.0, 2.0)
        assert raw == b"Pf\n2 2\n-1.0\n" + payload

    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(23)
        a, b = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(a, rng.uniform(0.1, 50.0, size=(7, 5)))
        write_pfm(b, read_pfm(a))
        assert a.read_bytes() == b.read_bytes()

    def test_values_survive_at_float32(self, tmp_path):
        path = tmp_path / "d.pfm"
        data = np.random.default_rng(2).uniform(0.1, 80.0, size=(4, 6))
        write_pfm(path, data)
        np.testing.assert_array_equal(read_pfm(path), data.astype(np.float32))

    def test_big_endian_scale_readable(self, tmp_path):
        path = tmp_path / "be.pfm"
        payload = struct.pack(">2f", 1.5, 2.5)
        path.write_bytes(b"Pf\n2 1\n1.0\n" + payload)
        np.testing.assert_array_equal(read_pfm(path), [[1.5, 2.5]])

    def test_color_pfm_rejected(self, tmp_path):
        path = tmp_path / "c.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(ValueError, match="color PFM"):
            read_pfm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "x.pfm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="not a PFM"):
            read_pfm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 15)
        with pytest.raises(ValueError, match="truncated"):
            read_pfm(path)

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf"])
    def test_non_finite_scale_rejected(self, tmp_path, scale):
        # A NaN scale is neither < 0 nor > 0; it must not pick an endianness.
        path = tmp_path / "s.pfm"
        path.write_bytes(b"Pf\n2 1\n" + scale + b"\n" + struct.pack("<2f", 1.5, 2.5))
        with pytest.raises(ValueError, match="bad PFM header values"):
            read_pfm(path)

    def test_non_2d_writer_input_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"\(h, w\)"):
            write_pfm(tmp_path / "d.pfm", np.zeros((2, 2, 1)))


class TestDepthFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "depth.pfm"
        depth = DepthMap(np.random.default_rng(3).uniform(0.5, 20.0, size=(6, 4)))
        write_depth(path, depth)
        got = read_depth(path)
        np.testing.assert_array_equal(got.data, depth.data.astype(np.float32))

    def test_non_positive_depth_rejected(self, tmp_path):
        path = tmp_path / "bad.pfm"
        write_pfm(path, np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="must be > 0") as info:
            read_depth(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_depth_rejected_with_the_path(self, tmp_path, bad):
        # A directory of depth files must say which one is bad.
        path = tmp_path / "bad.pfm"
        write_pfm(path, np.array([[1.0, bad]]))
        with pytest.raises(ValueError, match="must be finite") as info:
            read_depth(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("value", [1e300, 1e-50])
    def test_depth_lost_at_float32_rejected_before_writing(self, tmp_path, value):
        # float32 turns 1e300 into inf and 1e-50 into 0; read_depth rejects both.
        path = tmp_path / "depth.pfm"
        depth = DepthMap(np.array([[1.0, value]]))
        with pytest.raises(ValueError, match="as float32") as info:
            write_depth(path, depth)
        assert str(info.value).startswith(f"{path}: ")
        assert not path.exists()


class TestImages:
    def test_pgm_hand_assembled_bytes(self, tmp_path):
        path = tmp_path / "g.pgm"
        img = ImageBuffer.grayscale(np.array([[0.0, 0.5], [1.0, 0.25]]))
        write_image(path, img)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])

    def test_ppm_hand_assembled_bytes(self, tmp_path):
        path = tmp_path / "c.ppm"
        data = np.array([[[0.0, 0.5, 1.0]]])
        write_image(path, ImageBuffer(data))
        assert path.read_bytes() == b"P6\n1 1\n255\n" + bytes([0, 128, 255])

    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        for name, channels in (("a.pgm", 1), ("a.ppm", 3)):
            first = tmp_path / name
            second = tmp_path / ("2" + name)
            write_image(first, ImageBuffer(rng.random((5, 3, channels))))
            write_image(second, read_image(first))
            assert first.read_bytes() == second.read_bytes()

    def test_quantization_error_bounded(self, tmp_path):
        path = tmp_path / "q.pgm"
        rng = np.random.default_rng(5)
        img = ImageBuffer(rng.random((8, 8, 1)))
        write_image(path, img)
        got = read_image(path)
        assert np.max(np.abs(got.data - img.data)) <= 0.5 / 255.0 + 1e-12

    @pytest.mark.parametrize("first", [9, 10, 11, 12, 13, 32])
    def test_whitespace_first_payload_byte(self, tmp_path, first):
        # The payload starts one byte after maxval whatever its value: a
        # leading byte that is also ASCII whitespace is data, not separator.
        for name, channels in (("w.pgm", 1), ("w.ppm", 3)):
            path = tmp_path / name
            data = np.random.default_rng(first).integers(0, 256, (3, 4, channels))
            data.flat[0] = first
            img = ImageBuffer(data / 255.0)
            write_image(path, img)
            np.testing.assert_array_equal(read_image(path).data, img.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError, match="not a binary"):
            read_image(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="maxval 255"):
            read_image(path)

    @pytest.mark.parametrize(
        "header", [b"P5\n-1 -1\n255\n\x00", b"P5\n0 3\n255\n"], ids=["negative", "zero"]
    )
    def test_nonpositive_size_rejected(self, tmp_path, header):
        path = tmp_path / "z.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="bad PGM/PPM header values"):
            read_image(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 11)
        with pytest.raises(ValueError, match="truncated"):
            read_image(path)


class TestTrajectories:
    def test_single_pose_line_layout(self, tmp_path):
        path = tmp_path / "pose.txt"
        write_pose(path, SE3Transform.from_translation([1.0, 2.5, -3.0]))
        expect = (
            "1.0 0.0 0.0 1.0 0.0 1.0 0.0 2.5 0.0 0.0 1.0 -3.0\n"
        )
        assert path.read_text() == expect

    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_trajectory(a, _random_poses(rng, 5))
        write_trajectory(b, read_trajectory(a))
        assert a.read_bytes() == b.read_bytes()

    def test_pose_values_round_trip_exactly(self, tmp_path):
        # repr(float) emits enough digits that parsing is the identity.
        path = tmp_path / "t.txt"
        poses = _random_poses(np.random.default_rng(7), 3)
        write_trajectory(path, poses)
        got = read_trajectory(path)
        for p, q in zip(poses, got):
            np.testing.assert_array_equal(p.t, q.t)
            # Orthonormal to ~1e-16 already, so no repair is triggered.
            np.testing.assert_array_equal(p.r.m, q.r.m)

    def test_wrong_token_count_names_line(self, tmp_path):
        path = tmp_path / "t.txt"
        write_pose(path, SE3Transform.identity())
        path.write_text(path.read_text() + "1.0 2.0\n")
        with pytest.raises(ValueError, match=r"t\.txt:2.*12 numbers"):
            read_trajectory(path)

    def test_non_numeric_entry_names_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 0 0 x 0 1 0 0 0 0 1 0\n")
        with pytest.raises(ValueError, match=r"t\.txt:1.*non-numeric"):
            read_trajectory(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no poses"):
            read_trajectory(path)

    @pytest.mark.parametrize(
        "line, message",
        [("1 nan 0 0 0 1 0 0 0 0 1 0", "rotation matrix must be finite"),
         ("1 0 0 inf 0 1 0 0 0 0 1 0", "translation must be finite")],
    )
    def test_non_finite_entry_names_line(self, tmp_path, line, message):
        path = tmp_path / "t.txt"
        path.write_text(f"1 0 0 0 0 1 0 0 0 0 1 0\n{line}\n")
        with pytest.raises(ValueError, match=message) as info:
            read_trajectory(path)
        assert str(info.value).startswith(f"{path}:2: ")

    def test_multi_pose_file_rejected_as_single_pose(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trajectory(path, _random_poses(np.random.default_rng(8), 2))
        with pytest.raises(ValueError, match="exactly one pose"):
            read_pose(path)


class TestRotationRepair:
    def test_mild_damage_is_projected(self, tmp_path):
        rng = np.random.default_rng(9)
        pose = _random_poses(rng, 1)[0]
        damaged = pose.r.m + rng.uniform(-1e-8, 1e-8, size=(3, 3))
        line = " ".join(
            repr(float(v))
            for v in np.hstack([damaged, pose.t[:, None]]).reshape(-1)
        )
        path = tmp_path / "d.txt"
        path.write_text(line + "\n")
        got = read_pose(path)
        # Projected result is a valid rotation near the damaged block.
        np.testing.assert_allclose(got.r.m.T @ got.r.m, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(got.r.m, pose.r.m, atol=1e-7)

    def test_heavy_damage_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(ValueError, match="not orthonormal"):
            read_pose(path)

    def test_reflection_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("-1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(ValueError, match="determinant"):
            read_pose(path)


class TestTimestamps:
    def test_round_trip_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_timestamps(a, np.array([0.0, 0.103, 0.21, 5.5]))
        write_timestamps(b, read_timestamps(a))
        assert a.read_bytes() == b.read_bytes()

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0.0\noops\n")
        with pytest.raises(ValueError, match=r"t\.txt:2"):
            read_timestamps(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_names_line(self, tmp_path, bad):
        path = tmp_path / "t.txt"
        path.write_text(f"0.0\n\n{bad}\n")
        with pytest.raises(ValueError, match="must be finite") as info:
            read_timestamps(path)
        assert str(info.value).startswith(f"{path}:3: ")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="no timestamps"):
            read_timestamps(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match="must be finite") as info:
            write_timestamps(path, np.array([0.0, bad]))
        assert str(info.value).startswith(f"{path}: ")
        assert not path.exists()


class TestIntrinsics:
    def test_layout_and_round_trip(self, tmp_path):
        path = tmp_path / "k.txt"
        write_intrinsics(path, CameraIntrinsics(128.0, 128.0, 63.5, 47.5))
        assert path.read_text() == "128.0 128.0 63.5 47.5\n"
        k = read_intrinsics(path)
        assert (k.fx, k.fy, k.cx, k.cy) == (128.0, 128.0, 63.5, 47.5)

    @pytest.mark.parametrize("line", ["nan 128 63.5 47.5\n", "128 128 inf 47.5\n"])
    def test_non_finite_rejected_with_the_path(self, tmp_path, line):
        path = tmp_path / "k.txt"
        path.write_text(line)
        with pytest.raises(ValueError, match="must be finite") as info:
            read_intrinsics(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="4 numbers"):
            read_intrinsics(path)


class TestReports:
    def test_layout_round_trip_and_types(self, tmp_path):
        path = tmp_path / "r.txt"
        write_report(
            path,
            {"converged": True, "iters": 42, "final_loss": 0.125, "mode": "pose_only"},
        )
        assert path.read_text() == (
            "converged=true\niters=42\nfinal_loss=0.125\nmode=pose_only\n"
        )
        got = read_report(path)
        assert got == {
            "converged": "true",
            "iters": "42",
            "final_loss": "0.125",
            "mode": "pose_only",
        }

    def test_missing_equals_names_line(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("a=1\nbroken\n")
        with pytest.raises(ValueError, match=r"r\.txt:2"):
            read_report(path)

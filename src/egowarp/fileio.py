"""File formats used by the command-line tools.

  - PFM, grayscale only: header "Pf", "<w> <h>", scale line (sign encodes
    endianness, we write "-1.0" = little-endian float32), rows bottom-first.
  - Binary PPM (P6) / PGM (P5), maxval 255, quantization round(v * 255).
  - Trajectory text: one pose per line, 12 reals, row-major 3x4 [R|t],
    camera-to-world. Timestamps: one real (seconds) per line.
  - Reports and intrinsics: plain text, whitespace/key=value.

All real numbers are written with repr(float), so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .camera import CameraIntrinsics
from .exceptions import _check_finite
from .se3 import _ORTHO_TOL, Rotation, SE3Transform
from .warp import DepthMap, ImageBuffer

# Rotation blocks parsed from text may be off orthonormal by quantization;
# up to this tolerance they are projected to the nearest rotation (SVD),
# beyond it the file is rejected.
_ROTATION_REPAIR_TOL = 1e-6


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_binary(
    path: str | Path, magic: bytes, shape: tuple, value: str, payload: bytes
) -> None:
    """Write what _read_binary reads: the header lines magic, "w h" of the
    (h, w) shape and value, then the payload."""
    h, w = shape
    with open(path, "wb") as f:
        f.write(magic + f"\n{w} {h}\n{value}\n".encode("ascii"))
        f.write(payload)


def write_pfm(path: str | Path, data: np.ndarray) -> None:
    """Write an (h, w) array as a grayscale little-endian PFM."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 2:
        raise ValueError(f"PFM writer expects (h, w) data, got {data.shape}")
    _write_binary(path, b"Pf", data.shape, "-1.0", data[::-1].astype("<f4").tobytes())


# Up to four leading whitespace-separated header tokens (fewer if the file
# ends first); a bytes pattern's \s is exactly bytes.isspace's set. A binary
# payload starts one byte past the match, whatever its own first byte is.
_HEADER = re.compile(rb"\s*(\S+)" + rb"(?:\s+(\S+))?" * 3)


def _read_binary(path: str | Path, pixel_bytes: dict[bytes, int], name: str, token_type):
    """(magic, value, data) of a binary PFM or PGM/PPM file: the header is a
    magic (a key of pixel_bytes), w, h and one token_type value; data is the
    payload from one byte after it, an (h, w, pixel_bytes[magic]) uint8 array.
    """
    with open(path, "rb") as f:
        raw = f.read()
    m = _HEADER.match(raw)
    tokens = [t for t in m.groups() if t is not None] if m else []
    if not tokens or tokens[0] not in pixel_bytes:
        raise ValueError(f"{path}: not a {name} file, or not a binary one")
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated {name} header")
    try:
        w, h, value = int(tokens[1]), int(tokens[2]), token_type(tokens[3])
    except ValueError as exc:
        raise ValueError(f"{path}: bad {name} header") from exc
    if w < 1 or h < 1:
        raise ValueError(f"{path}: bad {name} header values")
    size = w * h * pixel_bytes[tokens[0]]
    payload = raw[m.end() + 1 : m.end() + 1 + size]
    if len(payload) != size:
        raise ValueError(f"{path}: {name} payload truncated")
    return tokens[0], value, np.frombuffer(payload, dtype=np.uint8).reshape(h, w, -1)


def read_pfm(path: str | Path) -> np.ndarray:
    """Read a grayscale PFM into an (h, w) float64 array."""
    magic, scale, data = _read_binary(path, {b"Pf": 4, b"PF": 12}, "PFM", float)
    if magic == b"PF":
        raise ValueError(f"{path}: color PFM is not supported")
    if scale == 0 or not np.isfinite(scale):
        raise ValueError(f"{path}: bad PFM header values")
    return data.view("<f4" if scale < 0 else ">f4")[::-1, :, 0].astype(float)


def write_image(path: str | Path, img: ImageBuffer) -> None:
    """Write PGM (P5) for 1-channel or PPM (P6) for 3-channel images."""
    quant = np.rint(np.clip(img.data, 0.0, 1.0) * 255.0).astype(np.uint8)
    magic = b"P5" if img.channels == 1 else b"P6"
    _write_binary(path, magic, quant.shape[:2], "255", quant.tobytes())


def read_image(path: str | Path) -> ImageBuffer:
    """Read a binary PGM/PPM written by write_image (maxval 255)."""
    _, maxval, data = _read_binary(path, {b"P5": 1, b"P6": 3}, "PGM/PPM", int)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    return ImageBuffer(data.astype(float) / 255.0)


def _text(path: str | Path) -> str:
    """The ASCII text of a file; a non-ASCII byte raises, naming the file."""
    try:
        return Path(path).read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: non-ASCII byte at offset {exc.start}") from exc


def _lines(path: str | Path):
    """Yield (line number, line) for each non-blank line of a text file."""
    for lineno, line in enumerate(_text(path).splitlines(), start=1):
        if line.strip():
            yield lineno, line


def _floats(tokens: list[str], count: int, what: str, where: str) -> list[float]:
    """The numbers of one record of `count` tokens; a wrong count or a
    non-number raises, naming where (the path, or path:lineno)."""
    if len(tokens) != count:
        numbers = "number" if count == 1 else "numbers"
        raise ValueError(f"{where}: expected {count} {numbers} per {what}, got {len(tokens)}")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"{where}: non-numeric entry in {what}") from exc


def _write_rows(path: str | Path, rows) -> None:
    """One line of repr-formatted numbers per row."""
    text = "".join(" ".join(_fmt(v) for v in row) + "\n" for row in rows)
    Path(path).write_text(text, encoding="ascii")


def _pose_from_numbers(vals: list[float], where: str) -> SE3Transform:
    m = np.array(vals, dtype=float).reshape(3, 4)
    r = m[:, :3]
    err = float(np.max(np.abs(r.T @ r - np.eye(3))))
    if err > _ROTATION_REPAIR_TOL:
        raise ValueError(f"{where}: rotation block is not orthonormal (err {err:.2e})")
    if err > _ORTHO_TOL:
        u, _, vt = np.linalg.svd(r)
        r = u @ vt
        if np.linalg.det(r) < 0:
            raise ValueError(f"{where}: rotation block has negative determinant")
    try:  # a NaN passes the orthonormality test above
        return SE3Transform(Rotation(r), m[:, 3])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def write_trajectory(path: str | Path, poses: list[SE3Transform]) -> None:
    """One camera-to-world pose per line, 12 reals, row-major 3x4; no pose
    raises before the file is made, as read_trajectory rejects that file."""
    if len(poses) == 0:
        raise ValueError(f"{path}: no poses to write")
    _write_rows(path, (p.matrix()[:3].ravel() for p in poses))


def read_trajectory(path: str | Path) -> list[SE3Transform]:
    poses = []
    for lineno, line in _lines(path):
        where = f"{path}:{lineno}"
        poses.append(_pose_from_numbers(_floats(line.split(), 12, "pose line", where), where))
    if not poses:
        raise ValueError(f"{path}: no poses found")
    return poses


def write_pose(path: str | Path, pose: SE3Transform) -> None:
    write_trajectory(path, [pose])


def read_pose(path: str | Path) -> SE3Transform:
    poses = read_trajectory(path)
    if len(poses) != 1:
        raise ValueError(f"{path}: expected exactly one pose, found {len(poses)}")
    return poses[0]


def write_timestamps(path: str | Path, times: np.ndarray) -> None:
    """One time per line; no time, a non-finite or bool one or an array that
    is not 1-d raises before the file is made."""
    if np.asarray(times).dtype == np.bool_:
        raise ValueError(f"{path}: timestamps must be a number, got a bool array")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"{path}: timestamps must be non-empty and 1-d, got shape {times.shape}")
    _check_finite(times, f"{path}: timestamps")
    _write_rows(path, times[:, None])


def read_timestamps(path: str | Path) -> np.ndarray:
    out = []
    for lineno, line in _lines(path):
        where = f"{path}:{lineno}"
        (t,) = _floats(line.split(), 1, "timestamp line", where)
        _check_finite(t, f"{where}: timestamp")
        out.append(t)
    if not out:
        raise ValueError(f"{path}: no timestamps found")
    return np.array(out)


def write_intrinsics(path: str | Path, k: CameraIntrinsics) -> None:
    """Single line: fx fy cx cy."""
    _write_rows(path, [(k.fx, k.fy, k.cx, k.cy)])


def read_intrinsics(path: str | Path) -> CameraIntrinsics:
    tokens = _text(path).split()
    fx, fy, cx, cy = _floats(tokens, 4, "intrinsics record (fx fy cx cy)", str(path))
    try:
        return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_depth(path: str | Path, depth: DepthMap) -> None:
    """Write a float32 PFM; a depth that float32 makes inf or 0 raises first."""
    with np.errstate(over="ignore"):
        data = depth.data.astype(np.float32)
    if not np.all((data > 0.0) & np.isfinite(data)):
        raise ValueError(f"{path}: depth values must be finite and > 0 as float32")
    write_pfm(path, data)


def read_depth(path: str | Path) -> DepthMap:
    """Read a PFM as a DepthMap; a rejected value names the file."""
    data = read_pfm(path)
    try:
        return DepthMap(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_report(path: str | Path, entries: dict[str, object]) -> None:
    """key=value lines in insertion order; floats via repr."""
    lines = []
    for key, val in entries.items():
        if isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, float):
            text = _fmt(val)
        else:
            text = str(val)
        lines.append(f"{key}={text}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_report(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in _lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        out[key] = val
    return out

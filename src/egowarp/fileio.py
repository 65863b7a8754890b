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

from pathlib import Path

import numpy as np

from .camera import CameraIntrinsics
from .se3 import Rotation, SE3Transform
from .warp import DepthMap, ImageBuffer

# Rotation blocks parsed from text may be off orthonormal by quantization;
# up to this tolerance they are projected to the nearest rotation (SVD),
# beyond it the file is rejected.
_ROTATION_REPAIR_TOL = 1e-6


def _fmt(x: float) -> str:
    return repr(float(x))


def write_pfm(path: str | Path, data: np.ndarray) -> None:
    """Write an (h, w) array as a grayscale little-endian PFM."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 2:
        raise ValueError(f"PFM writer expects (h, w) data, got {data.shape}")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(data[::-1].astype("<f4").tobytes())


def _header(raw: bytes, count: int) -> tuple[list[bytes], int]:
    """Up to `count` leading whitespace-separated tokens of raw (fewer if it
    ends first) and the offset one byte past the last: where a binary
    payload starts, whatever its own first byte is."""
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            break
        tokens.append(raw[start:pos])
    return tokens, pos + 1


def read_pfm(path: str | Path) -> np.ndarray:
    """Read a grayscale PFM into an (h, w) float64 array."""
    with open(path, "rb") as f:
        raw = f.read()
    tokens, pos = _header(raw, 4)
    if tokens[:1] == [b"PF"]:
        raise ValueError(f"{path}: color PFM is not supported")
    if tokens and tokens[0] != b"Pf":
        raise ValueError(f"{path}: not a PFM file (magic {tokens[0]!r})")
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated PFM header")
    try:
        w, h, scale = int(tokens[1]), int(tokens[2]), float(tokens[3])
    except ValueError as exc:
        raise ValueError(f"{path}: bad PFM header") from exc
    if w < 1 or h < 1 or scale == 0 or not np.isfinite(scale):
        raise ValueError(f"{path}: bad PFM header values")
    expected = w * h * 4
    pixels = raw[pos : pos + expected]
    if len(pixels) != expected:
        raise ValueError(f"{path}: PFM payload truncated")
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(pixels, dtype=dtype).reshape(h, w)
    return data[::-1].astype(float)


def write_image(path: str | Path, img: ImageBuffer) -> None:
    """Write PGM (P5) for 1-channel or PPM (P6) for 3-channel images."""
    quant = np.rint(np.clip(img.data, 0.0, 1.0) * 255.0).astype(np.uint8)
    magic = b"P5" if img.channels == 1 else b"P6"
    payload = quant[:, :, 0] if img.channels == 1 else quant
    with open(path, "wb") as f:
        f.write(magic + b"\n")
        f.write(f"{img.width} {img.height}\n".encode("ascii"))
        f.write(b"255\n")
        f.write(payload.tobytes())


def read_image(path: str | Path) -> ImageBuffer:
    """Read a binary PGM/PPM written by write_image (maxval 255)."""
    with open(path, "rb") as f:
        raw = f.read()
    tokens, pos = _header(raw, 4)
    if len(tokens) < 4 or tokens[0] not in (b"P5", b"P6"):
        raise ValueError(f"{path}: not a binary PGM/PPM file")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ValueError(f"{path}: bad PGM/PPM header") from exc
    if w < 1 or h < 1:
        raise ValueError(f"{path}: bad PGM/PPM header values")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    channels = 1 if tokens[0] == b"P5" else 3
    expected = w * h * channels
    pixels = raw[pos : pos + expected]
    if len(pixels) != expected:
        raise ValueError(f"{path}: image payload truncated")
    data = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, channels)
    return ImageBuffer(data.astype(float) / 255.0)


def _lines(path: str | Path):
    """Yield (line number, line) for each non-blank line of a text file."""
    text = Path(path).read_text(encoding="ascii")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            yield lineno, line


def _pose_from_numbers(vals: list[float], where: str) -> SE3Transform:
    m = np.array(vals, dtype=float).reshape(3, 4)
    r = m[:, :3]
    err = float(np.max(np.abs(r.T @ r - np.eye(3))))
    if err > _ROTATION_REPAIR_TOL:
        raise ValueError(f"{where}: rotation block is not orthonormal (err {err:.2e})")
    if err > 1e-9:
        u, _, vt = np.linalg.svd(r)
        r = u @ vt
        if np.linalg.det(r) < 0:
            raise ValueError(f"{where}: rotation block has negative determinant")
    try:  # a NaN passes the orthonormality test above
        return SE3Transform(Rotation(r), m[:, 3])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def write_trajectory(path: str | Path, poses: list[SE3Transform]) -> None:
    """One camera-to-world pose per line, 12 reals, row-major 3x4."""
    lines = []
    for p in poses:
        m = p.matrix()[:3, :]
        lines.append(" ".join(_fmt(v) for v in m.reshape(-1)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_trajectory(path: str | Path) -> list[SE3Transform]:
    poses = []
    for lineno, line in _lines(path):
        tokens = line.split()
        if len(tokens) != 12:
            raise ValueError(
                f"{path}:{lineno}: expected 12 numbers per pose line, got {len(tokens)}"
            )
        try:
            vals = [float(t) for t in tokens]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric pose entry") from exc
        poses.append(_pose_from_numbers(vals, f"{path}:{lineno}"))
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
    """One time per line; a non-finite one raises before the file is made."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"{path}: timestamps must be finite")
    Path(path).write_text(
        "\n".join(_fmt(t) for t in times) + "\n", encoding="ascii"
    )


def read_timestamps(path: str | Path) -> np.ndarray:
    out = []
    for lineno, line in _lines(path):
        try:
            t = float(line.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric timestamp") from exc
        if not np.isfinite(t):
            raise ValueError(f"{path}:{lineno}: timestamp must be finite, got {t}")
        out.append(t)
    if not out:
        raise ValueError(f"{path}: no timestamps found")
    return np.array(out)


def write_intrinsics(path: str | Path, k: CameraIntrinsics) -> None:
    """Single line: fx fy cx cy."""
    Path(path).write_text(
        " ".join(_fmt(v) for v in (k.fx, k.fy, k.cx, k.cy)) + "\n",
        encoding="ascii",
    )


def read_intrinsics(path: str | Path) -> CameraIntrinsics:
    tokens = Path(path).read_text(encoding="ascii").split()
    if len(tokens) != 4:
        raise ValueError(f"{path}: expected 4 numbers (fx fy cx cy)")
    try:
        fx, fy, cx, cy = (float(t) for t in tokens)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric intrinsics") from exc
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

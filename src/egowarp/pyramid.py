"""2x area-average pyramids, matching intrinsic rescaling and the 2x upsample.

Used by the multi-scale smoothness loss and the coarse-to-fine aligner. Odd
trailing rows/columns are cropped before averaging. Every level puts pixel
centres at integers, so one level down maps u to u' = (u + 0.5) / 2 - 0.5:
downsample2x averages the 2x2 block around u', downscale_intrinsics moves
the principal point by that map and upsample2x inverts it, reading through
the warp's bilinear kernel.
"""

from __future__ import annotations

import numpy as np

from .camera import CameraIntrinsics
from .exceptions import _check_count
from .warp import DepthMap, ImageBuffer, _resample


def downsample2x(arr: np.ndarray) -> np.ndarray:
    """Average 2x2 blocks of an (h, w) or (h, w, c) array."""
    arr = np.asarray(arr, dtype=float)
    h, w = arr.shape[0] // 2 * 2, arr.shape[1] // 2 * 2
    if h < 2 or w < 2:
        raise ValueError(f"array {arr.shape} too small to downsample")
    a = arr[:h, :w]
    return 0.25 * (a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2])


def downscale_intrinsics(k: CameraIntrinsics) -> CameraIntrinsics:
    """Intrinsics after one 2x downsample.

    Pixel centers sit at integers, so the coordinate map is
    u' = (u + 0.5) / 2 - 0.5, giving f' = f/2 and c' = (c + 0.5)/2 - 0.5.
    """
    return CameraIntrinsics(
        fx=k.fx / 2.0,
        fy=k.fy / 2.0,
        cx=(k.cx + 0.5) / 2.0 - 0.5,
        cy=(k.cy + 0.5) / 2.0 - 0.5,
    )


def _pyramid(first, levels: int, down) -> list:
    """Fine-to-coarse list [first, down(first), ...] of `levels` entries."""
    _check_count(levels, "levels", 1)
    out = [first]
    for _ in range(levels - 1):
        out.append(down(out[-1]))
    return out


def image_pyramid(img: ImageBuffer, levels: int) -> list[ImageBuffer]:
    """Fine-to-coarse list of `levels` images (index 0 = full resolution)."""
    return _pyramid(img, levels, lambda im: ImageBuffer(np.clip(downsample2x(im.data), 0, 1)))


def depth_pyramid(depth: DepthMap, levels: int) -> list[DepthMap]:
    """Fine-to-coarse list of `levels` depth maps."""
    return _pyramid(depth, levels, lambda d: DepthMap(downsample2x(d.data)))


def intrinsics_pyramid(k: CameraIntrinsics, levels: int) -> list[CameraIntrinsics]:
    """Fine-to-coarse list of `levels` intrinsics, matching image_pyramid."""
    return _pyramid(k, levels, downscale_intrinsics)


def upsample2x(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear 2x upsample of an (h, w) or (h, w, c) array to (out_h, out_w).

    The inverse of downscale_intrinsics: output pixel (i, j) reads the input
    at ((j + 0.5) / 2 - 0.5, (i + 0.5) / 2 - 0.5), clamped to the input's
    extent. The factor is 2 whatever the sizes, so a trailing row or column
    that downsample2x cropped reads the input's last one.
    """
    u = (np.arange(out_w) + 0.5) / 2.0 - 0.5
    v = (np.arange(out_h) + 0.5) / 2.0 - 0.5
    return _resample(arr, u, v)

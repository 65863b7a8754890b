"""Error types shared across the toolkit.

Everything derives from ValueError so callers that do not care about the
distinction can catch one thing. Plain ValueError is raised directly for
generic invalid arguments: empty lists, bool, string, bytes or complex,
misshapen or non-finite inputs (_check_finite), too small or non-integer
counts (_check_count), and record fields of the wrong type (_check_type).
"""

import numbers

import numpy as np


def _check_count(value, name: str, low: int) -> None:
    """Raise ValueError naming the argument unless value is an int (no bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def _check_type(value, cls: type, name: str) -> None:
    """Raise ValueError naming the field unless value is a cls."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _holds_bool(value) -> bool:
    """True if value is a bool (Python, numpy or a bool-dtype array) or a
    tuple or list holding one at any depth; an array is judged by its dtype
    alone."""
    if isinstance(value, (tuple, list)):
        return any(_holds_bool(x) for x in value)
    return isinstance(value, bool) or getattr(value, "dtype", None) == np.bool_


def _check_finite(value, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """value as a float array; raise ValueError naming the argument if it
    holds a bool (_holds_bool; _check_count rejects bools too), a string,
    bytes or a complex number, lacks `shape` (when given) or has a
    non-finite entry. A rejected scalar is quoted in the message."""
    if _holds_bool(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    arr = np.asarray(value)
    if arr.dtype.kind in "USc":  # float() would parse a string or drop an imaginary part
        got = f"a {arr.dtype} array" if isinstance(value, np.ndarray) else repr(value)
        raise ValueError(f"{name} must be real, got {got}")
    arr = arr.astype(float, copy=False)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        got = f", got {value!r}" if arr.ndim == 0 else ""
        raise ValueError(f"{name} must be finite{got}")
    return arr


class AmbiguousLogError(ValueError):
    """Rotation angle within 1e-6 of pi; the log map has two preimages."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but has no usable content (e.g. |V| = 0)."""


class AssociationError(ValueError):
    """Trajectory timestamps could not be matched within tolerance."""


class DegenerateSnippetError(DegenerateInputError):
    """Snippet has zero predicted motion; the alignment scale is undefined."""

"""Error types shared across the toolkit.

Everything derives from ValueError so callers that do not care about the
distinction can catch one thing. Plain ValueError is raised directly for
generic invalid arguments (non-finite inputs, bad shapes, empty lists, and
through _check_count a count that is not an integer or is too small).
"""

import numbers


def _check_count(value, name: str, low: int) -> None:
    """Raise ValueError naming the argument unless value is an int (no bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


class AmbiguousLogError(ValueError):
    """Rotation angle within 1e-6 of pi; the log map has two preimages."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but has no usable content (e.g. |V| = 0)."""


class AssociationError(ValueError):
    """Trajectory timestamps could not be matched within tolerance."""


class DegenerateSnippetError(DegenerateInputError):
    """Snippet has zero predicted motion; the alignment scale is undefined."""

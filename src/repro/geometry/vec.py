"""Small vector helpers shared across the geometry package.

These are thin, explicit wrappers over numpy so callers never need to
remember axis conventions.  All functions accept array-likes and return
``numpy.ndarray`` of dtype float64.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import GeometryError

#: Anything :func:`numpy.asarray` turns into a 3-D point: a float
#: sequence or an already-built array.  Shared annotation for every
#: ``point``/``viewpoint`` parameter across the repo.
PointLike = Union[Sequence[float], np.ndarray]


def as_vec3(value: PointLike) -> np.ndarray:
    """Coerce ``value`` to a float64 vector of shape ``(3,)``.

    Raises :class:`GeometryError` if the shape is wrong or any component is
    not finite.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"non-finite vector component in {arr!r}")
    return arr


def normalize(vec: PointLike) -> np.ndarray:
    """Return ``vec`` scaled to unit length.

    Raises :class:`GeometryError` on a zero-length vector.
    """
    arr = as_vec3(vec)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise GeometryError("cannot normalize a zero-length vector")
    return arr / norm


def normalize_rows(mat: np.ndarray) -> np.ndarray:
    """Normalize every row of an ``(n, 3)`` array; zero rows raise."""
    arr = np.asarray(mat, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0.0):
        raise GeometryError("cannot normalize zero-length rows")
    return arr / norms[:, None]

"""Error hierarchy and vector helper coverage."""

import numpy as np
import pytest

from repro import errors
from repro.geometry.vec import as_vec3, normalize, normalize_rows


# -- error hierarchy ----------------------------------------------------------

def test_all_errors_derive_from_base():
    subclasses = [
        errors.GeometryError, errors.StorageError,
        errors.PageNotFoundError, errors.BufferPoolError,
        errors.SerializationError, errors.RTreeError,
        errors.VisibilityError, errors.HDoVError, errors.SchemeError,
        errors.WalkthroughError, errors.ExperimentError,
    ]
    for cls in subclasses:
        assert issubclass(cls, errors.ReproError)


def test_storage_specializations():
    assert issubclass(errors.PageNotFoundError, errors.StorageError)
    assert issubclass(errors.BufferPoolError, errors.StorageError)
    assert issubclass(errors.SerializationError, errors.StorageError)
    assert issubclass(errors.SchemeError, errors.HDoVError)


def test_one_except_catches_everything():
    with pytest.raises(errors.ReproError):
        raise errors.SchemeError("x")


# -- vec helpers -----------------------------------------------------------

def test_as_vec3_coerces_and_validates():
    vec = as_vec3([1, 2, 3])
    assert vec.dtype == np.float64
    assert vec.shape == (3,)
    with pytest.raises(errors.GeometryError):
        as_vec3([1, 2])
    with pytest.raises(errors.GeometryError):
        as_vec3([1, 2, np.nan])


def test_normalize():
    assert np.allclose(normalize((0, 3, 4)), (0, 0.6, 0.8))
    with pytest.raises(errors.GeometryError):
        normalize((0, 0, 0))


def test_normalize_rows():
    rows = normalize_rows(np.array([[2.0, 0, 0], [0, 0, 5.0]]))
    assert np.allclose(rows, [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(errors.GeometryError):
        normalize_rows(np.array([[0.0, 0, 0]]))


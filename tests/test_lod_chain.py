"""LoD chains and the eq. 5/6 selection layer."""

import pytest
from hypothesis import given, strategies as st

from repro.constants import MAXDOV
from repro.errors import GeometryError, HDoVError
from repro.geometry.primitives import icosphere
from repro.lod.selection import (internal_lod_fraction, leaf_lod_fraction,
                                 select_internal_lod, select_leaf_lod)
from repro.simplify.lod_chain import LODChain, build_lod_chain


@pytest.fixture(scope="module")
def chain():
    return build_lod_chain(icosphere(subdivisions=3), num_levels=3,
                           reduction=0.4)


def test_chain_is_monotone(chain):
    polys = chain.polygons()
    assert polys == sorted(polys, reverse=True)
    assert chain.finest.num_faces == 20 * 4 ** 3


def test_chain_reduction_achieved(chain):
    assert chain.coarsest.num_faces <= chain.finest.num_faces * 0.4


def test_chain_wrong_order_rejected():
    fine = icosphere(subdivisions=2)
    coarse = icosphere(subdivisions=1)
    with pytest.raises(GeometryError):
        LODChain([coarse, fine])
    with pytest.raises(GeometryError):
        LODChain([])


def test_interpolated_polygons_endpoints(chain):
    assert chain.interpolated_polygons(1.0) == chain.finest.num_faces
    assert chain.interpolated_polygons(0.0) == chain.coarsest.num_faces


def test_interpolated_polygons_midpoint(chain):
    mid = chain.interpolated_polygons(0.5)
    expected = (chain.finest.num_faces + chain.coarsest.num_faces) / 2
    assert mid == pytest.approx(expected, abs=1)


def test_byte_sizes(chain):
    from repro.constants import BYTES_PER_POLYGON
    assert chain.byte_sizes() == [m.num_faces * BYTES_PER_POLYGON
                                  for m in chain.levels]


def test_build_chain_invalid_params():
    sphere = icosphere(subdivisions=1)
    with pytest.raises(GeometryError):
        build_lod_chain(sphere, num_levels=0)
    with pytest.raises(GeometryError):
        build_lod_chain(sphere, reduction=1.5)


# -- equation 6 (leaf LoD) ----------------------------------------------------

def test_leaf_fraction_saturates_at_maxdov():
    assert leaf_lod_fraction(MAXDOV) == 1.0
    assert leaf_lod_fraction(0.9) == 1.0
    assert leaf_lod_fraction(MAXDOV / 2) == pytest.approx(0.5)
    assert leaf_lod_fraction(0.0) == 0.0


def test_leaf_fraction_negative_rejected():
    with pytest.raises(HDoVError):
        leaf_lod_fraction(-0.1)


def test_select_leaf_lod_monotone_in_dov(chain):
    polys = [select_leaf_lod(chain, d)
             for d in (0.0, 0.1, 0.25, 0.5, 0.9)]
    assert polys == sorted(polys)


# -- equation 5 (internal LoD) --------------------------------------------

def test_internal_fraction_at_threshold_is_full():
    assert internal_lod_fraction(0.004, 0.004) == 1.0
    assert internal_lod_fraction(0.002, 0.004) == pytest.approx(0.5)


def test_internal_fraction_domain():
    with pytest.raises(HDoVError):
        internal_lod_fraction(0.005, 0.004)   # DoV above eta
    with pytest.raises(HDoVError):
        internal_lod_fraction(0.0, 0.004)     # hidden entry
    with pytest.raises(HDoVError):
        internal_lod_fraction(0.001, 0.0)     # eta zero


def test_select_internal_lod_monotone(chain):
    eta = 0.01
    polys = [select_internal_lod(chain, d, eta)
             for d in (0.001, 0.004, 0.008, 0.01)]
    assert polys == sorted(polys)


@given(dov=st.floats(min_value=1e-6, max_value=1.0))
def test_leaf_fraction_in_unit_range(dov):
    assert 0.0 < leaf_lod_fraction(dov) <= 1.0


@given(eta=st.floats(min_value=1e-6, max_value=1.0), t=st.floats(0.001, 1.0))
def test_internal_fraction_in_unit_range(eta, t):
    dov = eta * t
    assert 0.0 < internal_lod_fraction(dov, eta) <= 1.0

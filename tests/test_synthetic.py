"""Synthetic rotationally symmetric manifolds: solve then extract."""

import numpy as np
import pytest

import radialgeo as rg


def generating_curvature():
    return rg.RadialCurvature.from_spline(
        [0.0, 0.9, 1.8, 2.7], [-1.1, -0.25, -0.7, -0.2],
        tail=rg.PowerLawTail(-0.2, 3.0),
    )


def test_round_trip_exact_path():
    k = generating_curvature()
    mfd = rg.RotSymManifold.from_curvature(3, k, t_max=12.0)
    assert mfd.curvature is k
    ts = np.linspace(0.0, 10.0, 2001)
    err = np.max(np.abs(mfd.radial_sectional(ts) - k(ts)))
    assert err <= 1e-6


def test_json_round_trip():
    k = generating_curvature()
    mfd = rg.RotSymManifold.from_curvature(3, k, t_max=12.0)
    blob = mfd.to_json()
    back = rg.RotSymManifold.from_json(blob)
    assert back.dimension == 3
    ts = np.linspace(0.0, 11.0, 401)
    assert np.max(np.abs(back.warping.m(ts) - mfd.warping.m(ts))) <= 1e-11


def test_dimension_validation():
    with pytest.raises(rg.DomainError):
        rg.RotSymManifold.from_curvature(1, rg.RadialCurvature.zero(), t_max=5.0)

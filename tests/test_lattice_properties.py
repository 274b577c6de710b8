"""Hypothesis properties of spectral lattices: measure conservation and
invariance under rotations about broadside."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holomimo.lattice as lat
from holomimo import (
    AngularPowerSpectrum,
    VmfComponent,
    build_lattice,
    build_variance_table,
    concentration_from_spread,
    load_cdl_table,
    rotate_spectrum,
    spectra_from_cdl,
)
from holomimo.config import bundled_cdl_path
from holomimo.errors import DegenerateSpectrum

ISO = AngularPowerSpectrum.isotropic()
CDL_ROWS = load_cdl_table(bundled_cdl_path())[0]

apertures = st.floats(0.5, 4.0)
azimuths = st.floats(-math.pi, math.pi)
# Spreads the adaptive rule resolves on every aperture: below about 3 degrees
# a cluster can fall between all nodes of a wide cell
# (test_narrow_cluster_on_a_wide_cell_keeps_its_mass).
spreads = st.floats(5.0, 20.0)


@settings(max_examples=30, deadline=None)
@given(aperture_x=apertures, aperture_y=apertures)
def test_isotropic_cells_conserve_the_hemisphere(aperture_x, aperture_y):
    lattice = build_lattice(aperture_x, aperture_y, ISO)
    assert lattice.total_integral == pytest.approx(2.0 * math.pi, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(aperture_x=apertures, aperture_y=apertures, offset=azimuths)
def test_isotropic_lattice_is_unchanged_by_rotation(aperture_x, aperture_y, offset):
    base = build_lattice(aperture_x, aperture_y, ISO)
    rotated = build_lattice(aperture_x, aperture_y, rotate_spectrum(ISO, offset))
    assert rotated.indices == base.indices
    np.testing.assert_array_equal(rotated.marginal_integrals, base.marginal_integrals)


def cdl_end(asd_deg, asa_deg, end):
    return spectra_from_cdl(CDL_ROWS, asd_deg, asa_deg)[end]


def vmf_mixture(parameters):
    total = sum(weight for weight, *_ in parameters)
    return AngularPowerSpectrum.mixture(
        VmfComponent(
            weight / total, azimuth, elevation, concentration_from_spread(spread)
        )
        for weight, azimuth, elevation, spread in parameters
    )


mixtures = st.one_of(
    st.builds(cdl_end, spreads, spreads, st.sampled_from([0, 1])),
    st.lists(
        st.tuples(st.floats(0.1, 1.0), azimuths, st.floats(0.0, math.pi), spreads),
        min_size=1,
        max_size=3,
    ).map(vmf_mixture),
)


@settings(max_examples=30, deadline=None)
@given(spectrum=mixtures, aperture_x=apertures, aperture_y=apertures, offset=azimuths)
def test_mixture_total_is_invariant_under_azimuth_rotation(
    spectrum, aperture_x, aperture_y, offset
):
    # A rotation about broadside moves power between cells but keeps it on
    # the upper hemisphere.  The absolute slack is the rule's own floor: each
    # converged tile is resolved to 1e-15, and a lattice has at most a few
    # hundred of them.
    base = build_lattice(aperture_x, aperture_y, spectrum).total_integral
    rotated = build_lattice(
        aperture_x, aperture_y, rotate_spectrum(spectrum, offset)
    ).total_integral
    assert rotated == pytest.approx(base, rel=1e-6, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(spectrum=mixtures, offset=azimuths)
def test_a_1_wavelength_end_normalizes_to_the_broadside_indicator(spectrum, offset):
    # Only the broadside cell of a 1-wavelength aperture meets the unit disk,
    # so whatever the rotation, the variance table puts all of that end's
    # variance on (0, 0); the sweep gives every user the indicator there.
    rotated = rotate_spectrum(spectrum, offset)
    ue = build_lattice(1.0, 1.0, rotated)
    bs = build_lattice(1.5, 1.5, ISO)
    if lat._hemisphere_maximum(rotated) == 0.0:
        # Every term underflows at its hemisphere peak (exp(-1557) for one
        # 5-degree cluster at elevation 3.0), so no cell keeps any mass.
        with pytest.raises(DegenerateSpectrum):
            build_variance_table(bs, ue)
        return
    variances = build_variance_table(bs, ue)
    indicator = [float(index == (0, 0)) for index in ue.indices]
    np.testing.assert_allclose(
        variances.sum(axis=1), indicator, rtol=0.0, atol=1e-15
    )


# Clusters behind the aperture, narrow enough that their tail reaching the
# hemisphere can underflow.
behind = st.lists(
    st.tuples(st.floats(0.1, 1.0), azimuths, st.floats(2.3, math.pi),
              st.floats(5.0, 7.0)),
    min_size=1,
    max_size=3,
).map(vmf_mixture)


@settings(max_examples=60, deadline=None)
@given(spectrum=st.one_of(mixtures, behind), offset=azimuths)
def test_the_indicator_table_is_the_quadrature_table_at_1_wavelength(spectrum, offset):
    # The sweep's indicator lattice gives the quadrature's variance table,
    # and its closed form raises exactly where the quadrature keeps no mass.
    rotated = rotate_spectrum(spectrum, offset)
    quadrature = build_lattice(1.0, 1.0, rotated)
    largest = lat._hemisphere_maximum(rotated)
    if largest == 0.0:
        assert quadrature.total_integral == 0.0
        with pytest.raises(DegenerateSpectrum):
            lat.indicator_lattice(1.0, 1.0, rotated)
        return
    indicator = lat.indicator_lattice(1.0, 1.0, rotated)
    assert indicator.indices == quadrature.indices
    if quadrature.total_integral < sys.float_info.min:
        # On a narrow band the weighted node values underflow before the
        # spectrum's largest value does, and a subnormal total is too small
        # for the quadrature's table to normalize.
        assert largest < 1e-290
        return
    bs = build_lattice(1.5, 1.5, ISO)
    np.testing.assert_allclose(
        build_variance_table(bs, indicator),
        build_variance_table(bs, quadrature),
        rtol=0.0, atol=1e-15,
    )


def test_narrow_cluster_on_a_wide_cell_keeps_its_mass():
    # All the mass sits 52 degrees from broadside, far above the horizon.  On
    # a cell much wider than the 1-degree cluster both Gauss estimates miss
    # the peak and agree on ~0 unless the tiles around it are held.
    spectrum = AngularPowerSpectrum.mixture(
        [VmfComponent(1.0, 0.7, 0.9, concentration_from_spread(1.0))]
    )
    assert build_lattice(1.0, 1.0, spectrum).total_integral == pytest.approx(
        1.0, rel=1e-6
    )

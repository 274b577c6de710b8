"""Element pattern, S-parameter, and efficiency tests."""

import math

import numpy as np
import pytest

from holomimo import (
    CouplingProfile,
    ElementPattern,
    FromSParams,
    HannanLimited,
    RelativeEta,
    SParameterMatrix,
    build_coupling_profile,
    build_planar_array,
    efficiency_from_sparams,
    hannan_limit,
    load_pattern_file,
    load_sparams_file,
)
from holomimo.coupling import HALF_WAVE_EFFICIENCY
from holomimo.errors import (
    DimensionMismatch,
    EmptyFile,
    MalformedPatternFile,
    MalformedSParameterFile,
    NonPassive,
    NonPositiveInput,
)

DIPOLE_PEAK = 1.2247448713915890  # sqrt(3/2), fixes unit sphere-average power


def write_pattern_csv(path, rows):
    lines = ["element_index,theta_deg,phi_deg,re,im"]
    lines += [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def full_grid_rows(element, thetas, phis, value_fn):
    rows = []
    for t in thetas:
        for p in phis:
            z = value_fn(t, p)
            rows.append((element, t, p, z.real, z.imag))
    return rows


class TestAnalyticPatterns:
    def test_uniform_gain_is_one(self):
        pattern = ElementPattern.uniform()
        assert pattern.gain(0.7, -2.0) == 1.0
        assert pattern.sphere_power() == pytest.approx(1.0, rel=1e-12)

    def test_dipole_null_at_broadside(self):
        assert ElementPattern.dipole().gain(0.0, 0.0) == 0.0

    def test_dipole_peak_at_horizon(self):
        value = ElementPattern.dipole().gain(math.pi / 2, 1.0)
        assert value == pytest.approx(DIPOLE_PEAK, rel=1e-12)

    def test_dipole_power_normalized(self):
        assert ElementPattern.dipole().sphere_power() == pytest.approx(1.0, rel=1e-3)


class TestGriddedPatterns:
    def test_constant_pattern_renormalized(self, tmp_path):
        f = tmp_path / "pat.csv"
        thetas = list(range(0, 181, 10))
        phis = list(range(-180, 180, 15))
        write_pattern_csv(f, full_grid_rows(0, thetas, phis, lambda t, p: 2.0 + 0j))
        (pattern,) = load_pattern_file(f)
        assert abs(pattern.gain(0.5, 1.0)) == pytest.approx(1.0, rel=1e-9)
        assert pattern.sphere_power() == pytest.approx(1.0, rel=0.02)

    def test_node_and_cell_center_interpolation(self, tmp_path):
        # Two-cell grid whose corner magnitudes are (1, 1) and (3, 3): the
        # cell midpoint must interpolate to twice the low corner.
        f = tmp_path / "pat.csv"
        rows = []
        for t, val in ((0.0, 1.0), (90.0, 3.0), (180.0, 1.0)):
            for p in (-180.0, -60.0, 60.0):
                rows.append((0, t, p, val, 0.0))
        write_pattern_csv(f, rows)
        (pattern,) = load_pattern_file(f)
        node = pattern.gain(0.0, math.radians(-60.0))
        center = pattern.gain(math.radians(45.0), math.radians(0.0))
        assert abs(center) / abs(node) == pytest.approx(2.0, rel=1e-9)

    def test_hemispheric_grid_zero_on_back(self, tmp_path):
        f = tmp_path / "pat.csv"
        thetas = [0.0, 30.0, 60.0, 90.0]
        phis = [-180.0, -90.0, 0.0, 90.0]
        write_pattern_csv(f, full_grid_rows(0, thetas, phis, lambda t, p: 1.0 + 0j))
        (pattern,) = load_pattern_file(f)
        assert pattern.gain(math.radians(120.0), 0.0) == 0.0
        assert abs(pattern.gain(math.radians(45.0), 0.3)) > 1.0  # boosted by renorm

    def test_azimuth_wraparound(self, tmp_path):
        f = tmp_path / "pat.csv"
        thetas = [0.0, 90.0, 180.0]
        phis = [-180.0, -90.0, 0.0, 90.0]

        def value(t, p):
            return complex(2.0 if p == -180.0 else 1.0, 0.0)

        write_pattern_csv(f, full_grid_rows(0, thetas, phis, value))
        (pattern,) = load_pattern_file(f)
        # halfway through the seam cell [90, 180] the weights of the -180
        # column (via wraparound) and the 90 column are equal
        seam = pattern.gain(math.pi / 2, math.radians(135.0))
        left = pattern.gain(math.pi / 2, math.radians(90.0))
        wrapped = pattern.gain(math.pi / 2, math.radians(-180.0))
        assert seam == pytest.approx((left + wrapped) / 2.0, rel=1e-9)

    def test_two_elements_loaded_in_order(self, tmp_path):
        f = tmp_path / "pat.csv"
        thetas = [0.0, 90.0, 180.0]
        phis = [-180.0, 0.0]
        rows = full_grid_rows(0, thetas, phis, lambda t, p: 1.0 + 0j)
        rows += full_grid_rows(1, thetas, phis, lambda t, p: 0.0 + 2.0j)
        write_pattern_csv(f, rows)
        patterns = load_pattern_file(f)
        assert len(patterns) == 2
        assert patterns[1].gain(0.5, 0.5).real == pytest.approx(0.0, abs=1e-12)

    def test_incomplete_grid_rejected(self, tmp_path):
        f = tmp_path / "pat.csv"
        rows = full_grid_rows(0, [0.0, 90.0, 180.0], [-180.0, 0.0], lambda t, p: 1 + 0j)
        write_pattern_csv(f, rows[:-1])
        with pytest.raises(MalformedPatternFile):
            load_pattern_file(f)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "pat.csv"
        f.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(MalformedPatternFile):
            load_pattern_file(f)

    def test_partial_elevation_coverage_rejected(self, tmp_path):
        f = tmp_path / "pat.csv"
        write_pattern_csv(
            f, full_grid_rows(0, [0.0, 45.0], [-180.0, 0.0], lambda t, p: 1 + 0j)
        )
        with pytest.raises(MalformedPatternFile):
            load_pattern_file(f)

    def test_element_indices_with_gaps_rejected(self, tmp_path):
        # Indices {3, 7} must not be renumbered to elements 0 and 1.
        f = tmp_path / "pat.csv"
        thetas, phis = [0.0, 90.0], [-180.0, 0.0]
        rows = full_grid_rows(3, thetas, phis, lambda t, p: 1 + 0j)
        rows += full_grid_rows(7, thetas, phis, lambda t, p: 1 + 0j)
        write_pattern_csv(f, rows)
        with pytest.raises(MalformedPatternFile, match="0..1"):
            load_pattern_file(f)

    def test_fractional_element_index_rejected(self, tmp_path):
        f = tmp_path / "pat.csv"
        rows = full_grid_rows(0, [0.0, 90.0], [-180.0, 0.0], lambda t, p: 1 + 0j)
        rows += full_grid_rows(1.5, [0.0, 90.0], [-180.0, 0.0], lambda t, p: 1 + 0j)
        write_pattern_csv(f, rows)
        with pytest.raises(MalformedPatternFile, match="nonnegative integer"):
            load_pattern_file(f)

    def test_duplicate_grid_point_rejected(self, tmp_path):
        f = tmp_path / "pat.csv"
        rows = full_grid_rows(0, [0.0, 90.0], [-180.0, 0.0], lambda t, p: 1 + 0j)
        write_pattern_csv(f, rows + [(0, 90.0, 0.0, 5.0, 0.0)])
        with pytest.raises(MalformedPatternFile, match="repeats grid point"):
            load_pattern_file(f)

    def test_non_finite_gain_rejected(self, tmp_path):
        # A NaN sample used to reach the SVD and end in a traceback.
        f = tmp_path / "pat.csv"
        rows = full_grid_rows(0, [0.0, 90.0], [-180.0, 0.0], lambda t, p: 1 + 0j)
        rows[1] = (0, 0.0, 0.0, "nan", 0.0)
        write_pattern_csv(f, rows)
        with pytest.raises(MalformedPatternFile, match="non-finite"):
            load_pattern_file(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "pat.csv"
        f.write_text("element_index,theta_deg,phi_deg,re,im\n")
        with pytest.raises(EmptyFile):
            load_pattern_file(f)


class TestSParameters:
    def test_zero_matrix_gives_unit_efficiency(self):
        s = SParameterMatrix(entries=np.zeros((4, 4), dtype=complex))
        np.testing.assert_allclose(efficiency_from_sparams(s), 1.0)

    def test_diagonal_half_reflection(self):
        s = SParameterMatrix(entries=0.5 * np.eye(3, dtype=complex))
        np.testing.assert_allclose(efficiency_from_sparams(s), 0.75)

    def test_non_passive_rejected(self):
        entries = np.zeros((2, 2), dtype=complex)
        entries[0, 0] = 0.8
        entries[0, 1] = 0.8  # row power 1.28
        with pytest.raises(NonPassive):
            efficiency_from_sparams(SParameterMatrix(entries=entries))

    def test_load_round_trip(self, tmp_path):
        f = tmp_path / "s.csv"
        lines = ["row,col,re,im"]
        for i in range(2):
            for j in range(2):
                lines.append(f"{i},{j},{0.1 * (i + 1)},{0.05 * j}")
        f.write_text("\n".join(lines) + "\n")
        s = load_sparams_file(f)
        assert s.order == 2
        assert s.entries[1, 1] == pytest.approx(0.2 + 0.05j)

    def test_missing_entries_rejected(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("row,col,re,im\n0,0,0.1,0\n1,1,0.1,0\n")
        with pytest.raises(MalformedSParameterFile):
            load_sparams_file(f)

    @pytest.mark.parametrize(
        "extra, match",
        [
            ("-1,0,0.3,0", "nonnegative integer"),  # would wrap onto the last row
            ("0,1.7,0.3,0", "nonnegative integer"),  # would truncate to column 1
            ("1,0,0.3,0", "duplicate entry"),  # would keep the last value
            ("1,nan,0.3,0", "nonnegative integer"),
        ],
        ids=["negative", "fractional", "duplicate", "nan"],
    )
    def test_bad_indices_rejected(self, tmp_path, extra, match):
        f = tmp_path / "s.csv"
        full = ["0,0,0.1,0", "0,1,0.1,0", "1,0,0.1,0", "1,1,0.1,0"]
        f.write_text("\n".join(["row,col,re,im", *full, extra]) + "\n")
        with pytest.raises(MalformedSParameterFile, match=match):
            load_sparams_file(f)

    def test_non_finite_value_rejected(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("row,col,re,im\n0,0,nan,0\n")
        with pytest.raises(MalformedSParameterFile, match="non-finite"):
            load_sparams_file(f)


class TestHannanLimit:
    def test_reference_values(self):
        assert hannan_limit(0.5, 0.5) == pytest.approx(math.pi / 4, rel=1e-15)
        assert hannan_limit(0.125, 0.125) == pytest.approx(math.pi / 64, rel=1e-15)

    def test_clamped_at_one(self):
        assert hannan_limit(1.0, 1.0) == 1.0

    def test_monotone_in_each_spacing(self):
        spacings = np.linspace(0.05, 0.6, 40)
        values = [hannan_limit(s, 0.3) for s in spacings]
        assert np.all(np.diff(values) >= 0)
        values = [hannan_limit(0.3, s) for s in spacings]
        assert np.all(np.diff(values) >= 0)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveInput):
            hannan_limit(0.0, 0.5)


class TestCouplingProfile:
    def test_full_relative_efficiency(self):
        g = build_planar_array(1.0, 1.0, 0.5, 0.5)
        profile = build_coupling_profile(g, ElementPattern.uniform(), RelativeEta(1.0))
        np.testing.assert_allclose(profile.efficiencies, math.pi / 4, rtol=1e-15)
        np.testing.assert_allclose(profile.efficiencies / HALF_WAVE_EFFICIENCY, 1.0)

    def test_eighty_percent_relative_efficiency(self):
        g = build_planar_array(1.0, 1.0, 0.5, 0.5)
        profile = build_coupling_profile(g, ElementPattern.uniform(), RelativeEta(0.8))
        np.testing.assert_allclose(
            profile.efficiencies, 0.6283185307179586, rtol=1e-12
        )

    def test_hannan_limited_eighth_wavelength(self):
        g = build_planar_array(1.0, 1.0, 0.125, 0.125)
        profile = build_coupling_profile(g, ElementPattern.uniform(), HannanLimited())
        np.testing.assert_allclose(
            profile.efficiencies / HALF_WAVE_EFFICIENCY, 1.0 / 16.0, rtol=1e-12
        )

    def test_hannan_total_radiated_power_invariant_across_spacings(self):
        # N * e is pinned by the aperture area alone under the spacing limit.
        reference = None
        for spacing in (0.5, 0.25, 0.125, 0.0625):
            g = build_planar_array(2.0, 2.0, spacing, spacing)
            profile = build_coupling_profile(
                g, ElementPattern.uniform(), HannanLimited()
            )
            total = g.count * profile.efficiencies[0]
            if reference is None:
                reference = total
            assert total == pytest.approx(reference, rel=1e-12)

    def test_sparams_mode_checks_dimension(self):
        g = build_planar_array(1.0, 1.0, 0.5, 0.5)
        s = SParameterMatrix(entries=np.zeros((3, 3), dtype=complex))
        with pytest.raises(DimensionMismatch):
            build_coupling_profile(g, ElementPattern.uniform(), FromSParams(s))

    def test_sparams_mode_efficiencies(self):
        g = build_planar_array(1.0, 1.0, 0.5, 0.5)
        s = SParameterMatrix(entries=0.5 * np.eye(4, dtype=complex))
        profile = build_coupling_profile(g, ElementPattern.uniform(), FromSParams(s))
        np.testing.assert_allclose(profile.efficiencies, 0.75)
        np.testing.assert_allclose(
            profile.efficiencies / HALF_WAVE_EFFICIENCY, 0.75 / (math.pi / 4),
            rtol=1e-12,
        )

    def test_eta_outside_unit_interval_rejected(self):
        with pytest.raises(NonPositiveInput):
            RelativeEta(1.2)

    def test_pattern_list_length_checked(self):
        g = build_planar_array(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(DimensionMismatch):
            build_coupling_profile(
                g, [ElementPattern.uniform()] * 3, RelativeEta(1.0)
            )


def _profile_with_efficiencies(e):
    e = np.asarray(e, dtype=float)
    return CouplingProfile(
        patterns=(ElementPattern.uniform(),) * e.size,
        efficiencies=e,
    )


class TestAmplitudeMatrix:
    def test_unit_efficiency_gives_identity(self):
        profile = _profile_with_efficiencies(np.ones(4))
        np.testing.assert_array_equal(np.diag(profile.amplitudes), np.eye(4))

    def test_amplitude_is_square_root_of_efficiency(self):
        g = build_planar_array(1.0, 1.0, 0.5, 0.5)
        profile = build_coupling_profile(g, ElementPattern.uniform(), RelativeEta(1.0))
        diag = profile.amplitudes
        np.testing.assert_allclose(diag, 0.8862269254527580, rtol=1e-12)

    def test_quarter_efficiency(self):
        profile = _profile_with_efficiencies([0.25])
        np.testing.assert_allclose(np.diag(profile.amplitudes), [[0.5]])

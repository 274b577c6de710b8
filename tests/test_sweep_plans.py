"""One plan per spacing: sweep users share its R factors and differ only in
their variances."""

import json
from pathlib import Path

import numpy as np
import pytest

import holomimo.sweep as sweep_module
import holomimo.synthesis as synthesis_module
from holomimo import (
    CapacityReport,
    build_plan,
    build_planar_array,
    build_variance_table,
    config_from_dict,
    drop_users,
    run_sweep,
)
from holomimo.cli import main
from holomimo.config import bundled_cdl_path
from holomimo.sweep import Scenario, _drop_seed

BASE = {
    "carrier_ghz": 3.5,
    "bs_aperture": 1.5,
    "ue_aperture": 1.0,
    "spacing_list": [0.5, 0.25],
    "spectrum_spec": {"kind": "isotropic"},
    "pattern_spec": {"kind": "uniform"},
    "efficiency_spec": {"kind": "relative_eta", "eta": 0.9},
    "snr_db": 0.0,
    "realizations": 3,
    "users": 3,
    "seed": 7,
}
CDL = {"kind": "cdl", "path": bundled_cdl_path(), "asd_deg": 10.0, "asa_deg": 20.0}
DATA = Path(__file__).parent / "data"


def make_config(**overrides):
    return config_from_dict({**BASE, **overrides})


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "overrides",
    [{"spectrum_spec": CDL}, {"users": 1, "spectrum_spec": CDL}, {}],
    ids=["cdl-3-users", "cdl-1-user", "isotropic-3-users"],
)
def test_one_plan_per_spacing(monkeypatch, overrides):
    calls = count_calls(monkeypatch, sweep_module, "build_plan")
    config = make_config(**overrides)
    run_sweep(config)
    assert len(calls) == len(config.spacing_list)


def refuse_element_bases(monkeypatch):
    def refusing(*args, **kwargs):
        raise AssertionError("an element-domain basis was built")

    monkeypatch.setattr(synthesis_module, "_modified_basis", refusing)


@pytest.mark.parametrize(
    "overrides",
    [{"spectrum_spec": CDL},
     {"users": 1, "ue_aperture": 1.5, "pattern_spec": {"kind": "dipole"},
      "efficiency_spec": {"kind": "hannan"}},
     {"users": 1, "spacing_list": [0.125],
      "pattern_spec": {"kind": "file", "path": str(DATA / "pattern_one_element.csv")}}],
    ids=["uniform-relative-eta", "dipole-hannan", "one-filed-pattern"],
)
def test_a_shared_pattern_sweep_builds_no_element_basis(monkeypatch, overrides):
    # One pattern object and one efficiency for every element: each end's R
    # factor comes from its per-axis factors.
    refuse_element_bases(monkeypatch)
    result = run_sweep(make_config(**overrides))
    assert len(result.rows) == len(make_config(**overrides).spacing_list)


def write_pattern_file(path, elements):
    """A pattern file of ``elements`` different gridded patterns."""
    lines = ["element_index,theta_deg,phi_deg,re,im"]
    for element in range(elements):
        for theta in range(0, 91, 15):
            for phi in range(-180, 180, 30):
                lines.append(f"{element},{theta},{phi},{1.0 + 0.01 * theta},"
                             f"{0.1 * element * np.sin(np.radians(phi))}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("kind", ["sparams", "pattern-file"])
def test_per_element_inputs_take_the_element_domain_qr(monkeypatch, tmp_path, kind):
    # S-parameter efficiencies differ per element, and a pattern file of
    # several elements gives each its own pattern: both ends of the one
    # spacing build their bases for the QR, and a sweep keeps neither.
    if kind == "sparams":
        overrides = {"efficiency_spec": {"kind": "sparams",
                                         "bs_path": str(DATA / "sparams_bs_3x3.csv"),
                                         "ue_path": str(DATA / "sparams_ue_2x2.csv")}}
    else:
        path = write_pattern_file(tmp_path / "patterns.csv", elements=4)
        overrides = {"bs_aperture": 1.0,
                     "pattern_spec": {"kind": "file", "path": str(path)}}
    config = make_config(users=1, spacing_list=[0.5], **overrides)
    calls = count_calls(monkeypatch, synthesis_module, "_modified_basis")
    scenario = Scenario(config)
    plan = scenario.plans[0]
    assert len(calls) == 2
    assert "basis" not in plan.bs.__dict__ and "basis" not in plan.ue.__dict__
    for r, basis, amplitudes, support in (
        (plan.bs.r, plan.bs.basis, plan.bs.coupling.amplitudes, plan.bs.support),
        (plan.ue.r, plan.ue.basis, plan.ue.coupling.amplitudes, plan.ue.support),
    ):
        np.testing.assert_array_equal(
            r, np.linalg.qr(amplitudes[:, None] * basis[:, support], mode="r"))


def test_synth_builds_the_element_bases(monkeypatch, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BASE))
    calls = count_calls(monkeypatch, synthesis_module, "_modified_basis")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "h.csv")]) == 0
    # The plan's R factors took none; the channel takes both ends' bases.
    assert len(calls) == 2


def test_isotropic_multi_user_sweep_builds_two_lattices(monkeypatch):
    # One quadrature at the 1.5-wavelength BS end and one indicator at the
    # 1-wavelength UE end, which has a single cell in the unit disk.
    calls = count_calls(monkeypatch, sweep_module, "build_lattice")
    indicators = count_calls(monkeypatch, sweep_module, "indicator_lattice")
    run_sweep(make_config())
    assert [args[:2] for args in calls] == [(1.5, 1.5)]
    assert [args[:2] for args in indicators] == [(1.0, 1.0)]


def test_user_plans_equal_plans_built_on_their_own_lattices(monkeypatch):
    # The plan of each spacing is bitwise the plan ``build_plan`` makes from
    # scratch, and every user of a realization draws on it with the
    # variances of that user's own rotated lattices.
    config = make_config(spectrum_spec=CDL, pattern_spec={"kind": "dipole"},
                         ue_aperture=1.5)
    scenario = Scenario(config)
    drops = drop_users(config.users, _drop_seed(config.seed, 1))
    lattices = scenario.realization_lattices(drops)
    for s, spacing in enumerate(config.spacing_list):
        bs = build_planar_array(1.5, 1.5, spacing, spacing)
        ue = build_planar_array(1.5, 1.5, spacing, spacing)
        reference = build_plan(bs, ue, scenario.coupling("bs", bs),
                               scenario.coupling("ue", ue))
        for end, expected in zip(scenario.plans[s], reference):
            for name in ("basis", "r"):
                np.testing.assert_array_equal(getattr(end, name), getattr(expected, name))
            np.testing.assert_array_equal(end.coupling.amplitudes,
                                          expected.coupling.amplitudes)
    draws, maps = [], []
    draw = sweep_module.draw_block

    def drawing(tables, seed, keys):
        draws.extend(zip(tables, keys))
        return draw(tables, seed, keys)

    def mapping(plan, coefficients):
        maps.append((plan, coefficients))
        return np.zeros((*coefficients.shape[:2], 1, 1))

    monkeypatch.setattr(sweep_module, "draw_block", drawing)
    monkeypatch.setattr(sweep_module, "harmonic_channels", mapping)
    monkeypatch.setattr(sweep_module, "mu_sum_capacity",
                        lambda channels, budget: CapacityReport(0.0))
    sweep_module._evaluate_chunk((scenario, range(1, 2)))
    # One draw per user, on the table of the user's own lattices.
    assert [index for _, index in draws] == [(1 << 32) | k for k in range(config.users)]
    for user, (variances, _) in enumerate(draws):
        np.testing.assert_array_equal(variances, build_variance_table(*lattices[user]))
    # Every spacing maps the same draws through its own plan.
    assert len(maps) == len(config.spacing_list)
    for s, (plan, coefficients) in enumerate(maps):
        assert plan is scenario.plans[s]
        assert coefficients is maps[0][1]
        assert coefficients.shape[:2] == (1, config.users)


def test_rotation_invariant_spectra_keep_the_unrotated_lattices():
    scenario = Scenario(make_config())
    pairs = scenario.realization_lattices(drop_users(4, 3))
    assert len(pairs) == 4
    for bs_lattice, ue_lattice in pairs:
        assert bs_lattice is scenario.ends[0].lattice
        assert ue_lattice is scenario.ends[1].lattice


def cdl_lattice_builds(monkeypatch, ue_aperture):
    """(scenario, build_lattice calls, spectra built by build_lattices) of a
    3-user CDL sweep."""
    scenarios = []

    def capturing(config):
        scenarios.append(Scenario(config))
        return scenarios[-1]

    monkeypatch.setattr(sweep_module, "Scenario", capturing)
    calls = count_calls(monkeypatch, sweep_module, "build_lattice")
    batches = count_calls(monkeypatch, sweep_module, "build_lattices")
    run_sweep(make_config(spectrum_spec=CDL, ue_aperture=ue_aperture))
    built = [spectrum for args in batches for spectrum in args[2]]
    assert not any(s is spectrum for s in built for spectrum in (end.spectrum for end in scenarios[0].ends))
    # Rotation changes every CDL spectrum, so the unrotated BS lattice is
    # never evaluated.
    assert "lattice" not in scenarios[0].ends[0].__dict__
    return scenarios[0], calls, built


def test_cdl_multi_user_sweep_builds_no_unrotated_lattice(monkeypatch):
    # A 1-wavelength UE aperture has one cell in the unit disk, which no
    # spectrum can reweight: one indicator lattice serves every user, and no
    # UE lattice goes through the quadrature.
    scenario, calls, built = cdl_lattice_builds(monkeypatch, ue_aperture=1.0)
    assert not calls
    assert len(built) == BASE["users"] * BASE["realizations"]
    assert scenario.ends[1].lattice.marginal_integrals.tolist() == [0, 0, 1, 0, 0]
    for _, ue_lattice in scenario.realization_lattices(drop_users(3, 0)):
        assert ue_lattice is scenario.ends[1].lattice


def test_an_inert_end_rotates_no_spectrum_and_builds_no_lattices(monkeypatch):
    scenario = Scenario(make_config(spectrum_spec=CDL))
    assert [end.inert for end in scenario.ends] == [False, True]
    rotations = count_calls(monkeypatch, sweep_module, "rotate_spectrum")
    passes = count_calls(monkeypatch, sweep_module, "build_lattices")
    pairs = scenario.realization_lattices(drop_users(3, 0))
    assert [args[0] for args in rotations] == [scenario.ends[0].spectrum] * 3
    assert [(args[0], len(args[2])) for args in passes] == [(BASE["bs_aperture"], 3)]
    assert all(ue_lattice is scenario.ends[1].lattice for _, ue_lattice in pairs)


def test_cdl_multi_user_sweep_at_a_2_wavelength_ue_rotates_both_ends(monkeypatch):
    scenario, calls, built = cdl_lattice_builds(monkeypatch, ue_aperture=2.0)
    assert not calls
    assert len(built) == 2 * BASE["users"] * BASE["realizations"]
    assert "lattice" not in scenario.ends[1].__dict__


def test_block_lattices_equal_lattices_built_one_realization_at_a_time(monkeypatch):
    # The realizations span two blocks of the chunk; the per-realization
    # pass is the oracle for every lattice of the block pass.
    config = make_config(spectrum_spec=CDL, ue_aperture=2.0)
    per_block = sweep_module._BLOCK // config.users
    count = per_block + 2
    blocks = []
    realization_lattices = sweep_module.Scenario.realization_lattices

    def recording(scenario, drops):
        blocks.append((drops, realization_lattices(scenario, drops)))
        return blocks[-1][1]

    monkeypatch.setattr(sweep_module.Scenario, "realization_lattices", recording)
    monkeypatch.setattr(sweep_module, "mu_sum_capacity",
                        lambda channels, budget: CapacityReport(0.0))
    passes = count_calls(monkeypatch, sweep_module, "build_lattices")
    sweep_module._evaluate_chunk((Scenario(config), range(count)))
    # One pass per aperture and block: a full block and then 2 realizations
    # of 3 users.
    assert [len(args[2]) for args in passes] == [per_block * 3] * 2 + [2 * 3] * 2
    assert [len(drops) for drops, _ in blocks] == [per_block * 3, 2 * 3]
    drops = [drop for block, _ in blocks for drop in block]
    lattices = [pair for _, block in blocks for pair in block]
    oracle = Scenario(config)
    for r in range(count):
        users = slice(r * config.users, (r + 1) * config.users)
        assert drops[users] == drop_users(config.users, _drop_seed(config.seed, r))
        alone = realization_lattices(oracle, drops[users])
        for pair, reference in zip(lattices[users], alone, strict=True):
            for lattice, expected in zip(pair, reference):
                np.testing.assert_array_equal(
                    lattice.marginal_integrals, expected.marginal_integrals
                )

"""One plan per spacing: sweep users share bases and R factors and differ
only in their variance tables."""

import numpy as np
import pytest

import holomimo.sweep as sweep_module
from holomimo import (
    build_plan,
    build_planar_array,
    config_from_dict,
    drop_users,
    run_sweep,
)
from holomimo.config import bundled_cdl_path
from holomimo.sweep import _drop_seed, resolve_scenario

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


def test_isotropic_multi_user_sweep_builds_two_lattices(monkeypatch):
    # One quadrature at the 1.5-wavelength BS end and one indicator at the
    # 1-wavelength UE end, which has a single cell in the unit disk.
    from holomimo import synthesis

    calls = count_calls(monkeypatch, sweep_module, "build_lattice")
    calls += count_calls(monkeypatch, synthesis, "build_lattice")
    indicators = count_calls(monkeypatch, sweep_module, "indicator_lattice")
    run_sweep(make_config())
    assert [args[:2] for args in calls] == [(1.5, 1.5)]
    assert [args[:2] for args in indicators] == [(1.0, 1.0)]


def test_user_plans_equal_plans_built_on_their_own_lattices():
    # Each user's plan at each spacing is bitwise the plan ``build_plan``
    # makes from scratch on that user's rotated lattices.
    config = make_config(spectrum_spec=CDL, pattern_spec={"kind": "dipole"},
                         ue_aperture=1.5)
    scenario = resolve_scenario(config)
    drops = drop_users(config.users, _drop_seed(config.seed, 1))
    lattices = scenario.realization_lattices(drops)
    user_plans = [scenario.plans(*pair) for pair in lattices]
    for s, spacing in enumerate(config.spacing_list):
        bs = build_planar_array(1.5, 1.5, spacing, spacing)
        ue = build_planar_array(1.5, 1.5, spacing, spacing)
        for (bs_lattice, ue_lattice), plans in zip(lattices, user_plans):
            reference = build_plan(
                bs, ue, None, None,
                scenario.coupling("bs", bs),
                scenario.coupling("ue", ue),
                bs_lattice=bs_lattice, ue_lattice=ue_lattice,
            )
            plan = plans[s]
            for name in ("bs_basis", "ue_basis", "bs_amplitudes",
                         "ue_amplitudes", "bs_r", "ue_r"):
                np.testing.assert_array_equal(
                    getattr(plan, name), getattr(reference, name)
                )
                # One array per spacing, shared by every user.
                assert getattr(plan, name) is getattr(user_plans[0][s], name)
            np.testing.assert_array_equal(
                plan.variance_table.variances(),
                reference.variance_table.variances(),
            )
            assert plan.variance_table.bs_lattice is bs_lattice
            assert plan.variance_table.ue_lattice is ue_lattice


def test_rotation_invariant_spectra_keep_the_unrotated_lattices():
    scenario = resolve_scenario(make_config())
    pairs = scenario.realization_lattices(drop_users(4, 3))
    assert len(pairs) == 4
    for bs_lattice, ue_lattice in pairs:
        assert bs_lattice is scenario.bs_lattice
        assert ue_lattice is scenario.ue_lattice


def cdl_lattice_builds(monkeypatch, ue_aperture):
    """(scenario, build_lattice calls, spectra built by build_lattices) of a
    3-user CDL sweep."""
    scenarios = []

    def capturing(config):
        scenarios.append(resolve_scenario(config))
        return scenarios[-1]

    monkeypatch.setattr(sweep_module, "resolve_scenario", capturing)
    calls = count_calls(monkeypatch, sweep_module, "build_lattice")
    batches = count_calls(monkeypatch, sweep_module, "build_lattices")
    run_sweep(make_config(spectrum_spec=CDL, ue_aperture=ue_aperture))
    built = [spectrum for args in batches for spectrum in args[2]]
    assert not any(s is spectrum for s in built for spectrum in scenarios[0].spectra)
    # Rotation changes every CDL spectrum, so the unrotated BS lattice is
    # never evaluated.
    assert "bs_lattice" not in scenarios[0].__dict__
    return scenarios[0], calls, built


def test_cdl_multi_user_sweep_builds_no_unrotated_lattice(monkeypatch):
    # A 1-wavelength UE aperture has one cell in the unit disk, which no
    # spectrum can reweight: one indicator lattice serves every user, and no
    # UE lattice goes through the quadrature.
    scenario, calls, built = cdl_lattice_builds(monkeypatch, ue_aperture=1.0)
    assert not calls
    assert len(built) == BASE["users"] * BASE["realizations"]
    assert scenario.ue_lattice.marginal_integrals.tolist() == [0, 0, 1, 0, 0]
    for _, ue_lattice in scenario.realization_lattices(drop_users(3, 0)):
        assert ue_lattice is scenario.ue_lattice


def test_cdl_multi_user_sweep_at_a_2_wavelength_ue_rotates_both_ends(monkeypatch):
    scenario, calls, built = cdl_lattice_builds(monkeypatch, ue_aperture=2.0)
    assert not calls
    assert len(built) == 2 * BASE["users"] * BASE["realizations"]
    assert "ue_lattice" not in scenario.__dict__


def test_block_lattices_equal_lattices_built_one_realization_at_a_time(monkeypatch):
    # Realizations 0-5 span two blocks of the chunk; the per-realization
    # pass is the oracle for every lattice of the block pass.
    config = make_config(spectrum_spec=CDL, ue_aperture=2.0)
    evaluated = []
    monkeypatch.setattr(
        sweep_module, "_evaluate",
        lambda scenario, r, drops, lattices: evaluated.append((r, drops, lattices)),
    )
    passes = count_calls(monkeypatch, sweep_module, "build_lattices")
    sweep_module._evaluate_chunk((resolve_scenario(config), range(6)))
    assert [r for r, _, _ in evaluated] == list(range(6))
    # One pass per aperture and block: 4 and then 2 realizations of 3 users.
    assert [len(args[2]) for args in passes] == [4 * 3] * 2 + [2 * 3] * 2
    oracle = resolve_scenario(config)
    for r, drops, lattices in evaluated:
        assert drops == drop_users(config.users, _drop_seed(config.seed, r))
        for pair, alone in zip(lattices, oracle.realization_lattices(drops), strict=True):
            for lattice, reference in zip(pair, alone):
                np.testing.assert_array_equal(
                    lattice.marginal_integrals, reference.marginal_integrals
                )

"""One plan per spacing: sweep users share bases and R factors and differ
only in their variance tables."""

import numpy as np
import pytest

import holomimo.sweep as sweep_module
from holomimo import (
    build_coupling_profile,
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
    from holomimo import synthesis

    calls = count_calls(monkeypatch, sweep_module, "build_lattice")
    calls += count_calls(monkeypatch, synthesis, "build_lattice")
    run_sweep(make_config())
    assert len(calls) == 2


def test_user_plans_equal_plans_built_on_their_own_lattices():
    # Each user's plan at each spacing is bitwise the plan ``build_plan``
    # makes from scratch on that user's rotated lattices.
    config = make_config(spectrum_spec=CDL, pattern_spec={"kind": "dipole"},
                         ue_aperture=1.5)
    scenario = resolve_scenario(config)
    drops = drop_users(config.users, _drop_seed(config.seed, 1))
    lattices = scenario.realization_lattices(drops)
    user_plans = [scenario.plans(*pair) for pair in lattices]
    source, bs_mode, ue_mode = scenario._coupling_sources
    for s, spacing in enumerate(config.spacing_list):
        bs = build_planar_array(1.5, 1.5, spacing, spacing)
        ue = build_planar_array(1.5, 1.5, spacing, spacing)
        for (bs_lattice, ue_lattice), plans in zip(lattices, user_plans):
            reference = build_plan(
                bs, ue, None, None,
                build_coupling_profile(bs, source, bs_mode),
                build_coupling_profile(ue, source, ue_mode),
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


def test_cdl_multi_user_sweep_builds_no_unrotated_lattice(monkeypatch):
    scenarios = []

    def capturing(config):
        scenarios.append(resolve_scenario(config))
        return scenarios[-1]

    monkeypatch.setattr(sweep_module, "resolve_scenario", capturing)
    calls = count_calls(monkeypatch, sweep_module, "build_lattice")
    batches = count_calls(monkeypatch, sweep_module, "build_lattices")
    run_sweep(make_config(spectrum_spec=CDL))
    unrotated = scenarios[0].spectra
    assert not calls
    built = [spectrum for args in batches for spectrum in args[2]]
    assert len(built) == 2 * BASE["users"] * BASE["realizations"]
    assert not any(s is spectrum for s in built for spectrum in unrotated)
    # Rotation changes every CDL spectrum, so the unrotated lattices are
    # never evaluated.
    assert "bs_lattice" not in scenarios[0].__dict__
    assert "ue_lattice" not in scenarios[0].__dict__

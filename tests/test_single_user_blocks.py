"""Single-user sweeps evaluate realizations in stacked blocks: each block
equals the per-realization oracle bit for bit, draws each realization's
coefficients once for every spacing, and fails as the oracle would."""

import numpy as np
import pytest

import holomimo.sweep as sweep_module
from holomimo import config_from_dict, run_sweep
from holomimo.cli import main
from holomimo.capacity import su_capacities, su_capacity
from holomimo.errors import EmptyGains, NonFiniteChannel, ZeroChannel
from holomimo.lattice import build_variance_table
from holomimo.sweep import _BLOCK, Scenario, _evaluate_chunk
from holomimo.synthesis import draw_block, harmonic_channels
from draw_coefficients_oracle import draw_coefficients

# 9 receive and 9 transmit harmonics at the 1.5-wavelength apertures.
BASE = {
    "carrier_ghz": 3.5,
    "bs_aperture": 1.5,
    "ue_aperture": 1.5,
    "spacing_list": [0.5, 0.25],
    "spectrum_spec": {"kind": "isotropic"},
    "pattern_spec": {"kind": "uniform"},
    "efficiency_spec": {"kind": "relative_eta", "eta": 0.9},
    "snr_db": 3.0,
    "users": 1,
    "seed": 11,
}


def make_config(realizations):
    return config_from_dict({**BASE, "realizations": realizations})


def plans_and_variances(config):
    """(plans, variances of the unrotated lattice pair) of a single user."""
    scenario = Scenario(config)
    return scenario.plans, build_variance_table(scenario.ends[0].lattice, scenario.ends[1].lattice)


def oracle_values(config, indices):
    """su_capacity of each realization's harmonic channel, one at a time."""
    plans, variances = plans_and_variances(config)
    return [
        [su_capacity(harmonic_channels(plan, draw_coefficients(variances, config.seed, r)),
                     config.snr_db).value_bits for plan in plans]
        for r in indices
    ]


# Counts within one block, ending on either side of a block edge, and
# spanning two blocks.
@pytest.mark.parametrize("realizations", sorted({1, 31, 32, 33, _BLOCK - 1, _BLOCK,
                                                  _BLOCK + 1, 70}))
def test_sweep_equals_the_per_realization_oracle(realizations):
    config = make_config(realizations)
    expected = oracle_values(config, range(realizations))
    # A chunk that starts at 0 and one that starts inside a block, as the
    # second of two workers' chunks does.
    for indices in (range(realizations), range(realizations // 2, realizations)):
        chunk = _evaluate_chunk((Scenario(config), indices))
        assert [[value for value, _ in pairs] for pairs in chunk] == [
            expected[r] for r in indices
        ]
        assert all(converged for pairs in chunk for _, converged in pairs)
    for jobs in (1, 2):
        rows = run_sweep(config, jobs=jobs).rows
        for s, row in enumerate(rows):
            values = np.array([pairs[s] for pairs in expected])
            assert row.mean_bits == float(np.mean(values))
            assert row.std_bits == (
                float(np.std(values, ddof=1)) if realizations > 1 else 0.0
            )


def test_each_realization_is_drawn_once_for_every_spacing(monkeypatch):
    drawn = []
    draw = sweep_module.draw_block

    def counting(tables, seed, keys):
        drawn.extend(keys)
        return draw(tables, seed, keys)

    monkeypatch.setattr(sweep_module, "draw_block", counting)
    config = make_config(70)
    run_sweep(config)
    assert len(config.spacing_list) == 2
    assert drawn == list(range(70))


def test_stacked_capacities_are_each_spacings_own_bit_for_bit():
    # At 3/4 wavelength the 1.5-wavelength arrays have 2 x 2 elements, so
    # their channels are 4 x 4, not 9 x 9: one call per shape.
    config = config_from_dict({**BASE, "spacing_list": [0.5, 0.75, 0.25],
                               "realizations": 45})
    plans, variances = plans_and_variances(config)
    coefficients = draw_block([variances] * 45, config.seed, range(45))[:, None]
    stacks = [harmonic_channels(plan, coefficients)[:, 0] for plan in plans]
    assert [stack.shape for stack in stacks] == [(45, 9, 9), (45, 4, 4), (45, 9, 9)]
    stacked = sweep_module._stacked_capacities(stacks, config.snr_db)
    for stack, bits in zip(stacks, stacked):
        expected = su_capacities(stack, config.snr_db)[2]
        assert np.array(bits).tobytes() == expected.tobytes()


def broken_draws(monkeypatch, bad_index, kind):
    """Make realization ``bad_index``'s coefficients zero, NaN, or so small
    that every squared singular value underflows, in the block draw."""
    draw = sweep_module.draw_block

    def breaking(tables, seed, keys):
        coefficients = draw(tables, seed, keys)
        for row, index in enumerate(keys):
            if index != bad_index:
                continue
            if kind == "zero":
                coefficients[row] = 0.0
            elif kind == "nan":
                coefficients[row, 0, 0] = np.nan
            else:
                coefficients[row] *= 1e-200
        return coefficients

    monkeypatch.setattr(sweep_module, "draw_block", breaking)


@pytest.mark.parametrize("kind,error", [
    ("zero", ZeroChannel), ("nan", NonFiniteChannel), ("tiny", EmptyGains),
])
@pytest.mark.parametrize("bad_index", sorted({0, 17, 31, 32, _BLOCK - 1, _BLOCK, 69}))
def test_one_bad_channel_fails_its_block_as_it_fails_alone(
    monkeypatch, kind, error, bad_index
):
    config = make_config(70)
    broken_draws(monkeypatch, bad_index, kind)
    plans, variances = plans_and_variances(config)
    (coefficients,) = sweep_module.draw_block([variances], config.seed, [bad_index])
    with pytest.raises(error):
        su_capacity(harmonic_channels(plans[0], coefficients), config.snr_db)
    with pytest.raises(error):
        run_sweep(config)


@pytest.mark.parametrize("realizations", ["1", "40"])
def test_dipole_preset_exits_4_with_one_error_line(capsys, realizations):
    # The dipole's broadside null leaves the 1-wavelength receive end of
    # every realization in the block without a channel.
    assert main(["sweep", "--preset", "fig3-dipole",
                 "--realizations", realizations]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "singular values are numerically zero" in captured.err
    assert len(captured.err.splitlines()) == 1

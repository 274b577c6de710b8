"""Rendered sweeps of the coupling kinds that golden_sweeps.json does not
pin: the Hannan efficiency with dipole patterns, per-end S-parameter files
and a filed element pattern, each single- and multi-user.

The expected CSV bytes and JSON rows sit in ``data/golden_coupling.json``;
running this module as a script records them again.  They were recorded
while each efficiency model was still a class of its own, and the rows came
out bitwise the same once efficiencies became plain numbers.  Normalizing
each end of the variance table by its own total then moved the values of
the 1.5-wavelength receive end (hannan-dipole) by up to 1.3e-15 bits, so
JSON values are held to 1e-12 bits and everything else to its bytes.
"""

import json
from pathlib import Path

import pytest

from holomimo import config_from_dict, render, run_sweep
from holomimo.config import bundled_cdl_path

DATA = Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "golden_coupling.json"

BASE = {
    "carrier_ghz": 3.5,
    "bs_aperture": 1.5,
    "ue_aperture": 1.0,
    "spacing_list": [0.5, 0.25],
    "spectrum_spec": {"kind": "isotropic"},
    "pattern_spec": {"kind": "uniform"},
    "efficiency_spec": {"kind": "relative_eta", "eta": 1.0},
    "snr_db": 0.0,
    "seed": 7,
}

CASES = {
    # A dipole's broadside null leaves a 1-wavelength end without a channel.
    "hannan-dipole": {
        "ue_aperture": 1.5,
        "pattern_spec": {"kind": "dipole"},
        "efficiency_spec": {"kind": "hannan"},
    },
    # One S-parameter file fits the element count of one spacing.
    "sparams": {
        "spacing_list": [0.5],
        "efficiency_spec": {
            "kind": "sparams",
            "bs_path": str(DATA / "sparams_bs_3x3.csv"),
            "ue_path": str(DATA / "sparams_ue_2x2.csv"),
        },
    },
    "file-pattern": {
        "spectrum_spec": {"kind": "cdl", "path": bundled_cdl_path(),
                          "asd_deg": 10.0, "asa_deg": 20.0},
        "pattern_spec": {"kind": "file",
                         "path": str(DATA / "pattern_one_element.csv")},
    },
}


def rendered(case, users):
    config = config_from_dict({
        **BASE, **CASES[case], "users": users, "realizations": 4 if users == 1 else 3,
    })
    result = run_sweep(config)
    return {
        "csv": render(result, "csv"),
        "rows": json.loads(render(result, "json"))["rows"],
    }


KEYS = [f"{case}-users{users}" for case in CASES for users in (1, 2)]


@pytest.mark.parametrize("key", KEYS)
def test_rendered_sweep_matches_golden_bytes(key):
    case, users = key.rsplit("-users", 1)
    golden = json.loads(GOLDEN_PATH.read_text())[key]
    got = rendered(case, int(users))
    assert got["csv"] == golden["csv"]
    assert len(got["rows"]) == len(golden["rows"])
    for row, ref in zip(got["rows"], golden["rows"]):
        for name in ("mean_bits", "std_bits"):
            assert row.pop(name) == pytest.approx(ref.pop(name), rel=0.0, abs=1e-12)
        assert row == ref


if __name__ == "__main__":
    record = {}
    for key in KEYS:
        case, users = key.rsplit("-users", 1)
        record[key] = rendered(case, int(users))
    GOLDEN_PATH.write_text(json.dumps(record, indent=1) + "\n")

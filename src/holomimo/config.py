"""Scenario configuration: schema, checks, loading, presets.

The config file is read by ``files.read_json``.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources

from .errors import ConfigError, UnknownPreset
from .files import read_json
from .geometry import grid_count
from .spectrum import concentration_from_spread
from .synthesis import MASK64

__all__ = ["ScenarioConfig", "load_config", "config_from_dict", "preset",
           "PRESET_NAMES", "bundled_cdl_path"]

_SPEC_FIELDS = {
    "spectrum_spec": {
        "isotropic": set(),
        "cdl": {"path", "asd_deg", "asa_deg"},
    },
    "pattern_spec": {
        "uniform": set(),
        "dipole": set(),
        "file": {"path"},
    },
    "efficiency_spec": {
        "relative_eta": {"eta"},
        "hannan": set(),
        "sparams": {"bs_path", "ue_path"},
    },
}


# Nested spec keys that hold real numbers; every other key but "kind" holds a
# file path.
_SPEC_REALS = {"asd_deg", "asa_deg", "eta"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one experiment.

    Apertures and spacings are in wavelengths (arrays are square); the
    nested specs select the propagation environment, the element pattern,
    and the efficiency model.
    """

    carrier_ghz: float
    bs_aperture: float
    ue_aperture: float
    spacing_list: tuple
    spectrum_spec: dict
    pattern_spec: dict
    efficiency_spec: dict
    snr_db: float
    realizations: int
    users: int
    seed: int

    def __post_init__(self):
        """Check every field, so that each config, ``dataclasses.replace``
        results included, is valid once built.

        Every number must be a JSON number (an int or a float, not a bool or
        a string), counts and the seed integral and reals finite.  Reals are
        stored as float, counts as int, ``spacing_list`` as a tuple and each
        spec as a copy of its dict."""
        if not isinstance(self.spacing_list, (list, tuple)):
            raise ConfigError(f"spacing_list must be an array, got {self.spacing_list!r}")
        for name in _SPEC_FIELDS:
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be an object, got {getattr(self, name)!r}")
        stored = {
            **{k: _real(k, getattr(self, k))
               for k in ("carrier_ghz", "bs_aperture", "ue_aperture", "snr_db")},
            **{k: _count(k, getattr(self, k)) for k in ("realizations", "users", "seed")},
            "spacing_list": tuple(_real("spacing", s) for s in self.spacing_list),
            **{name: dict(getattr(self, name)) for name in _SPEC_FIELDS},
        }
        for name, value in stored.items():
            object.__setattr__(self, name, value)  # frozen
        try:
            budget = 10.0 ** (self.snr_db / 10.0)
        except OverflowError:
            budget = math.inf
        if not sys.float_info.min <= budget < math.inf:
            raise ConfigError(
                f"snr_db {self.snr_db} gives a power budget outside the "
                f"normal float range"
            )
        for name in ("carrier_ghz", "bs_aperture", "ue_aperture"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.spacing_list:
            raise ConfigError("spacing_list must not be empty")
        for spacing in self.spacing_list:
            if spacing <= 0:
                raise ConfigError(f"spacing {spacing} must be positive")
            for aperture in (self.bs_aperture, self.ue_aperture):
                grid_count(aperture, spacing)
        # User k of realization r draws from stream (r << 32) | k, which is
        # unique while r and k fit 32 bits.
        for name in ("realizations", "users"):
            if not 1 <= getattr(self, name) <= 2**32:
                raise ConfigError(f"{name} must be from 1 to 2**32, "
                                  f"got {getattr(self, name)}")
        # Streams key the seed as an unsigned 64-bit word, so -1 would draw
        # the channels of 2**64 - 1, and 2**64 those of 0, under its own row.
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.seed > MASK64:
            raise ConfigError(f"seed must be < 2**64, got {self.seed}")
        for spec_name in _SPEC_FIELDS:
            spec = getattr(self, spec_name)
            if "kind" not in spec:
                raise ConfigError(f"{spec_name} needs a 'kind' field")
            kinds = _SPEC_FIELDS[spec_name]
            kind = spec["kind"]
            if kind not in kinds:
                raise ConfigError(
                    f"{spec_name} kind {kind!r} not one of {sorted(kinds)}"
                )
            extra = set(spec) - kinds[kind] - {"kind"}
            if extra:
                raise ConfigError(f"unknown {spec_name} keys: {sorted(extra)}")
            missing = kinds[kind] - set(spec)
            if missing:
                raise ConfigError(f"{spec_name} missing keys: {sorted(missing)}")
            for key, value in spec.items():
                name = f"{spec_name}.{key}"
                if key in _SPEC_REALS:
                    _real(name, value)
                elif key != "kind" and not isinstance(value, str):
                    raise ConfigError(f"{name} must be a path string, got {value!r}")
        if self.spectrum_spec["kind"] == "cdl":
            for key in ("asd_deg", "asa_deg"):
                concentration_from_spread(self.spectrum_spec[key])
        if self.efficiency_spec["kind"] == "relative_eta":
            eta = self.efficiency_spec["eta"]
            if not 0.0 <= eta <= 1.0:
                raise ConfigError(f"relative efficiency {eta} outside [0, 1]")
        if self.efficiency_spec["kind"] == "sparams" and len(self.spacing_list) > 1:
            # An S-parameter file has one order, which fits one element count.
            raise ConfigError(
                f"efficiency_spec kind 'sparams' needs exactly one spacing, "
                f"got {len(self.spacing_list)}"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["spacing_list"] = list(self.spacing_list)
        return d


_TOP_FIELDS = {f.name for f in fields(ScenarioConfig)}


def _number(name: str, value):
    """``value`` if it is a JSON number: an int or a float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return value


def _real(name: str, value) -> float:
    """``value`` as a float if it is a finite JSON number."""
    try:
        real = float(_number(name, value))
    except OverflowError as exc:  # an int past the float range
        raise ConfigError(f"{name}: {exc}") from None
    if not math.isfinite(real):
        raise ConfigError(f"{name} must be finite, got {real}")
    return real


def _count(name: str, value) -> int:
    if isinstance(_number(name, value), float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value}")
    return int(value)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from a JSON-shaped dict.

    Unknown and missing top-level keys are rejected here; ``ScenarioConfig``
    checks the values, the nested specs' keys included.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(data) - _TOP_FIELDS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    missing = _TOP_FIELDS - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return ScenarioConfig(**data)


def load_config(path) -> ScenarioConfig:
    """Load a ScenarioConfig from a JSON file (read by ``files.read_json``).

    Relative file paths in the nested specs resolve against the directory of
    the config file, so a config runs the same from any working directory.
    """
    config = config_from_dict(read_json(path, ConfigError))
    return _paths_under(config, os.path.dirname(path))


def _paths_under(config: ScenarioConfig, folder: str) -> ScenarioConfig:
    """``config`` with every file path in its specs joined to ``folder``."""
    return replace(config, **{
        name: {k: v if k == "kind" or k in _SPEC_REALS else os.path.join(folder, v)
               for k, v in getattr(config, name).items()}
        for name in _SPEC_FIELDS
    })


def _bundled_data() -> str:
    return str(resources.files("holomimo").joinpath("data"))


def bundled_cdl_path() -> str:
    """Filesystem path of the packaged CDL-B cluster table."""
    return os.path.join(_bundled_data(), "cdl_b.csv")


# The scenario every preset starts from: the 3.5 GHz carrier, a 4x4
# wavelength transmit aperture, a 1x1 wavelength receive aperture, 0 dB SNR,
# 1000 channel realizations, and the spacing sweep {1/2, 1/4, 1/8}
# wavelengths.
_PRESET_BASE = ScenarioConfig(
    carrier_ghz=3.5,
    bs_aperture=4.0,
    ue_aperture=1.0,
    spacing_list=(0.5, 0.25, 0.125),
    spectrum_spec={"kind": "isotropic"},
    pattern_spec={"kind": "uniform"},
    efficiency_spec={"kind": "relative_eta", "eta": 1.0},
    snr_db=0.0,
    realizations=1000,
    users=1,
    seed=0,
)
# Each preset's departures from the base; its file paths name files bundled
# with the package.  The CDL-B table is 3GPP TR 38.901 Table 7.7.1-2, whose
# arrival spread of 22 degrees exceeds the spread mapping's bound: 20 here.
_CDL_B = {"kind": "cdl", "path": "cdl_b.csv", "asd_deg": 10.0, "asa_deg": 20.0}
_PRESETS = {
    "fig3-isotropic": {},
    "fig3-cdlb": {"spectrum_spec": _CDL_B},
    "fig3-hannan": {"efficiency_spec": {"kind": "hannan"}},
    "fig3-dipole": {"pattern_spec": {"kind": "dipole"}},
    "fig4-multiuser": {"spectrum_spec": _CDL_B, "users": 10},
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    """Named single-user and multi-user evaluation scenarios."""
    if name not in _PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    config = replace(_PRESET_BASE, **_PRESETS[name])
    return _paths_under(config, _bundled_data())

"""Scenario configuration: schema, validation, JSON loading, presets."""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .errors import ConfigError, UnknownPreset
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

    def validate(self) -> "ScenarioConfig":
        for name in ("carrier_ghz", "bs_aperture", "ue_aperture", "snr_db"):
            _require_finite(name, getattr(self, name))
        try:
            budget = 10.0 ** (self.snr_db / 10.0)
        except OverflowError:
            budget = math.inf
        if not sys.float_info.min <= budget < math.inf:
            raise ConfigError(
                f"snr_db {self.snr_db} gives a power budget outside the "
                f"normal float range"
            )
        if self.carrier_ghz <= 0:
            raise ConfigError(f"carrier_ghz must be positive, got {self.carrier_ghz}")
        for name, aperture in (
            ("bs_aperture", self.bs_aperture),
            ("ue_aperture", self.ue_aperture),
        ):
            if aperture <= 0:
                raise ConfigError(f"{name} must be positive, got {aperture}")
        if not self.spacing_list:
            raise ConfigError("spacing_list must not be empty")
        for spacing in self.spacing_list:
            _require_finite("spacing", spacing)
            if spacing <= 0:
                raise ConfigError(f"spacing {spacing} must be positive")
            for aperture in (self.bs_aperture, self.ue_aperture):
                grid_count(aperture, spacing)
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if self.users < 1:
            raise ConfigError("users must be >= 1")
        # Streams key the seed as an unsigned 64-bit word, so -1 would draw
        # the channels of 2**64 - 1, and 2**64 those of 0, under its own row.
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.seed > MASK64:
            raise ConfigError(f"seed must be < 2**64, got {self.seed}")
        for spec_name in ("spectrum_spec", "pattern_spec", "efficiency_spec"):
            spec = getattr(self, spec_name)
            if not isinstance(spec, dict) or "kind" not in spec:
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
                if key in _SPEC_REALS:
                    _require_spec_real(f"{spec_name}.{key}", value)
                elif key != "kind" and not isinstance(value, str):
                    raise ConfigError(
                        f"{spec_name}.{key} must be a path string, got {value!r}"
                    )
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
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["spacing_list"] = list(self.spacing_list)
        return d


_TOP_FIELDS = {f.name for f in fields(ScenarioConfig)}


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


def _require_spec_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    _require_finite(name, value)


def _real(key: str, value) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value}")
    return float(value)


def _count(key: str, value) -> int:
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{key} must be an integer, got {value}")
    return int(value)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a config from a JSON-shaped dict.

    Unknown keys are rejected at the top level and inside the nested specs.
    Booleans are rejected as numbers, counts and the seed must be integral,
    and every real value must be finite.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(data) - _TOP_FIELDS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    missing = _TOP_FIELDS - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    try:
        config = ScenarioConfig(
            **{k: _real(k, data[k])
               for k in ("carrier_ghz", "bs_aperture", "ue_aperture", "snr_db")},
            **{k: _count(k, data[k]) for k in ("realizations", "users", "seed")},
            spacing_list=tuple(_real("spacing", s) for s in data["spacing_list"]),
            spectrum_spec=dict(data["spectrum_spec"]),
            pattern_spec=dict(data["pattern_spec"]),
            efficiency_spec=dict(data["efficiency_spec"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    return config.validate()


def load_config(path) -> ScenarioConfig:
    """Load a ScenarioConfig from a JSON file.

    Relative file paths in the nested specs resolve against the directory of
    the config file, so a config runs the same from any working directory.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    config = config_from_dict(data)
    folder = os.path.dirname(path)
    return replace(config, **{
        name: {k: v if k == "kind" or k in _SPEC_REALS else os.path.join(folder, v)
               for k, v in getattr(config, name).items()}
        for name in _SPEC_FIELDS
    })


def bundled_cdl_path() -> str:
    """Filesystem path of the packaged CDL-B cluster table."""
    return str(resources.files("holomimo").joinpath("data/cdl_b.csv"))


PRESET_NAMES = (
    "fig3-isotropic",
    "fig3-cdlb",
    "fig3-hannan",
    "fig3-dipole",
    "fig4-multiuser",
)


def preset(name: str) -> ScenarioConfig:
    """Named single-user and multi-user evaluation scenarios.

    All presets share the 3.5 GHz carrier, a 4x4 wavelength transmit
    aperture, a 1x1 wavelength receive aperture, 0 dB SNR, 1000 channel
    realizations, and the spacing sweep {1/2, 1/4, 1/8} wavelengths.
    """
    if name not in PRESET_NAMES:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    base = ScenarioConfig(
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
    cdl_spec = {
        "kind": "cdl",
        "path": bundled_cdl_path(),
        "asd_deg": 10.0,
        "asa_deg": 20.0,
    }
    if name == "fig3-isotropic":
        config = base
    elif name == "fig3-cdlb":
        config = replace(base, spectrum_spec=cdl_spec)
    elif name == "fig3-hannan":
        config = replace(base, efficiency_spec={"kind": "hannan"})
    elif name == "fig3-dipole":
        config = replace(base, pattern_spec={"kind": "dipole"})
    else:  # fig4-multiuser
        config = replace(base, spectrum_spec=cdl_spec, users=10)
    return config.validate()

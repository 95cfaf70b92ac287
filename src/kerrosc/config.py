"""Scenario configuration: a strict YAML mapping with echoable defaults.

The canonical on-disk form is a nested YAML mapping of scalars and lists.
Parsing fills every documented default, re-applies the physical validity
checks of the owning modules, and rejects unknown keys by name, so
emit(parse(text)) round-trips to an identical configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import yaml

from .driven import DriveSpec, FrequencySpec
from .timemap import MassSpec

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "emit_config",
           "load_config"]

HUSIMI_DEFAULT_TAUS = [0.0, math.pi / 4, math.pi, 2 * math.pi,
                       4 * math.pi, 8 * math.pi]

_DRIVE_ALIASES = {"cos": "cosine", "cosine": "cosine", "zero": "zero",
                  "constant": "constant", "tabulated": "tabulated"}


class ConfigError(ValueError):
    """Configuration text is malformed, has unknown keys, or fails validation."""


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], where: str):
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def _number(node: dict, key: str, where: str, default=None,
            required: bool = False) -> float:
    name = f"{where}.{key}" if where else key
    if key not in node:
        if required:
            raise ConfigError(f"{name}: required key missing")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    return float(value)


def _integer(node: dict, key: str, where: str, default=None) -> int:
    if key not in node:
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        name = f"{where}.{key}" if where else key
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return value


def _complex_pair(node: dict, key: str, where: str, default) -> complex:
    if key not in node:
        return default
    value = node[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if isinstance(value, list) and len(value) == 2 and \
            all(isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in value):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{where}.{key}: expected a number or [re, im] pair, "
                      f"got {value!r}")


def _float_list(node: dict, key: str, where: str, default=None) -> list[float]:
    if key not in node:
        return default
    value = node[key]
    if not isinstance(value, list) or not value or \
            not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value):
        raise ConfigError(f"{where}.{key}: expected a non-empty list of "
                          f"numbers, got {value!r}")
    return [float(v) for v in value]


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully-resolved scenario: every field holds its validated value."""

    omega0: float
    chi: float
    k: float
    alpha: complex
    drive_kind: str
    drive_amplitude: float
    drive_frequency: float
    drive_value: float
    drive_times: tuple[float, ...] | None
    drive_values: tuple[float, ...] | None
    mass_kind: str
    mass_m0: float
    mass_rate: float
    mass_times: tuple[float, ...] | None
    mass_values: tuple[float, ...] | None
    t_end: float
    samples: int
    grid_half_width: float | None
    grid_resolution: int
    husimi_times: tuple[float, ...]
    variances_beta: complex
    variances_xi_min: float
    variances_xi_max: float
    variances_samples: int
    spectrum_n_max: int
    spectrum_times: tuple[float, ...]
    truncation: int | None
    tolerance: float
    revival_threshold: float

    def drive(self) -> DriveSpec:
        if self.drive_kind == "zero":
            return DriveSpec.zero()
        if self.drive_kind == "constant":
            return DriveSpec.constant(self.drive_value)
        if self.drive_kind == "cosine":
            return DriveSpec.cosine(self.drive_amplitude, self.drive_frequency)
        return DriveSpec.tabulated(self.drive_times, self.drive_values)

    def mass(self) -> MassSpec:
        if self.mass_kind == "constant":
            return MassSpec.constant(self.mass_m0)
        if self.mass_kind == "exponential":
            return MassSpec.exponential(self.mass_m0, self.mass_rate)
        return MassSpec.tabulated(self.mass_times, self.mass_values)

    def frequency(self) -> FrequencySpec:
        return FrequencySpec(self.omega0, self.k)

    def half_width(self) -> float:
        if self.grid_half_width is not None:
            return self.grid_half_width
        return abs(self.alpha) + 5.0


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate YAML scenario text, filling documented defaults.

    Raises
    ------
    ConfigError
        Naming the offending key for unknown keys, type mismatches, and
        physical-validity failures.
    """
    try:
        root = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if root is None:
        raise ConfigError("empty config; required keys: model (with "
                          "model.omega0); optional sections: drive, mass, "
                          "time, grid, husimi, variances, spectrum, "
                          "truncation, tolerance, revival_threshold")
    root = _require_mapping(root, "config")
    _reject_unknown(root, {"model", "drive", "mass", "time", "grid", "husimi",
                           "variances", "spectrum", "truncation", "tolerance",
                           "revival_threshold"}, "config")
    if "model" not in root:
        raise ConfigError("missing required section 'model' "
                          "(required key: model.omega0)")

    model = _require_mapping(root["model"], "model")
    _reject_unknown(model, {"omega0", "chi", "k", "alpha"}, "model")
    omega0 = _number(model, "omega0", "model", required=True)
    if omega0 <= 0.0:
        raise ConfigError("model.omega0: must be positive")
    chi = _number(model, "chi", "model", default=0.0)
    if chi < 0.0:
        raise ConfigError("model.chi: must be non-negative")
    k = _number(model, "k", "model", default=0.0)
    if not 0.0 <= k < 0.5:
        raise ConfigError("model.k: frequency modulation 1 + 2k cos(...) "
                          "must stay positive; need 0 <= k < 1/2")
    alpha = _complex_pair(model, "alpha", "model", 0.0j)

    drive_node = root.get("drive", {"kind": "zero"})
    if isinstance(drive_node, str):
        drive_node = {"kind": drive_node}
    drive_node = _require_mapping(drive_node, "drive")
    kind_raw = drive_node.get("kind", "zero")
    if kind_raw not in _DRIVE_ALIASES:
        raise ConfigError(f"drive.kind: unknown kind {kind_raw!r}; expected "
                          f"one of {sorted(set(_DRIVE_ALIASES))}")
    drive_kind = _DRIVE_ALIASES[kind_raw]
    drive_amplitude, drive_frequency, drive_value = 1.0, omega0, 0.0
    drive_times = drive_values = None
    if drive_kind == "zero":
        _reject_unknown(drive_node, {"kind"}, "drive")
    elif drive_kind == "constant":
        _reject_unknown(drive_node, {"kind", "value"}, "drive")
        drive_value = _number(drive_node, "value", "drive", default=1.0)
    elif drive_kind == "cosine":
        _reject_unknown(drive_node, {"kind", "amplitude", "frequency"}, "drive")
        drive_amplitude = _number(drive_node, "amplitude", "drive", default=1.0)
        drive_frequency = _number(drive_node, "frequency", "drive",
                                  default=omega0)
        if drive_frequency <= 0.0:
            raise ConfigError("drive.frequency: must be positive")
    else:
        _reject_unknown(drive_node, {"kind", "times", "values"}, "drive")
        drive_times = _float_list(drive_node, "times", "drive")
        drive_values = _float_list(drive_node, "values", "drive")
        if drive_times is None or drive_values is None:
            raise ConfigError("drive: tabulated kind requires 'times' and "
                              "'values'")

    mass_node = root.get("mass", {"kind": "constant"})
    if isinstance(mass_node, str):
        mass_node = {"kind": mass_node}
    mass_node = _require_mapping(mass_node, "mass")
    mass_kind = mass_node.get("kind", "constant")
    if mass_kind not in ("constant", "exponential", "tabulated"):
        raise ConfigError(f"mass.kind: unknown kind {mass_kind!r}")
    mass_m0, mass_rate = 1.0, 0.0
    mass_times = mass_values = None
    if mass_kind == "constant":
        _reject_unknown(mass_node, {"kind", "m0"}, "mass")
        mass_m0 = _number(mass_node, "m0", "mass", default=1.0)
    elif mass_kind == "exponential":
        _reject_unknown(mass_node, {"kind", "m0", "rate"}, "mass")
        mass_m0 = _number(mass_node, "m0", "mass", default=1.0)
        mass_rate = _number(mass_node, "rate", "mass", default=0.0)
    else:
        _reject_unknown(mass_node, {"kind", "times", "values"}, "mass")
        mass_times = _float_list(mass_node, "times", "mass")
        mass_values = _float_list(mass_node, "values", "mass")
        if mass_times is None or mass_values is None:
            raise ConfigError("mass: tabulated kind requires 'times' and "
                              "'values'")
    if mass_kind in ("constant", "exponential") and mass_m0 <= 0.0:
        raise ConfigError("mass.m0: must be positive")

    time_node = _require_mapping(root.get("time", {}), "time")
    _reject_unknown(time_node, {"t_end", "samples"}, "time")
    t_end = _number(time_node, "t_end", "time",
                    default=8.0 * math.pi / omega0)
    if t_end <= 0.0:
        raise ConfigError("time.t_end: must be positive")
    samples = _integer(time_node, "samples", "time", default=2001)
    if samples < 2:
        raise ConfigError("time.samples: need at least 2")

    grid_node = _require_mapping(root.get("grid", {}), "grid")
    _reject_unknown(grid_node, {"half_width", "resolution"}, "grid")
    grid_half_width = _number(grid_node, "half_width", "grid", default=None)
    if grid_half_width is not None and grid_half_width <= 0.0:
        raise ConfigError("grid.half_width: must be positive")
    grid_resolution = _integer(grid_node, "resolution", "grid", default=201)
    if grid_resolution < 2:
        raise ConfigError("grid.resolution: need at least 2 per axis")

    husimi_node = _require_mapping(root.get("husimi", {}), "husimi")
    _reject_unknown(husimi_node, {"times"}, "husimi")
    husimi_times = _float_list(husimi_node, "times", "husimi",
                               default=list(HUSIMI_DEFAULT_TAUS))
    if any(tau < 0.0 for tau in husimi_times):
        raise ConfigError("husimi.times: snapshot times must be non-negative")

    var_node = _require_mapping(root.get("variances", {}), "variances")
    _reject_unknown(var_node, {"beta", "xi_min", "xi_max", "samples"},
                    "variances")
    variances_beta = _complex_pair(var_node, "beta", "variances", 0.5 + 0.0j)
    variances_xi_min = _number(var_node, "xi_min", "variances", default=0.0)
    variances_xi_max = _number(var_node, "xi_max", "variances",
                               default=2.0 * math.pi)
    if variances_xi_max <= variances_xi_min:
        raise ConfigError("variances.xi_max: must exceed variances.xi_min")
    variances_samples = _integer(var_node, "samples", "variances",
                                 default=1001)
    if variances_samples < 2:
        raise ConfigError("variances.samples: need at least 2")

    spec_node = _require_mapping(root.get("spectrum", {}), "spectrum")
    _reject_unknown(spec_node, {"n_max", "times"}, "spectrum")
    spectrum_n_max = _integer(spec_node, "n_max", "spectrum", default=5)
    if spectrum_n_max < 0:
        raise ConfigError("spectrum.n_max: must be non-negative")
    spectrum_times = _float_list(spec_node, "times", "spectrum",
                                 default=[0.0])

    truncation = root.get("truncation")  # null: automatic sizing
    if truncation is not None:
        truncation = _integer(root, "truncation", "")
        if truncation < 1:
            raise ConfigError("truncation: must be at least 1")
    tolerance = _number(root, "tolerance", "", default=1e-10)
    if tolerance <= 0.0:
        raise ConfigError("tolerance: must be positive")
    revival_threshold = _number(root, "revival_threshold", "", default=0.5)
    if revival_threshold <= 0.0:
        raise ConfigError("revival_threshold: must be positive")

    for name, times in (("drive", drive_times), ("mass", mass_times)):
        if times is not None and (times[0] > 0.0 or times[-1] < t_end):
            raise ConfigError(
                f"{name}.times: tabulated window [{times[0]:g}, "
                f"{times[-1]:g}] must cover the simulation window "
                f"[0, {t_end:g}]")

    cfg = ScenarioConfig(
        omega0=omega0, chi=chi, k=k, alpha=alpha,
        drive_kind=drive_kind, drive_amplitude=drive_amplitude,
        drive_frequency=drive_frequency, drive_value=drive_value,
        drive_times=tuple(drive_times) if drive_times else None,
        drive_values=tuple(drive_values) if drive_values else None,
        mass_kind=mass_kind, mass_m0=mass_m0, mass_rate=mass_rate,
        mass_times=tuple(mass_times) if mass_times else None,
        mass_values=tuple(mass_values) if mass_values else None,
        t_end=t_end, samples=samples,
        grid_half_width=grid_half_width, grid_resolution=grid_resolution,
        husimi_times=tuple(husimi_times),
        variances_beta=variances_beta, variances_xi_min=variances_xi_min,
        variances_xi_max=variances_xi_max, variances_samples=variances_samples,
        spectrum_n_max=spectrum_n_max, spectrum_times=tuple(spectrum_times),
        truncation=truncation, tolerance=tolerance,
        revival_threshold=revival_threshold,
    )
    # Constructing the module specs re-runs their own validity checks.
    for section, spec in (("drive", cfg.drive), ("mass", cfg.mass)):
        try:
            spec()
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return cfg


def emit_config(cfg: ScenarioConfig) -> str:
    """Canonical YAML text with every default materialized."""
    drive: dict = {"kind": cfg.drive_kind}
    if cfg.drive_kind == "constant":
        drive["value"] = cfg.drive_value
    elif cfg.drive_kind == "cosine":
        drive["amplitude"] = cfg.drive_amplitude
        drive["frequency"] = cfg.drive_frequency
    elif cfg.drive_kind == "tabulated":
        drive["times"] = list(cfg.drive_times)
        drive["values"] = list(cfg.drive_values)
    mass: dict = {"kind": cfg.mass_kind}
    if cfg.mass_kind == "constant":
        mass["m0"] = cfg.mass_m0
    elif cfg.mass_kind == "exponential":
        mass["m0"] = cfg.mass_m0
        mass["rate"] = cfg.mass_rate
    else:
        mass["times"] = list(cfg.mass_times)
        mass["values"] = list(cfg.mass_values)
    doc = {
        "model": {
            "omega0": cfg.omega0,
            "chi": cfg.chi,
            "k": cfg.k,
            "alpha": [cfg.alpha.real, cfg.alpha.imag],
        },
        "drive": drive,
        "mass": mass,
        "time": {"t_end": cfg.t_end, "samples": cfg.samples},
        "grid": {"half_width": cfg.grid_half_width,
                 "resolution": cfg.grid_resolution},
        "husimi": {"times": list(cfg.husimi_times)},
        "variances": {
            "beta": [cfg.variances_beta.real, cfg.variances_beta.imag],
            "xi_min": cfg.variances_xi_min,
            "xi_max": cfg.variances_xi_max,
            "samples": cfg.variances_samples,
        },
        "spectrum": {"n_max": cfg.spectrum_n_max,
                     "times": list(cfg.spectrum_times)},
        "truncation": cfg.truncation,
        "tolerance": cfg.tolerance,
        "revival_threshold": cfg.revival_threshold,
    }
    if doc["grid"]["half_width"] is None:
        del doc["grid"]["half_width"]
    if doc["truncation"] is None:
        del doc["truncation"]
    return yaml.safe_dump(doc, sort_keys=False)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)

"""Scenario configuration: a strict YAML mapping with echoable defaults.

The fields of `ScenarioConfig` are the one description of the schema: each
gives its YAML key's section, reader, default, range check and message.
Parsing, the allowed keys of each unknown-key error, the defaults and
`emit_config` derive from them, so emit(parse(text)) round-trips to an
identical configuration.  Parsing also re-runs the drive and mass checks,
and `refuse_unread` the default rule of every key a subcommand does not read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import yaml

from .driven import DriveSpec, FrequencySpec
from .timemap import MassSpec

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "emit_config",
           "load_config", "refuse_unread"]

# section -> (its spec class, whose KINDS give each kind's keys, {alias:
# kind}).  A section with aliases lists every spelling when it refuses a kind.
_SPECS = {"drive": (DriveSpec, {"cos": "cosine"}), "mass": (MassSpec, {})}


class ConfigError(ValueError):
    """Configuration text is malformed, has unknown keys, or fails validation."""


class _Loader(yaml.SafeLoader):
    """yaml.SafeLoader that refuses a key repeated in one mapping, where
    safe_load keeps the last value without a word.  A merge key (<<) may
    still be overridden."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if (isinstance(key_node, yaml.ScalarNode)
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node)
                if key in seen:
                    raise ConfigError(f"{key}: repeated key at line "
                                      f"{key_node.start_mark.line + 1}")
                seen.add(key)
        return super().construct_mapping(node, deep)


def _mapping(node, where: str, allowed: set[str]) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")
    return node


# Readers: (YAML value, key name) -> field value, or a ConfigError naming the
# key.  Every number but a tabulated sample passes the finite check in _floats.

def _floats(value, name: str, expected: str, numbers: list,
            finite: bool = True) -> list[float]:
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in numbers):
        raise ConfigError(f"{name}: expected {expected}, got {value!r}")
    try:
        floats = [float(v) for v in numbers]
    except OverflowError:  # an integer past the float range
        floats = None
    if floats is None or finite and not all(map(math.isfinite, floats)):
        raise ConfigError(f"{name}: must be finite, got {value!r}")
    return floats


def _real(value, name: str) -> float:
    return _floats(value, name, "a number", [value])[0]


def _pair(value, name: str) -> complex:
    pair = value if isinstance(value, list) and len(value) == 2 else [value, 0]
    return complex(*_floats(value, name, "a number or [re, im] pair", pair))


def _list(value, name: str, finite: bool = True) -> tuple[float, ...]:
    numbers = value if isinstance(value, list) and value else [None]
    return tuple(_floats(value, name, "a non-empty list of numbers", numbers,
                         finite))


def _samples(value, name: str) -> tuple[float, ...]:
    # tabulated drive or mass samples: the spec refuses a non-finite one
    # with a message that names its section
    return _list(value, name, finite=False)


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return value


def _kind(value, name: str) -> str:
    cls, aliases = _SPECS[name.partition(".")[0]]
    kind = aliases.get(value, value) if isinstance(value, str) else None
    if kind not in cls.KINDS:
        hint = f"; expected one of {sorted({*cls.KINDS, *aliases})}" if aliases else ""
        raise ConfigError(f"{name}: unknown kind {value!r}{hint}")
    return kind


_REQUIRED = object()
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0.0, "must be non-negative")
_AT_LEAST_2 = (lambda v: v >= 2, "need at least 2")


def _key(section: str, read, default=None, check=None):
    return field(metadata=dict(section=section, read=read, default=default,
                               check=check))


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully-resolved scenario: every field holds its validated value.

    The fields are the schema, in the order `emit_config` writes them.  Each
    `_key` gives the field's section ("" for a top-level key; the YAML key is
    the field name less "<section>_"), its reader, its default and its range
    check as (predicate, message).  A default that depends on other keys is
    a callable of the fields read before it.  A key of an inactive drive or
    mass kind keeps its default.
    """

    omega0: float = _key("model", _real, _REQUIRED, _POSITIVE)
    chi: float = _key("model", _real, 0.0, _NON_NEGATIVE)
    k: float = _key("model", _real, 0.0, (
        lambda v: 0.0 <= v < 0.5, "frequency modulation 1 + 2k cos(...) "
        "must stay positive; need 0 <= k < 1/2"))
    alpha: complex = _key("model", _pair, 0j)
    drive_kind: str = _key("drive", _kind, "zero")
    drive_amplitude: float = _key("drive", _real, 1.0)
    drive_frequency: float = _key("drive", _real, lambda v: v["omega0"],
                                  _POSITIVE)
    drive_value: float = _key("drive", _real, lambda v: (
        1.0 if v["drive_kind"] == "constant" else 0.0))
    drive_times: tuple[float, ...] | None = _key("drive", _samples)
    drive_values: tuple[float, ...] | None = _key("drive", _samples)
    mass_kind: str = _key("mass", _kind, "constant")
    mass_m0: float = _key("mass", _real, 1.0, _POSITIVE)
    mass_rate: float = _key("mass", _real, 0.0)
    mass_times: tuple[float, ...] | None = _key("mass", _samples)
    mass_values: tuple[float, ...] | None = _key("mass", _samples)
    t_end: float = _key("time", _real, lambda v: 8.0 * math.pi / v["omega0"],
                        _POSITIVE)
    samples: int = _key("time", _integer, 2001, _AT_LEAST_2)
    # None: husimi_snapshot's default window, |alpha| + 5
    grid_half_width: float | None = _key("grid", _real, None, _POSITIVE)
    grid_resolution: int = _key("grid", _integer, 201, (
        lambda v: v >= 2, "need at least 2 per axis"))
    husimi_times: tuple[float, ...] = _key("husimi", _list, (
        0.0, math.pi / 4, math.pi, 2 * math.pi, 4 * math.pi, 8 * math.pi), (
        lambda v: min(v) >= 0.0, "snapshot times must be non-negative"))
    variances_beta: complex = _key("variances", _pair, 0.5 + 0j)
    variances_xi_min: float = _key("variances", _real, 0.0)
    variances_xi_max: float = _key("variances", _real, 2.0 * math.pi)
    variances_samples: int = _key("variances", _integer, 1001, _AT_LEAST_2)
    spectrum_n_max: int = _key("spectrum", _integer, 5, _NON_NEGATIVE)
    spectrum_times: tuple[float, ...] = _key("spectrum", _list, (0.0,))
    # null, like an omitted key, asks for automatic sizing
    truncation: int | None = _key(
        "", lambda v, name: v if v is None else _integer(v, name), None,
        (lambda v: v >= 1, "must be at least 1"))
    tolerance: float = _key("", _real, 1e-10, _POSITIVE)
    revival_threshold: float = _key("", _real, 0.5, _POSITIVE)

    def _spec(self, section: str):
        cls, kind = _SPECS[section][0], getattr(self, f"{section}_kind")
        return cls(kind=kind, **{key: getattr(self, f"{section}_{key}")
                                 for key in cls.KINDS[kind]})

    def drive(self) -> DriveSpec:
        return self._spec("drive")

    def mass(self) -> MassSpec:
        return self._spec("mass")

    def frequency(self) -> FrequencySpec:
        return FrequencySpec(self.omega0, self.k)


# section -> {YAML key: its field's metadata and name}, in field order
_SECTIONS: dict[str, dict[str, dict]] = {}
for _field in fields(ScenarioConfig):
    _section = _field.metadata["section"]
    _SECTIONS.setdefault(_section, {})[
        _field.name.removeprefix(_section + "_")] = {**_field.metadata,
                                                     "field": _field.name}


def _value(key: dict, node: dict, label: str, name: str, values=None):
    """node[label] read and checked, or the key's default; errors name `name`."""
    default = key["default"]
    if label not in node:
        if default is _REQUIRED:
            raise ConfigError(f"{name}: required key missing")
        if not callable(default):
            return default
    value = key["read"](node[label] if label in node else default(values), name)
    if key["check"] and value is not None and not key["check"][0](value):
        raise ConfigError(f"{name}: {key['check'][1]}")
    return value


def checked_value(key: str, value, name: str):
    """The top-level key's reader and range check applied to value (a CLI
    override, say); a refusal names `name`."""
    return _value(_SECTIONS[""][key], {key: value}, key, name)


def refuse_unread(cfg: ScenarioConfig, subcommand: str,
                  reads: dict[str, tuple[str, ...]]) -> None:
    """Raise ConfigError for the first key, in schema order, that
    `subcommand` does not read and that cfg sets away from the default the
    schema gives it in this config (drive.frequency: model.omega0, say).
    `reads` maps every subcommand to its keys; a section covers all its own.
    """
    values = vars(cfg)
    for section, keys in _SECTIONS.items():
        for label, key in keys.items():
            name = f"{section}.{label}" if section else label
            readers = [sub for sub, read in reads.items()
                       if name in read or section in read]
            value = values[key["field"]]
            if subcommand in readers or \
                    value == _value(key, {}, label, name, values):
                continue
            raise ConfigError(f"{name}: {_plain(value)!r} is not read by "
                              f"{subcommand} (read by: {', '.join(readers)})")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate YAML scenario text, filling documented defaults.

    Raises
    ------
    ConfigError
        Naming the offending key for unknown or repeated keys, type
        mismatches, and physical-validity failures.
    """
    try:
        root = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    optional = [*_SECTIONS][1:-1] + [*_SECTIONS[""]]  # all but model
    if root is None:
        raise ConfigError("empty config; required keys: model (with model."
                          "omega0); optional sections: " + ", ".join(optional))
    root = _mapping(root, "config", {"model", *optional})
    if "model" not in root:
        raise ConfigError("missing required section 'model' "
                          "(required key: model.omega0)")
    values: dict = {}
    for section, keys in _SECTIONS.items():
        node, active = root, keys  # the top-level keys, checked with root
        if section:
            node = root.get(section, {})
            if section in _SPECS:
                if isinstance(node, str):
                    node = {"kind": node}  # a bare string names the kind
                # a node that is no mapping is refused just below
                kind = _value(keys["kind"], node if isinstance(node, dict)
                              else {}, "kind", f"{section}.kind")
                active = ("kind", *_SPECS[section][0].KINDS[kind])
            node = _mapping(node, section, set(active))
        for label, key in keys.items():
            name = f"{section}.{label}" if section else label
            values[key["field"]] = _value(key, node if label in active else {},
                                          label, name, values)

    # The rules that tie keys together.
    if values["variances_xi_max"] <= values["variances_xi_min"]:
        raise ConfigError("variances.xi_max: must exceed variances.xi_min")
    for section in _SPECS:
        if values[f"{section}_kind"] == "tabulated" and None in (
                values[f"{section}_times"], values[f"{section}_values"]):
            raise ConfigError(f"{section}: tabulated kind requires 'times' "
                              "and 'values'")
    cfg = ScenarioConfig(**values)
    # Constructing the module specs re-runs their own validity checks.
    for section, spec in (("drive", cfg.drive), ("mass", cfg.mass)):
        try:
            spec()
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return cfg


def _plain(value):
    """A field value as YAML writes it: a complex as [re, im], a tuple as a
    list."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    return list(value) if isinstance(value, tuple) else value


def emit_config(cfg: ScenarioConfig) -> str:
    """Canonical YAML text with every default materialized."""
    doc: dict = {}
    for section, keys in _SECTIONS.items():
        out = doc.setdefault(section, {}) if section else doc
        labels = keys
        if section in _SPECS:
            kind = getattr(cfg, keys["kind"]["field"])
            labels = ("kind", *_SPECS[section][0].KINDS[kind])
        for label in labels:
            value = getattr(cfg, keys[label]["field"])
            if value is not None:  # None: an automatic half_width or truncation
                out[label] = _plain(value)
    return yaml.safe_dump(doc, sort_keys=False)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)

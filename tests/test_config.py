import math
import re

import pytest

from kerrosc.config import ConfigError, emit_config, parse_config
from kerrosc.driven import DriveSpec
from kerrosc.timemap import MassSpec

MINIMAL = """
model:
  omega0: 1.0
  chi: 0.25
  alpha: 3.0
drive: cos
"""

EVERY_SECTION = """
model: {omega0: 2.0, chi: 0.1, k: 0.05, alpha: [1.0, 0.5]}
drive: {kind: tabulated, times: [0.0, 2.0, 4.0], values: [0.0, 0.3, 0.0]}
mass: {kind: exponential, m0: 1.5, rate: 0.2}
time: {t_end: 4.0, samples: 401}
grid: {half_width: 6.0, resolution: 101}
husimi: {times: [0.0, 1.0]}
variances: {beta: [0.5, 0.0], xi_min: 0.0, xi_max: 3.0, samples: 31}
spectrum: {n_max: 3, times: [0.0, 0.5]}
truncation: 64
tolerance: 1.0e-9
revival_threshold: 0.6
"""

# emit_config of MINIMAL and EVERY_SECTION: the header block of every output
MINIMAL_EMITTED = """\
model:
  omega0: 1.0
  chi: 0.25
  k: 0.0
  alpha:
  - 3.0
  - 0.0
drive:
  kind: cosine
  amplitude: 1.0
  frequency: 1.0
mass:
  kind: constant
  m0: 1.0
time:
  t_end: 25.132741228718345
  samples: 2001
grid:
  resolution: 201
husimi:
  times:
  - 0.0
  - 0.7853981633974483
  - 3.141592653589793
  - 6.283185307179586
  - 12.566370614359172
  - 25.132741228718345
variances:
  beta:
  - 0.5
  - 0.0
  xi_min: 0.0
  xi_max: 6.283185307179586
  samples: 1001
spectrum:
  n_max: 5
  times:
  - 0.0
tolerance: 1.0e-10
revival_threshold: 0.5
"""

EVERY_SECTION_EMITTED = """\
model:
  omega0: 2.0
  chi: 0.1
  k: 0.05
  alpha:
  - 1.0
  - 0.5
drive:
  kind: tabulated
  times:
  - 0.0
  - 2.0
  - 4.0
  values:
  - 0.0
  - 0.3
  - 0.0
mass:
  kind: exponential
  m0: 1.5
  rate: 0.2
time:
  t_end: 4.0
  samples: 401
grid:
  half_width: 6.0
  resolution: 101
husimi:
  times:
  - 0.0
  - 1.0
variances:
  beta:
  - 0.5
  - 0.0
  xi_min: 0.0
  xi_max: 3.0
  samples: 31
spectrum:
  n_max: 3
  times:
  - 0.0
  - 0.5
truncation: 64
tolerance: 1.0e-09
revival_threshold: 0.6
"""


class TestParse:
    def test_minimal_config_fills_documented_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.omega0 == 1.0
        assert cfg.chi == 0.25
        assert cfg.alpha == 3.0 + 0.0j
        assert cfg.drive_kind == "cosine"
        assert cfg.drive_amplitude == 1.0
        assert cfg.drive_frequency == 1.0  # defaults to omega0
        assert cfg.t_end == pytest.approx(8 * math.pi)
        assert cfg.samples == 2001
        assert cfg.grid_resolution == 201
        assert cfg.tolerance == 1e-10
        assert cfg.truncation is None
        assert cfg.husimi_times[-1] == pytest.approx(8 * math.pi)
        assert cfg.grid_half_width is None

    def test_confinement_bound_rejected(self):
        with pytest.raises(ConfigError, match="model.k"):
            parse_config("model: {omega0: 1.0, k: 0.6}")

    def test_empty_file_lists_required_keys(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config("")

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("model: {omega0: 1.0, frobnicate: 2}")
        with pytest.raises(ConfigError, match="extra"):
            parse_config("model: {omega0: 1.0}\nextra: {}")

    @pytest.mark.parametrize("text, message", [
        ("model: {omega0: 1.0, omega0: 2.0}", "omega0: repeated key at line 1"),
        ("model: {omega0: 1.0, 'omega0': 2.0}",
         "omega0: repeated key at line 1"),
        ("model:\n  omega0: 1.0\ntime: {t_end: 2.0}\nmodel: {omega0: 2.0}\n",
         "model: repeated key at line 4"),
    ], ids=["flow", "quoted", "section"])
    def test_repeated_key_refused_naming_its_line(self, text, message):
        # safe_load would keep the last value without a word
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)

    def test_merge_key_may_be_overridden(self):
        cfg = parse_config("model: {<<: {omega0: 1.0, chi: 0.1}, omega0: 2.0}")
        assert (cfg.omega0, cfg.chi) == (2.0, 0.1)

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="omega0"):
            parse_config("model: {omega0: fast}")
        with pytest.raises(ConfigError, match="samples"):
            parse_config("model: {omega0: 1.0}\ntime: {samples: 10.5}")

    def test_complex_alpha_forms(self):
        cfg = parse_config("model: {omega0: 1.0, alpha: [1.0, -2.0]}")
        assert cfg.alpha == 1.0 - 2.0j

    def test_physical_validation_reapplied(self):
        with pytest.raises(ConfigError, match="omega0"):
            parse_config("model: {omega0: -1.0}")
        with pytest.raises(ConfigError, match="chi"):
            parse_config("model: {omega0: 1.0, chi: -0.5}")
        with pytest.raises(ConfigError):
            parse_config("model: {omega0: 1.0}\nmass: {kind: exponential, m0: -1}")

    def test_tabulated_drive_requires_samples(self):
        with pytest.raises(ConfigError, match="tabulated"):
            parse_config("model: {omega0: 1.0}\ndrive: {kind: tabulated}")

    def test_negative_snapshot_times_rejected(self):
        with pytest.raises(ConfigError, match="husimi.times"):
            parse_config("model: {omega0: 1.0}\nhusimi: {times: [-1.0]}")

    @pytest.mark.parametrize("text, message", [
        ("model: [1.0]", "model: expected a mapping, got list"),
        ("model: {chi: 0.1}", "model.omega0: required key missing"),
        ("time: {t_end: 1.0}", "missing required section 'model' "
                               "(required key: model.omega0)"),
        ("model: {omega0: 1.0}\nvariances: {xi_min: 2.0, xi_max: 2.0}",
         "variances.xi_max: must exceed variances.xi_min"),
    ], ids=["section-not-mapping", "omega0-missing", "model-missing",
            "xi-range-empty"])
    def test_structural_refusals_name_the_key(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text)

    def test_bad_yaml_reported(self):
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("model: [unclosed")

    @pytest.mark.parametrize("text, key", [
        ("model: {omega0: .nan}", "model.omega0"),
        ("model: {omega0: .inf}", "model.omega0"),
        ("model: {omega0: 1.0}\ntime: {t_end: .inf}", "time.t_end"),
        ("model: {omega0: 1.0}\nhusimi: {times: [.nan]}", "husimi.times"),
        ("model: {omega0: 1.0}\ngrid: {half_width: .nan}", "grid.half_width"),
        ("model: {omega0: 1.0}\ntolerance: .nan", "tolerance"),
        ("model: {omega0: 1" + "0" * 400 + "}", "model.omega0"),
    ], ids=["omega0-nan", "omega0-inf", "t_end-inf", "husimi-times-nan",
            "half_width-nan", "tolerance-nan", "omega0-past-float-range"])
    def test_non_finite_number_refused_by_key(self, text, key):
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(key)}: must be finite, got "):
            parse_config(text)

    @pytest.mark.parametrize("section", ["drive", "mass"])
    def test_non_scalar_kind_refused_by_key(self, section):
        with pytest.raises(ConfigError,
                           match=rf"^{section}\.kind: unknown kind \[1\]"):
            parse_config(f"model: {{omega0: 1.0}}\n{section}: {{kind: [1]}}")

    @pytest.mark.parametrize("section, kind, keys, spec", [
        ("drive", "zero", "", DriveSpec.zero()),
        ("drive", "constant", ", value: 0.5", DriveSpec.constant(0.5)),
        ("drive", "cos", ", amplitude: 0.5, frequency: 2.0",
         DriveSpec.cosine(0.5, 2.0)),
        ("drive", "tabulated", ", times: [0, 9], values: [1, 2]",
         DriveSpec.tabulated([0, 9], [1, 2])),
        ("mass", "constant", ", m0: 2.0", MassSpec.constant(2.0)),
        ("mass", "exponential", ", m0: 2.0, rate: 0.1",
         MassSpec.exponential(2.0, 0.1)),
        ("mass", "tabulated", ", times: [0, 9], values: [1, 2]",
         MassSpec.tabulated([0, 9], [1, 2])),
    ], ids=["drive-zero", "drive-constant", "drive-cos", "drive-tabulated",
            "mass-constant", "mass-exponential", "mass-tabulated"])
    def test_each_kind_takes_the_keys_its_spec_declares(self, section, kind,
                                                         keys, spec):
        text = (f"model: {{omega0: 1.0}}\ntime: {{t_end: 9.0}}\n"
                f"{section}: {{kind: {kind}{keys}}}")
        assert getattr(parse_config(text), section)() == spec
        allowed = sorted({"kind", *spec.KINDS[spec.kind]})
        with pytest.raises(ConfigError, match=re.escape(
                f"{section}: unknown key(s) ['bogus']; allowed: {allowed}")):
            parse_config(text[:-1] + ", bogus: 1}")


class TestRoundTrip:
    def test_emit_then_parse_is_identity(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(emit_config(cfg)) == cfg

    def test_round_trip_with_every_section(self):
        text = """
model: {omega0: 2.0, chi: 0.1, k: 0.05, alpha: [1.0, 0.5]}
drive: {kind: tabulated, times: [0.0, 2.0, 4.0], values: [0.0, 0.3, 0.0]}
mass: {kind: exponential, m0: 1.5, rate: 0.2}
time: {t_end: 4.0, samples: 401}
grid: {half_width: 6.0, resolution: 101}
husimi: {times: [0.0, 1.0]}
variances: {beta: [0.5, 0.0], xi_min: 0.0, xi_max: 3.0, samples: 31}
spectrum: {n_max: 3, times: [0.0, 0.5]}
truncation: 64
tolerance: 1.0e-9
revival_threshold: 0.6
"""
        cfg = parse_config(text)
        assert parse_config(emit_config(cfg)) == cfg
        assert cfg.mass().kind == "exponential"
        assert cfg.drive().kind == "tabulated"

    @pytest.mark.parametrize("text, emitted", [
        (MINIMAL, MINIMAL_EMITTED), (EVERY_SECTION, EVERY_SECTION_EMITTED),
    ], ids=["minimal", "every-section"])
    def test_emitted_text_is_pinned(self, text, emitted):
        # round-trip equality alone misses a reordered or reformatted header
        assert emit_config(parse_config(text)) == emitted

    def test_emitted_text_is_deterministic(self):
        cfg = parse_config(MINIMAL)
        assert emit_config(cfg) == emit_config(cfg)

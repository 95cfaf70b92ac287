import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from kerrosc import cli
from kerrosc.cli import _model_params, _write_table, main
from kerrosc.config import emit_config, load_config
from kerrosc.evolution import evolved_state, integrate_wei_norman
from kerrosc.fock import _BLOCK_CELLS, coherent_state
from kerrosc.oracle import _exact_blocks, fidelity, integrate_exact

# The keys of the Wei-Norman solve, which simulate, oracle, autocorr and
# husimi read (husimi all but time.t_end: it solves to its last snapshot).
# A subcommand refuses a key it does not read, so each has its config in
# CONFIGS; only oracle reads tolerance.
FAST_MODEL = """
model:
  omega0: 1.0
  chi: 0.25
  alpha: 1.0
drive: cos
time: {t_end: 3.0, samples: 121}
"""

ORACLE_MODEL = FAST_MODEL + "tolerance: 1.0e-8\n"

# A resonant drive without the Kerr term pumps the amplitude: 30 levels hold
# the initial state but not the state at t = 12.
PUMPED_MODEL = """
model: {omega0: 1.0, chi: 0.0, alpha: 1.0}
drive: cos
time: {t_end: 12.0, samples: 121}
tolerance: 1.0e-8
"""

TIMEMAP_MODEL = """
model: {omega0: 1.0}
mass: {kind: exponential, m0: 1.0, rate: 0.3}
time: {t_end: 2.0, samples: 41}
"""

TABULATED_DRIVE = """
drive: {kind: tabulated, times: [0.0, 1.0, 2.0, 3.0],
        values: [0.0, 0.4, -0.2, 0.3]}
"""

TABULATED_DRIVE_MODEL = ("model: {omega0: 1.0, chi: 0.1}" + TABULATED_DRIVE
                         + "time: {t_end: 3.0, samples: 61}\n")

# Each subcommand's config, of keys it reads.
CONFIGS = {
    "simulate": FAST_MODEL,
    "oracle": ORACLE_MODEL,
    "variances": "model: {omega0: 1.0}\nvariances: {samples: 101}\n",
    "autocorr": FAST_MODEL,
    "husimi": FAST_MODEL.replace("t_end: 3.0, ", "")
    + "grid: {resolution: 61}\nhusimi: {times: [0.0, 1.5]}\n",
    "spectrum": "model: {omega0: 1.0}\ndrive: cos\n",
    "timemap": TIMEMAP_MODEL,
}


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(FAST_MODEL)
    return path


@pytest.fixture()
def config_of(tmp_path):
    """command -> the path of a file holding CONFIGS[command]."""
    def write(command):
        path = tmp_path / f"{command}.yaml"
        path.write_text(CONFIGS[command])
        return path
    return write


def read_table(path):
    header, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            rows.append(line)
    columns = rows[0].split(",")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    return header, columns, data


class TestSubcommands:
    def test_simulate_writes_trajectory_table(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        header, columns, data = read_table(out / "simulate.csv")
        assert columns == ["t", "tau", "re_x1", "im_x1", "re_x2", "im_x2",
                           "re_x3", "im_x3", "re_eta", "im_eta", "norm"]
        assert data.shape == (121, 11)
        assert data[0, 0] == 0.0
        assert abs(data[0, 8] - 1.0) < 1e-12  # eta(0) = alpha
        assert np.abs(data[:, 10] - 1.0).max() < 1e-6
        assert any("config:" in h for h in header)

    def test_simulate_deterministic_bodies(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg_file), "--out", str(out1)])
        main(["simulate", "--config", str(cfg_file), "--out", str(out2)])
        assert (out1 / "simulate.csv").read_bytes() == \
            (out2 / "simulate.csv").read_bytes()

    def test_oracle_reports_fidelity_column(self, config_of, tmp_path):
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(config_of("oracle")),
                     "--out", str(out)]) == 0
        header, columns, data = read_table(out / "oracle.csv")
        assert any(h.startswith("# oracle_steps: accepted=") for h in header)
        assert columns[-2:] == ["norm_drift", "fidelity"]
        assert data[0, -1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(data[:, -1] <= 1.0 + 1e-9)
        assert np.all(data[:, -2] <= 1e-8)

    def test_oracle_fidelity_matches_per_sample_states(self, config_of,
                                                       tmp_path):
        cfg_file = config_of("oracle")
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg_file), "--out", str(out),
                     "--trunc", "30"]) == 0
        header, _, data = read_table(out / "oracle.csv")
        cfg = load_config(cfg_file)
        params = _model_params(cfg)
        sol = integrate_wei_norman(params, cfg.t_end, samples=cfg.samples)
        run = integrate_exact(params, coherent_state(params.alpha, 30),
                              cfg.t_end, tol=cfg.tolerance,
                              sample_times=sol.times)
        loop = [fidelity(run.state_at(i),
                         evolved_state(sol, float(t), 30))
                for i, t in enumerate(run.times)]
        np.testing.assert_allclose(data[:, -1], loop, rtol=0, atol=1e-12)
        # the drift column, reduced block by block, is the whole run's
        # |norm - 1| as written ("%.12g")
        drift = np.abs(np.linalg.norm(run.states, axis=1) - 1.0)
        np.testing.assert_array_equal(data[:, -2],
                                      [float("%.12g" % v) for v in drift])
        # the oracle_steps header is the same run's StepRecord
        line, = (h for h in header if h.startswith("# oracle_steps: "))
        steps = dict(kv.split("=") for kv in line.split(": ", 1)[1].split())
        assert steps == {"accepted": str(run.steps.accepted),
                         "rejected": str(run.steps.rejected),
                         "budget": f"{run.steps.budget:g}"}
        assert run.steps.accepted > 0 and run.steps.budget == cfg.tolerance

    def test_oracle_summary_keys_equal_the_columns(self, config_of, tmp_path):
        # fidelity_min is the fidelity column's minimum and its first time,
        # norm_drift_max the drift column's maximum, the same in both formats
        metas = {}
        for fmt in ("csv", "json"):
            assert main(["oracle", "--config", str(config_of("oracle")),
                         "--out", str(tmp_path / fmt), "--format", fmt]) == 0
            metas[fmt] = read_meta(tmp_path / fmt / f"oracle.{fmt}")
        doc = json.loads((tmp_path / "json" / "oracle.json").read_text())
        data = np.array(doc["rows"])
        fid = data[:, doc["columns"].index("fidelity")]
        drift = data[:, doc["columns"].index("norm_drift")]
        k = int(np.argmin(fid))
        value, t = metas["json"]["fidelity_min"].split(" at t=")
        assert (float(value), float(t)) == (fid[k], data[k, 0])
        assert metas["json"]["norm_drift_max"] == drift.max()
        assert metas["csv"]["fidelity_min"].strip() == \
            metas["json"]["fidelity_min"]
        assert float(metas["csv"]["norm_drift_max"]) == drift.max()

    def test_oracle_memory_does_not_grow_with_levels(self, tmp_path):
        # each block of exact states is reduced and dropped: from 60 to 240
        # levels at 2,000 samples the traced peak grows by less than one
        # block of states (a run holding them all grows by 6.1 MB)
        path = tmp_path / "scenario.yaml"
        path.write_text(ORACLE_MODEL.replace("samples: 121",
                                             "samples: 2000"))
        cfg = load_config(path)

        def write(stem, columns, rows, extra_meta):
            pass

        cli.run_oracle(replace(cfg, truncation=60), write)  # warm-up
        peaks = []
        for trunc in (60, 240):
            tracemalloc.start()
            try:
                cli.run_oracle(replace(cfg, truncation=trunc), write)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < _BLOCK_CELLS * 16, peaks

    def test_exact_blocks_memory_does_not_grow_with_samples(self, config_of):
        # the exact route alone, without the Wei-Norman solve: from 500 to
        # 2,000 samples at 60 levels the traced peak grows by less than one
        # block of states (holding all 2,000 takes 1.9 MB)
        cfg = load_config(config_of("oracle"))
        params = _model_params(cfg)
        psi0 = coherent_state(params.alpha, 60)

        def take(part, states):
            pass

        grids = [np.linspace(0.0, cfg.t_end, n) for n in (50, 500, 2000)]
        _exact_blocks(params, psi0, cfg.t_end, cfg.tolerance, grids[0],
                      take)  # warm-up
        peaks = []
        for times in grids[1:]:
            tracemalloc.start()
            try:
                _exact_blocks(params, psi0, cfg.t_end, cfg.tolerance, times,
                              take)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < _BLOCK_CELLS * 16, peaks

    def test_variances_reproduces_closed_form(self, config_of, tmp_path):
        out = tmp_path / "out"
        assert main(["variances", "--config", str(config_of("variances")),
                     "--out", str(out)]) == 0
        _, columns, data = read_table(out / "variances.csv")
        assert columns == ["xi", "ratio_q", "ratio_p"]
        assert data[0, 1] == pytest.approx(1.0)  # xi = 0 baseline
        assert data[0, 2] == pytest.approx(1.0)
        assert data.shape[0] == 101

    def test_autocorr_columns_and_revival_metadata(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert main(["autocorr", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        header, columns, data = read_table(out / "autocorr.csv")
        assert columns == ["t", "tau", "re_F", "im_F", "abs2_F"]
        assert data[0, 4] == pytest.approx(1.0, abs=1e-10)
        assert any("revival_times" in h for h in header)

    def test_husimi_grids_and_sidecars(self, config_of, tmp_path):
        out = tmp_path / "out"
        assert main(["husimi", "--config", str(config_of("husimi")),
                     "--out", str(out)]) == 0
        _, columns, data = read_table(out / "husimi_00.csv")
        assert columns == ["x", "y", "Q"]
        assert data.shape == (61 * 61, 3)
        meta = json.loads((out / "husimi_00.meta.json").read_text())
        assert meta["snapshot_tau"] == 0.0
        assert abs(meta["total_mass"] - 1.0) < 1e-3
        assert (out / "husimi_01.csv").exists()

    def test_husimi_emits_the_config_once_per_run(self, config_of, tmp_path,
                                                  monkeypatch):
        cfg_file = config_of("husimi")
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return emit_config(cfg)

        monkeypatch.setattr(cli, "emit_config", counted)
        out = tmp_path / "out"
        assert main(["husimi", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        text = emit_config(load_config(cfg_file))
        header = "# config:\n" + "".join(
            f"#   {line}\n" for line in text.rstrip("\n").split("\n"))
        for idx in range(2):  # the snapshots at tau = 0 and 1.5
            assert header in (out / f"husimi_{idx:02d}.csv").read_text()
            sidecar = json.loads(
                (out / f"husimi_{idx:02d}.meta.json").read_text())
            assert sidecar["config"] == text

    def test_spectrum_table(self, config_of, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(config_of("spectrum")),
                     "--out", str(out)]) == 0
        _, columns, data = read_table(out / "spectrum.csv")
        assert columns == ["n", "t", "E_n", "lambda_t"]
        # n = 0 at t = 0 with e(0) = 1, Omega = 1: E = 1/2 - lambda^2
        lam = 1.0 / math.sqrt(2.0)
        assert data[0, 2] == pytest.approx(0.5 - lam ** 2)

    def test_spectrum_table_matches_a_per_point_loop(self, tmp_path):
        cfg = tmp_path / "spec.yaml"
        cfg.write_text("model: {omega0: 1.2, k: 0.2}\n"
                       "drive: {kind: cos, amplitude: 0.6, frequency: 0.7}\n"
                       "spectrum: {n_max: 4, times: [0.0, 0.3, 1.7, 2.2]}\n")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
        rows = json.loads((out / "spectrum.json").read_text())["rows"]
        expected = []
        for t in (0.0, 0.3, 1.7, 2.2):
            omega = 1.2 * (1.0 + 0.4 * math.cos(2.4 * t))
            lam = 0.6 * math.cos(0.7 * t) / (omega * math.sqrt(2.0 * omega))
            expected += [(n, t, (n + 0.5 - lam ** 2) * omega, lam)
                         for n in range(5)]
        np.testing.assert_allclose(rows, expected, rtol=1e-14, atol=1e-16)

    def test_timemap_table(self, tmp_path):
        cfg = tmp_path / "tm.yaml"
        cfg.write_text(TIMEMAP_MODEL)
        out = tmp_path / "out"
        assert main(["timemap", "--config", str(cfg), "--out", str(out)]) == 0
        _, columns, data = read_table(out / "timemap.csv")
        assert columns[:4] == ["t", "tau", "mass", "omega_star"]
        assert "det" in columns
        t = data[-1, 0]
        assert data[-1, 1] == pytest.approx((1 - math.exp(-0.3 * t)) / 0.3)
        assert np.abs(data[:, columns.index("det")] - 1.0).max() < 1e-10

    def test_json_format(self, config_of, tmp_path):
        out = tmp_path / "out"
        assert main(["variances", "--config", str(config_of("variances")),
                     "--out", str(out), "--format", "json"]) == 0
        doc = json.loads((out / "variances.json").read_text())
        assert doc["columns"] == ["xi", "ratio_q", "ratio_p"]
        assert len(doc["rows"]) == 101
        assert "config" in doc["meta"]


RUN_KEYS = ["generator", "subcommand", "tolerance", "truncation", "config"]


def read_meta(path):
    """A written table's metadata in the order written; CSV values as text."""
    if path.suffix == ".json":
        return json.loads(path.read_text())["meta"]
    return dict(line[2:].partition(":")[::2]
                for line in path.read_text().splitlines()
                if line.startswith("# ") and not line.startswith("#   "))


class TestOutputPath:
    OWN_KEYS = {"simulate": [],
                "oracle": ["oracle_steps", "fidelity_min", "norm_drift_max"],
                "variances": [],
                "autocorr": ["revival_times"],
                "husimi": ["snapshot_tau", "snapshot_t"], "spectrum": [],
                "timemap": []}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", list(OWN_KEYS))
    def test_run_keys_then_own_keys_and_paths_in_order(
            self, config_of, tmp_path, capsys, command, fmt):
        out = tmp_path / "out"
        assert main([command, "--config", str(config_of(command)),
                     "--out", str(out),
                     "--format", fmt]) == 0
        if command == "husimi":  # each table before its sidecar
            names = [name for idx in range(2) for name in (
                f"husimi_{idx:02d}.{fmt}", f"husimi_{idx:02d}.meta.json")]
        else:
            names = [f"{command}.{fmt}"]
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(out / name) for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        for name in names:
            path = out / name
            if name.endswith(".meta.json"):
                sidecar = json.loads(path.read_text())
                assert list(sidecar) == ["snapshot_tau", "snapshot_t",
                                         "total_mass", *RUN_KEYS[2:]]
                # the resolved truncation, as in the table's header
                table = read_meta(out / name.replace(".meta.json", f".{fmt}"))
                assert str(table["truncation"]).strip() == \
                    str(sidecar["truncation"])
            else:
                assert list(read_meta(path)) == \
                    RUN_KEYS + self.OWN_KEYS[command]


class TestWriteTable:
    # Columns a, c and d hold at most half as many distinct values as rows,
    # so each of their distinct values is formatted once: a holds 0.0 beside
    # -0.0, c a NaN of either sign, d one value throughout.  b is mostly
    # distinct and is formatted value by value.
    ROWS = np.array([
        [math.nan, math.inf, -math.inf, 2.5],
        [-0.0, 5e-324, 1e300, 2.5],
        [3.0, -17.0, 2.0 ** 60, 2.5],
        [0.1, -1.0 / 3.0, 123456789012.345678, 2.5],
        [0.0, 5e-324, 1e300, 2.5],
        [-0.0, 7.0, -math.inf, 2.5],
        [0.0, -1e-300, -math.nan, 2.5],
        [3.0, 1.0 / 7.0, 1e300, 2.5],
        [math.nan, 2.0 ** 60, -math.inf, 2.5],
        [0.1, math.inf, 2.0 ** 60, 2.5],
    ])
    COLUMNS = ["a", "b", "c", "d"]
    META = {"generator": "test", "config": "a: 1\nb: 2\n"}

    def test_csv_body_equals_the_per_value_format(self, tmp_path):
        # ROWS once, then tiled past three blocks of rows with the block
        # edges at different rows of ROWS; b, scaled by its tile's number,
        # stays mostly distinct
        for tiles in (1, 3 * _BLOCK_CELLS // 40 + 1):
            rows = np.tile(self.ROWS, (tiles, 1))
            rows[:, 1] *= np.repeat(np.arange(1.0, tiles + 1), len(self.ROWS))
            assert tiles == 1 or len(rows) > 3 * (_BLOCK_CELLS // 4)
            path = tmp_path / "t.csv"
            _write_table(path, self.COLUMNS, rows, self.META, "csv")
            expected = "".join(",".join(f"{v:.12g}" for v in row) + "\n"
                               for row in rows.tolist())
            assert path.read_bytes() == (
                "# generator: test\n# config:\n#   a: 1\n#   b: 2\na,b,c,d\n"
                + expected).encode()

    def test_csv_memory_does_not_grow_with_rows(self, tmp_path):
        # writing 20 blocks of rows takes less than one block's traced peak
        # more than writing 2 blocks
        rng = np.random.default_rng(5)
        columns = [f"c{j}" for j in range(13)]
        block = _BLOCK_CELLS // len(columns)
        peaks = []
        for rows in (block, 2 * block, 20 * block):
            table = rng.random((rows, len(columns)))
            tracemalloc.start()
            try:
                _write_table(tmp_path / "t.csv", columns, table, self.META,
                             "csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, short, long = peaks
        assert long - short < one, peaks

    def test_json_rows_equal_the_per_value_floats(self, tmp_path):
        path = tmp_path / "t.json"
        _write_table(path, self.COLUMNS, self.ROWS, self.META, "json")
        expected = json.dumps(
            {"meta": self.META, "columns": self.COLUMNS,
             "rows": [[float(v) for v in row] for row in self.ROWS]},
            indent=1) + "\n"
        assert path.read_text(encoding="utf-8") == expected


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("model: {omega0: 1.0, k: 0.6}")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)]) == 2

    def test_numerical_failure_exit_3(self, config_of, tmp_path):
        # forced truncation far below the state support
        assert main(["oracle", "--config", str(config_of("oracle")),
                     "--out", str(tmp_path), "--trunc", "12"]) == 3

    def test_boundary_reached_mid_run_exit_3_naming_t(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "pumped.yaml"
        cfg.write_text(PUMPED_MODEL)
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path),
                     "--trunc", "30"]) == 3
        found = re.match(r"error\[oracle\]: support reached the truncation "
                         r"boundary at t=(\S+) ", capsys.readouterr().err)
        assert found and 0.0 < float(found[1]) < 12.0
        assert not (tmp_path / "oracle.csv").exists()

    def test_strong_kerr_runs_silently(self, tmp_path, capsys):
        # chi/omega0 = 1 is a model like any other: success writes nothing
        # to stderr
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        assert main(["simulate", "--config",
                     str(scenarios / "autocorr_kerr_unit.yaml"),
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_modulated_frequency_rejected_for_dynamics(self, tmp_path):
        cfg = tmp_path / "k.yaml"
        cfg.write_text("model: {omega0: 1.0, k: 0.2}")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        # frozen-time quantities still accept nonzero k
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0

    def test_tolerance_override_validated(self, cfg_file, tmp_path):
        assert main(["oracle", "--config", str(cfg_file),
                     "--out", str(tmp_path), "--tol", "-1.0"]) == 2

    @pytest.mark.parametrize("command, flag, value, message", [
        ("oracle", "--tol", "nan", "must be finite, got nan"),
        ("oracle", "--tol", "inf", "must be finite, got inf"),
        ("husimi", "--trunc", "-3", "must be at least 1"),
        ("oracle", "--trunc", "0", "must be at least 1"),
        ("oracle", "--tol", "0", "must be positive"),
        ("oracle", "--tol", "-1", "must be positive"),
    ], ids=["tol-nan", "tol-inf", "trunc-negative", "trunc-zero",
            "oracle-tol-zero", "oracle-tol-negative"])
    def test_overrides_pass_the_config_checks(self, config_of, tmp_path,
                                              capsys, command, flag, value,
                                              message):
        # --tol and --trunc are checked like the tolerance and truncation keys
        assert main([command, "--config", str(config_of(command)),
                     "--out", str(tmp_path), flag, value]) == 2
        assert f"error[config]: {flag}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--tol"), ("simulate", "--trunc"),
        ("autocorr", "--tol"), ("autocorr", "--trunc"), ("husimi", "--tol"),
        ("variances", "--tol"), ("variances", "--trunc"),
        ("spectrum", "--tol"), ("spectrum", "--trunc"),
        ("timemap", "--tol"), ("timemap", "--trunc"),
    ])
    def test_unread_override_is_refused(self, cfg_file, tmp_path, capsys,
                                        command, flag):
        # a value no runner reads would change only the header
        with pytest.raises(SystemExit) as stop:
            main([command, "--config", str(cfg_file),
                  "--out", str(tmp_path / "out"), flag, "5"])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_exit_2(self, config_of, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main(["variances", "--config", str(config_of("variances")),
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error[config]: --out: {out}: File exists\n")
        assert out.read_text() == "kept\n"

    def test_overdamped_timemap_names_mass_rate(self, tmp_path, capsys):
        cfg = tmp_path / "od.yaml"
        cfg.write_text("model: {omega0: 1.0}\n"
                       "mass: {kind: exponential, m0: 1.0, rate: 2.5}\n")
        assert main(["timemap", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error[config]: mass.rate: overdamped" in err

    def test_husimi_past_tabulated_drive_names_husimi_times(self, tmp_path,
                                                            capsys):
        cfg = tmp_path / "tab.yaml"
        cfg.write_text(TABULATED_DRIVE_MODEL)
        # the default snapshot times reach 8 pi, past the window's end at 3,
        # and refuse only the subcommand that runs them
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        cfg.write_text(TABULATED_DRIVE_MODEL.replace("t_end: 3.0, ", ""))
        assert main(["husimi", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error[config]: husimi.times: drive sampled outside" in err

    def test_spectrum_past_tabulated_drive_names_spectrum_times(self, tmp_path,
                                                                capsys):
        cfg = tmp_path / "tab.yaml"
        cfg.write_text("model: {omega0: 1.0}" + TABULATED_DRIVE
                       + "spectrum: {times: [0.0, 1.5, 4.0]}\n")
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error[config]: spectrum.times: drive sampled outside" in err

    @pytest.mark.parametrize("command, text, message", [
        *((command, TABULATED_DRIVE_MODEL.replace("t_end: 3.0", "t_end: 5.0"),
           "time.t_end: drive sampled outside its tabulated window [0, 3]")
          for command in ("simulate", "oracle", "autocorr")),
        ("timemap",
         "model: {omega0: 1.0}\n"
         "mass: {kind: tabulated, times: [0.0, 1.0, 2.0, 3.0],\n"
         "       values: [1.0, 1.1, 1.2, 1.3]}\n"
         "time: {t_end: 5.0, samples: 41}\n",
         "time.t_end: mass sampled outside its tabulated window [0, 3]"),
        ("husimi",
         "model: {omega0: 1.0, chi: 0.1}\n"
         "drive: {kind: tabulated, times: [0.5, 1.0, 2.0],\n"
         "        values: [0.0, 0.4, -0.2]}\n"
         "husimi: {times: [1.0, 2.0]}\n",
         "husimi.times: drive sampled outside its tabulated window [0.5, 2]"),
    ], ids=["simulate", "oracle", "autocorr", "timemap", "husimi-start"])
    def test_tabulated_window_missing_a_sampled_time_names_its_key(
            self, tmp_path, capsys, command, text, message):
        # each run checks the window at the times it samples: [0, t_end]
        # for the dynamics and the time map, [0, last snapshot] for husimi,
        # and names the key those times come from before writing anything
        cfg = tmp_path / "tab.yaml"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error[config]: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, keys", [
        ("husimi", "grid: {resolution: 21}\nhusimi: {times: [0.0, 1.5, 3.0]}\n"),
        ("spectrum", "spectrum: {times: [0.0, 1.5, 3.0]}\n"),
    ])
    def test_tabulated_window_covering_the_sampled_times_runs(
            self, tmp_path, command, keys):
        # the window [0, 3] misses time.t_end's default, 8 pi, which
        # neither subcommand reads
        cfg = tmp_path / "tab.yaml"
        cfg.write_text("model: {omega0: 1.0}" + TABULATED_DRIVE + keys)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command, text, message", [
        ("spectrum",
         "model: {omega0: 1.0, chi: 0.1}\n"
         "drive: {kind: tabulated, times: [0, 20, 10, 30],\n"
         "        values: [0.0, 0.4, -0.2, 0.3]}\n"
         "time: {t_end: 3.0, samples: 61}\n",
         "drive: tabulated drive times must increase strictly"),
        ("timemap",
         "model: {omega0: 1.0}\n"
         "mass: {kind: tabulated, times: [0.0, 1.0, 2.0, 3.0],\n"
         "       values: [1.0, 0.0, 1.2, 1.3]}\n"
         "time: {t_end: 2.0, samples: 41}\n",
         "mass: mass samples must be positive"),
        ("simulate",
         "model: {omega0: 1.0, chi: 0.1}\n"
         "drive: {kind: tabulated, times: [0.0, 1.0, 2.0, 3.0],\n"
         "        values: [0.0, .nan, -0.2, 0.3]}\n"
         "time: {t_end: 3.0, samples: 61}\n",
         "drive: "),
    ], ids=["unsorted-drive-times", "non-positive-mass", "nan-drive-knot"])
    def test_spec_check_failure_names_its_section(self, tmp_path, capsys,
                                                  command, text, message):
        # the drive and mass specs' own checks, re-run when the config is
        # parsed, end in exit 2 like every other config error
        cfg = tmp_path / "spec.yaml"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert f"error[config]: {message}" in capsys.readouterr().err

    def test_autocorr_needs_three_samples(self, tmp_path, capsys):
        # revival detection needs a point on each side of an extremum
        cfg = tmp_path / "two.yaml"
        cfg.write_text(FAST_MODEL.replace("samples: 121", "samples: 2"))
        assert main(["autocorr", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error[config]: time.samples: revival detection needs at least "
            "3\n")
        assert not (tmp_path / "out").exists()


def with_key(text: str, key: str, value) -> str:
    """Config text with the dotted key set to value."""
    doc = yaml.safe_load(text)
    section, _, label = key.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[label] = value
    return yaml.safe_dump(doc)


class TestUnreadKeys:
    # Each subcommand with one key it does not read set away from its
    # default, then at its default.
    CASES = [
        ("simulate", "mass", {"kind": "exponential", "rate": 0.3},
         {"kind": "constant", "m0": 1.0},
         "mass.kind: 'exponential' is not read by simulate "
         "(read by: timemap)"),
        ("oracle", "mass", {"kind": "exponential", "rate": 0.3},
         {"kind": "constant", "m0": 1.0},
         "mass.kind: 'exponential' is not read by oracle (read by: timemap)"),
        ("autocorr", "mass", {"kind": "exponential", "rate": 0.3},
         {"kind": "constant", "m0": 1.0},
         "mass.kind: 'exponential' is not read by autocorr "
         "(read by: timemap)"),
        ("simulate", "tolerance", 1e-8, 1e-10,
         "tolerance: 1e-08 is not read by simulate (read by: oracle)"),
        ("autocorr", "truncation", 40, None,
         "truncation: 40 is not read by autocorr (read by: oracle, husimi)"),
        ("variances", "tolerance", 5.0, 1e-10,
         "tolerance: 5.0 is not read by variances (read by: oracle)"),
        ("spectrum", "time.samples", 61, 2001,
         "time.samples: 61 is not read by spectrum "
         "(read by: simulate, oracle, autocorr, husimi, timemap)"),
        ("timemap", "model.chi", 0.25, 0.0,
         "model.chi: 0.25 is not read by timemap "
         "(read by: simulate, oracle, autocorr, husimi)"),
        ("husimi", "model.k", 0.2, 0.0,
         "model.k: 0.2 is not read by husimi (read by: spectrum, timemap)"),
        ("husimi", "time.t_end", 5.0, 8.0 * math.pi,
         "time.t_end: 5.0 is not read by husimi "
         "(read by: simulate, oracle, autocorr, timemap)"),
        ("spectrum", "time.t_end", 5.0, 8.0 * math.pi,
         "time.t_end: 5.0 is not read by spectrum "
         "(read by: simulate, oracle, autocorr, timemap)"),
    ]
    IDS = [f"{case[0]}-{case[1]}" for case in CASES]

    @pytest.mark.parametrize("command, key, value, default, message", CASES,
                             ids=IDS)
    def test_unread_key_is_refused(self, tmp_path, capsys, command, key,
                                   value, default, message):
        cfg = tmp_path / "foreign.yaml"
        cfg.write_text(with_key(CONFIGS[command], key, value))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error[config]: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key, value, default, message", CASES,
                             ids=IDS)
    def test_unread_key_at_its_default_is_accepted(
            self, tmp_path, command, key, value, default, message):
        cfg = tmp_path / "default.yaml"
        cfg.write_text(with_key(CONFIGS[command], key, default))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0

    def test_a_derived_default_is_taken_in_this_config(self, tmp_path,
                                                       capsys):
        # time.t_end defaults to 8 pi / omega0: at omega0 = 2, 4 pi is the
        # default and 8 pi is not
        cfg = tmp_path / "t_end.yaml"
        for t_end, code in ((4.0 * math.pi, 0), (8.0 * math.pi, 2)):
            cfg.write_text(with_key("model: {omega0: 2.0}\n", "time.t_end",
                                    t_end))
            assert main(["variances", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err.startswith(
            "error[config]: time.t_end: 25.13")

    @pytest.mark.parametrize("command, flags", [
        *(pytest.param(command, [], id=command) for command in CONFIGS),
        pytest.param("oracle", ["--tol", "1e-6", "--trunc", "30"],
                     id="oracle-tol-trunc"),
        pytest.param("husimi", ["--trunc", "30"], id="husimi-trunc")])
    def test_echoed_config_runs_again_to_the_same_body(
            self, tmp_path, config_of, command, flags):
        # every header echoes every section, each key a subcommand does not
        # read at its default, and each override given: the echo run again
        # without flags gives the same body
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([command, "--config", str(config_of(command)),
                     "--out", str(first), *flags]) == 0
        tables = sorted(first.glob("*.csv"))
        lines = tables[0].read_text().splitlines()
        start = lines.index("# config:") + 1
        echoed = tmp_path / "echoed.yaml"
        echoed.write_text("".join(
            line[4:] + "\n" for line in lines[start:]
            if line.startswith("#   ")))
        header = dict(line[2:].split(": ", 1) for line in lines[:start - 1])
        echo = yaml.safe_load(echoed.read_text())
        assert float(header["tolerance"]) == echo["tolerance"]
        if "truncation" in echo:  # else each table's own automatic one
            assert header["truncation"] == str(echo["truncation"])
        assert main([command, "--config", str(echoed),
                     "--out", str(again)]) == 0
        for table in tables:
            body = [line for line in table.read_text().splitlines()
                    if not line.startswith("#")]
            assert [line for line in (again / table.name).read_text()
                    .splitlines() if not line.startswith("#")] == body

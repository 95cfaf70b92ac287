"""Scenario runner: dispatches configs to the solvers and writes plot data.

Each subcommand reads one YAML scenario, runs the corresponding computation,
and writes CSV (default) or JSON artifacts whose header block echoes the
fully-resolved configuration, --tol and --trunc overrides included, so runs
are reproducible from their outputs alone.  Exit codes: 0 success, 2
configuration error, 3 numerical failure.  Each runner is run(cfg, write):
it only computes from the config that ran, and `main` writes every table
through `_writer`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, ScenarioConfig, checked_value, emit_config,
                     load_config, refuse_unread)
from .driven import displacement_amplitude, energy_level
from .evolution import (
    ModelParams,
    WeiNormanSolution,
    _evolved_amplitudes,
    integrate_wei_norman,
)
from .fock import (SUPPORT_MARGIN, TruncationError, _row_blocks,
                   checked_truncation, coherent_state, default_truncation)
from .integrators import StepSizeError
from .kerr_states import KerrStateParams, quadrature_variance_ratios
from .observables import (autocorrelation_series, detect_revivals,
                          husimi_snapshot)
from .oracle import OracleError, _exact_blocks
from .timemap import heisenberg_coefficients, rescaled_time, transformed_frequency

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
_SIDECAR_KEYS = ("tolerance", "truncation", "config")  # run keys per sidecar


def _writer(out: Path, fmt: str, run_meta: dict, written: list[Path]):
    """write(stem, columns, rows, extra_meta), the one output path of a run.

    A table goes to out/<stem>.<fmt> under {**run_meta, **extra_meta}: a run
    key such as truncation is replaced in place, the table's own keys follow
    config.  With columns None it is a JSON sidecar, out/<stem>.json: its own
    keys, then the run's tolerance, truncation and config.
    """
    def write(stem, columns, rows, extra_meta):
        meta = {**run_meta, **extra_meta}
        if columns is None:
            path = out / f"{stem}.json"
            doc = {k: v for k, v in meta.items() if k not in run_meta}
            doc.update((k, meta[k]) for k in _SIDECAR_KEYS)
            with _created(path) as f:
                f.write(json.dumps(doc, indent=1) + "\n")
        else:
            path = out / f"{stem}.{fmt}"
            _write_table(path, columns, rows, meta, fmt)
        written.append(path)  # so main prints the paths in the order written
    return write


def _created(path: Path):
    """path opened for writing, its directory made first; an OSError there
    (not one while writing) is a ConfigError naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"--out: {exc.filename}: {exc.strerror}") from exc


def _write_table(path: Path, columns: list[str], rows: np.ndarray,
                 meta: dict, fmt: str):
    rows = np.asarray(rows, dtype=float)
    if fmt == "json":
        doc = {"meta": meta, "columns": columns, "rows": rows.tolist()}
        with _created(path) as f:
            f.write(json.dumps(doc, indent=1) + "\n")
        return
    lines = []
    for key, value in meta.items():
        if key == "config":
            lines.append("# config:")
            lines.extend("#   " + ln for ln in value.rstrip("\n").split("\n"))
        else:
            lines.append(f"# {key}: {value}")
    lines.append(",".join(columns))
    with _created(path) as f:
        f.write("\n".join(lines) + "\n")
        _write_csv_body(f, rows)


def _distinct_text(col: np.ndarray):
    """(sorted distinct float64 bits, "%.12g" % v of each) of a column with
    at most half as many distinct values as rows (a grid coordinate), else
    None: for a mostly-distinct column the lookup costs more than it saves.
    Bits tell -0.0 from 0.0, so each keeps its own text."""
    bits = np.sort(col.view(np.int64))  # np.unique hashes: slower here
    new = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    if 2 * np.count_nonzero(new) > bits.size:
        return None
    distinct = bits[new]
    return distinct, np.array(["%.12g" % v for v in
                               distinct.view(np.float64).tolist()],
                              dtype=object)


def _write_csv_body(f, rows: np.ndarray):
    """Write the CSV rows as "%.12g" % v of each value, one %-format call
    per block of rows.  A repeated column's distinct values are formatted
    once per table and looked up in each block."""
    tables = [_distinct_text(col) for col in rows.T]
    row = ",".join("%.12g" if t is None else "%s" for t in tables) + "\n"
    for part in _row_blocks(len(rows), rows.shape[1]):
        block = rows[part]
        cells = np.empty(block.shape, dtype=object)
        for j, table in enumerate(tables):
            if table is None:
                cells[:, j] = block[:, j].tolist()
            else:
                distinct, text = table
                cells[:, j] = text[np.searchsorted(
                    distinct, block[:, j].view(np.int64))]
        f.write(row * len(block) % tuple(cells.ravel().tolist()))


def _sampled(spec, times, key: str):
    """spec, a tabulated one checked at the times the run samples it: one
    outside its window is a ConfigError naming `key`, the config key those
    times come from."""
    try:
        spec(np.asarray(times, dtype=float))
    except ValueError as exc:  # past a tabulated drive's or mass's window
        raise ConfigError(f"{key}: {exc}") from exc
    return spec


def _model_params(cfg: ScenarioConfig, t_end: float | None = None,
                  key: str = "time.t_end") -> ModelParams:
    """The config's model, its drive sampled over [0, t_end] (default
    `time.t_end`; a window that misses it names `key`)."""
    t_end = cfg.t_end if t_end is None else t_end
    return ModelParams(omega0=cfg.omega0, chi=cfg.chi, alpha=cfg.alpha,
                       drive=_sampled(cfg.drive(), (0.0, t_end), key))


def _wei_norman_rows(sol) -> tuple[list[str], np.ndarray]:
    params = sol.params
    eta = sol.eta
    # Model norm of the factorized state before forced normalization:
    # |G|^2 exp(|eta|^2) = 1 holds by construction, since the quadrature sets
    # Re X1 = -|X3|^2 / 2 exactly, so the column is 1 up to rounding.
    model_norm = np.exp((sol.x1 + sol.x3 * params.alpha).real
                        - 0.5 * abs(params.alpha) ** 2 + 0.5 * np.abs(eta) ** 2)
    cols = ["t", "tau", "re_x1", "im_x1", "re_x2", "im_x2", "re_x3", "im_x3",
            "re_eta", "im_eta", "norm"]
    rows = np.column_stack([
        sol.times, params.omega0 * sol.times,
        sol.x1.real, sol.x1.imag, sol.x2.real, sol.x2.imag,
        sol.x3.real, sol.x3.imag, eta.real, eta.imag, model_norm,
    ])
    return cols, rows


def _auto_truncation(sol) -> int:
    peak = max(float(np.max(np.abs(sol.eta))), abs(sol.params.alpha))
    return default_truncation(peak) + SUPPORT_MARGIN


def run_simulate(cfg: ScenarioConfig, write):
    params = _model_params(cfg)
    sol = integrate_wei_norman(params, cfg.t_end, samples=cfg.samples)
    write("simulate", *_wei_norman_rows(sol), {})


def run_oracle(cfg: ScenarioConfig, write):
    """The factorized run, and the exact run's norm drift and fidelity to it
    at each sample: each block of exact states is reduced to those two
    columns as it lands, so the run holds one block of states, not all.  The
    drift is the rescaled state's rounding; the oracle guards the defect
    before the rescale."""
    params = _model_params(cfg)
    sol = integrate_wei_norman(params, cfg.t_end, samples=cfg.samples)
    n_trunc = cfg.truncation or _auto_truncation(sol)
    times = sol.times
    drift, fid = np.empty(times.size), np.empty(times.size)

    def reduce(part, exact):
        model = _evolved_amplitudes(sol, times[part], n_trunc)
        drift[part] = np.abs(np.linalg.norm(exact, axis=1) - 1.0)
        fid[part] = np.abs(np.vecdot(exact, model)) ** 2 / (
            np.vecdot(exact, exact).real * np.vecdot(model, model).real)

    steps = _exact_blocks(params, coherent_state(params.alpha, n_trunc),
                          cfg.t_end, cfg.tolerance, times, reduce)
    # the factorized state's tail check after the oracle's guard, which
    # names the sample time where a too small basis is reached
    checked_truncation(np.abs(sol.eta).max(), n_trunc)
    cols, rows = _wei_norman_rows(sol)
    worst = int(np.argmin(fid))
    write("oracle", cols + ["norm_drift", "fidelity"],
          np.column_stack([rows, drift, fid]),
          {"truncation": n_trunc,
           "oracle_steps": f"accepted={steps.accepted} rejected="
                           f"{steps.rejected} budget={steps.budget:g}",
           "fidelity_min": f"{float(fid[worst])} at t={float(times[worst])}",
           "norm_drift_max": float(drift.max())})


def run_variances(cfg: ScenarioConfig, write):
    xis = np.linspace(cfg.variances_xi_min, cfg.variances_xi_max,
                      cfg.variances_samples)
    rows = np.column_stack([xis, *quadrature_variance_ratios(
        KerrStateParams(cfg.variances_beta, xis))])
    write("variances", ["xi", "ratio_q", "ratio_p"], rows, {})


def run_autocorr(cfg: ScenarioConfig, write):
    if cfg.samples < 3:  # the config allows 2
        raise ConfigError("time.samples: revival detection needs at least 3")
    params = _model_params(cfg)
    sol = integrate_wei_norman(params, cfg.t_end, samples=cfg.samples)
    series = autocorrelation_series(sol)
    revivals = detect_revivals(series, cfg.revival_threshold)
    rows = np.column_stack([
        series.times, cfg.omega0 * series.times,
        series.values.real, series.values.imag, series.abs_squared,
    ])
    write("autocorr", ["t", "tau", "re_F", "im_F", "abs2_F"], rows,
          {"revival_times": "[" + ", ".join(
              f"{t:.12g}" for t in revivals) + "]"})


def _interpolated_solution(sol, t: float) -> WeiNormanSolution:
    """Solution ending at t with X1, X2, X3 interpolated linearly on sol's grid.

    The husimi tables keep the values that perfbench/reference.json was
    recorded with.  The exact off-grid values of `sol.eta_at` move Q in the
    tau = pi/4 snapshot of scenarios/husimi_snapshots.yaml by up to 1.1e-6
    and its maximum by 2.9e-6 relative, past that reference's 1e-6.
    """
    k = int(np.clip(np.searchsorted(sol.times, t) - 1, 0, sol.times.size - 2))
    w = (t - sol.times[k]) / (sol.times[k + 1] - sol.times[k])
    return WeiNormanSolution(sol.params, np.array([sol.times[k], t]), *(
        np.array([x[k], (1.0 - w) * x[k] + w * x[k + 1]])
        for x in (sol.x1, sol.x2, sol.x3)))


def run_husimi(cfg: ScenarioConfig, write):
    t_max = max(tau / cfg.omega0 for tau in cfg.husimi_times)
    params = _model_params(cfg, t_max, "husimi.times")
    sol = integrate_wei_norman(params, max(t_max, 1e-12), samples=cfg.samples)
    n_trunc = cfg.truncation or _auto_truncation(sol)
    for idx, tau in enumerate(cfg.husimi_times):
        t = tau / cfg.omega0
        grid = husimi_snapshot(_interpolated_solution(sol, t), t,
                               half_width=cfg.grid_half_width,
                               resolution=cfg.grid_resolution, n_trunc=n_trunc)
        xx, yy = np.meshgrid(grid.x, grid.y)
        rows = np.column_stack([xx.ravel(), yy.ravel(), grid.values.ravel()])
        snapshot = {"truncation": n_trunc, "snapshot_tau": tau, "snapshot_t": t}
        write(f"husimi_{idx:02d}", ["x", "y", "Q"], rows, snapshot)
        write(f"husimi_{idx:02d}.meta", None, None,
              {**snapshot, "total_mass": grid.total_mass()})


def run_spectrum(cfg: ScenarioConfig, write):
    drive = _sampled(cfg.drive(), cfg.spectrum_times, "spectrum.times")
    freq = cfg.frequency()
    n, t = np.meshgrid(np.arange(cfg.spectrum_n_max + 1), cfg.spectrum_times)
    columns = [n, t, energy_level(n, drive, freq, t),
               displacement_amplitude(drive, freq, t)]
    write("spectrum", ["n", "t", "E_n", "lambda_t"],
          np.column_stack([c.ravel() for c in columns]), {})


def run_timemap(cfg: ScenarioConfig, write):
    times = np.linspace(0.0, cfg.t_end, cfg.samples)
    mass, freq = _sampled(cfg.mass(), times, "time.t_end"), cfg.frequency()
    cols = ["t", "tau", "mass", "omega_star"]
    columns = [times, rescaled_time(mass, times), mass(times),
               transformed_frequency(mass, freq, times)]
    if mass.kind == "exponential" and cfg.k == 0.0:
        try:
            qp = heisenberg_coefficients(mass.m0, cfg.omega0, mass.rate, times)
        except ValueError as exc:  # the overdamped regime
            raise ConfigError(f"mass.rate: {exc}") from exc
        cols += ["c_qq", "c_qp", "c_pq", "c_pp", "det"]
        columns += [qp.c_qq, qp.c_qp, qp.c_pq, qp.c_pp,
                    qp.symplectic_determinant()]
    write("timemap", cols, np.column_stack(columns), {})


# Each override flag: the config key it replaces, and that key's type.
_OVERRIDES = {"--tol": ("tolerance", float), "--trunc": ("truncation", int)}

# The config keys of the model the Wei-Norman solve runs at the kernel's
# floor, to time.t_end but for husimi, which stops at its last snapshot.
_MODEL = ("model.omega0", "model.chi", "model.alpha", "drive")

# Each subcommand's runner and the config keys it reads; a section name
# covers all its keys.  The parser offers an override just where its key is
# read, and main refuses any other key that a config sets away from its
# default, so no value can change a header and nothing else.
SUBCOMMANDS = {
    "simulate": (run_simulate, (*_MODEL, "time")),
    "oracle": (run_oracle, (*_MODEL, "time", "tolerance", "truncation")),
    "variances": (run_variances, ("model.omega0", "variances")),
    "autocorr": (run_autocorr, (*_MODEL, "time", "revival_threshold")),
    "husimi": (run_husimi, (*_MODEL, "time.samples", "grid", "husimi",
                            "truncation")),
    "spectrum": (run_spectrum, ("model.omega0", "model.k", "drive",
                                "spectrum")),
    "timemap": (run_timemap, ("model.omega0", "model.k", "mass", "time")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrosc",
        description="Driven Kerr-oscillator scenarios: simulation and "
                    "phase-space diagnostics")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, reads) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML scenario file")
        p.add_argument("--out", default=".", help="output directory")
        for flag, (key, kind) in _OVERRIDES.items():
            if key in reads:
                p.add_argument(flag, dest=key, type=kind,
                               help=f"override the {key} key")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    written: list[Path] = []
    try:
        cfg = load_config(args.config)
        run = SUBCOMMANDS[args.subcommand][0]
        refuse_unread(cfg, args.subcommand,
                      {name: reads for name, (_, reads) in SUBCOMMANDS.items()})
        # an override given passes the checks of the key it replaces, and
        # the config that runs, and is echoed, holds it
        for flag, (key, _) in _OVERRIDES.items():
            if (value := getattr(args, key, None)) is not None:
                cfg = replace(cfg, **{key: checked_value(key, value, flag)})
        run_meta = {  # once per run, so every table shares one config text
            "generator": f"kerrosc {__version__}",
            "subcommand": args.subcommand,
            "tolerance": cfg.tolerance,
            "truncation": cfg.truncation or "auto",
            "config": emit_config(cfg),
        }
        run(cfg, _writer(Path(args.out), args.format, run_meta, written))
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, StepSizeError, OracleError) as exc:
        print(f"error[{args.subcommand}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Scenario runner: dispatches configs to the solvers and writes plot data.

Each subcommand reads one YAML scenario, runs the corresponding computation,
and writes CSV (default) or JSON artifacts whose header block echoes the
fully-resolved configuration, so runs are reproducible from their outputs
alone.  Exit codes: 0 success, 2 configuration error, 3 numerical failure.
The runners only compute; `main` writes every table through `_writer`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, ScenarioConfig, checked_value, emit_config,
                     load_config)
from .driven import displacement_amplitude, energy_level
from .evolution import (
    ModelParams,
    WeiNormanSolution,
    _checked_coefficients,
    _evolved_amplitudes,
    integrate_wei_norman,
)
from .fock import (SUPPORT_MARGIN, TruncationError, coherent_state,
                   default_truncation)
from .integrators import StepSizeError
from .kerr_states import KerrStateParams, quadrature_variance_ratios
from .observables import autocorrelation_series, husimi_snapshot
from .oracle import OracleError, integrate_exact
from .timemap import heisenberg_coefficients, rescaled_time, transformed_frequency

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
_FIDELITY_ROWS = 256  # per oracle fidelity block, to bound the memory
_SIDECAR_KEYS = ("tolerance", "truncation", "config")  # run keys per sidecar


def _writer(out: Path, fmt: str, run_meta: dict, written: list[Path]):
    """write(stem, columns, rows, extra_meta), the one output path of a run.

    A table goes to out/<stem>.<fmt> under {**run_meta, **extra_meta}: a run
    key such as truncation is replaced in place, the table's own keys follow
    config.  With columns None it is a JSON sidecar, out/<stem>.json: its own
    keys, then the run's tolerance, truncation and config.
    """
    def write(stem, columns, rows, extra_meta):
        out.mkdir(parents=True, exist_ok=True)
        meta = {**run_meta, **extra_meta}
        if columns is None:
            path = out / f"{stem}.json"
            doc = {k: v for k, v in meta.items() if k not in run_meta}
            doc.update((k, meta[k]) for k in _SIDECAR_KEYS)
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        else:
            path = out / f"{stem}.{fmt}"
            _write_table(path, columns, rows, meta, fmt)
        written.append(path)  # so main prints the paths in the order written
    return write


def _write_table(path: Path, columns: list[str], rows: np.ndarray,
                 meta: dict, fmt: str):
    rows = np.asarray(rows, dtype=float)
    if fmt == "json":
        doc = {"meta": meta, "columns": columns, "rows": rows.tolist()}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return
    lines = []
    for key, value in meta.items():
        if key == "config":
            lines.append("# config:")
            lines.extend("#   " + ln for ln in value.rstrip("\n").split("\n"))
        else:
            lines.append(f"# {key}: {value}")
    lines.append(",".join(columns))
    path.write_text("\n".join(lines) + "\n" + _csv_body(rows),
                    encoding="utf-8")


def _csv_body(rows: np.ndarray) -> str:
    """The CSV rows as "%.12g" % v of each value, in one %-format call.

    A column with at most half as many distinct values as rows (a grid
    coordinate) has each distinct float64 bit pattern formatted once, so
    -0.0 and 0.0 keep their own text; a mostly-distinct column goes in as
    floats, where the lookup would cost more than it saves.
    """
    cells, fmts = np.empty(rows.shape, dtype=object), []
    for j, col in enumerate(rows.T):
        bits = col.view(np.int64)
        distinct = np.sort(bits)  # np.unique hashes: slower here
        new = np.ones(distinct.size, dtype=bool)
        np.not_equal(distinct[1:], distinct[:-1], out=new[1:])
        distinct = distinct[new]
        if 2 * distinct.size > col.size:
            cells[:, j] = col.tolist()
            fmts.append("%.12g")
        else:
            text = np.array(["%.12g" % v for v in
                             distinct.view(np.float64).tolist()], dtype=object)
            cells[:, j] = text[np.searchsorted(distinct, bits)]
            fmts.append("%s")
    row = ",".join(fmts) + "\n"
    return row * len(rows) % tuple(cells.ravel().tolist())


def _model_params(cfg: ScenarioConfig) -> ModelParams:
    if cfg.k != 0.0:
        raise ConfigError(
            "model.k: time evolution is defined for k = 0 only; nonzero k "
            "enters just the frozen-time quantities (spectrum subcommand)")
    return ModelParams(omega0=cfg.omega0, chi=cfg.chi, drive=cfg.drive(),
                       alpha=cfg.alpha)


def _wei_norman_rows(cfg: ScenarioConfig, sol) -> tuple[list[str], np.ndarray]:
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
        sol.times, cfg.omega0 * sol.times,
        sol.x1.real, sol.x1.imag, sol.x2.real, sol.x2.imag,
        sol.x3.real, sol.x3.imag, eta.real, eta.imag, model_norm,
    ])
    return cols, rows


def _auto_truncation(cfg: ScenarioConfig, sol) -> int:
    peak = max(float(np.max(np.abs(sol.eta))), abs(cfg.alpha))
    return default_truncation(peak) + SUPPORT_MARGIN


def run_simulate(cfg: ScenarioConfig, tol: float, trunc: int | None, write):
    params = _model_params(cfg)
    sol = integrate_wei_norman(params, cfg.t_end, tol=tol, samples=cfg.samples)
    write("simulate", *_wei_norman_rows(cfg, sol), {})


def run_oracle(cfg: ScenarioConfig, tol: float, trunc: int | None, write):
    params = _model_params(cfg)
    sol = integrate_wei_norman(params, cfg.t_end, tol=tol, samples=cfg.samples)
    n_trunc = trunc if trunc is not None else _auto_truncation(cfg, sol)
    psi0 = coherent_state(params.alpha, n_trunc)
    run = integrate_exact(params, psi0, cfg.t_end, tol=tol,
                          sample_times=sol.times)
    cols, rows = _wei_norman_rows(cfg, sol)
    x1, x3, eta, _ = _checked_coefficients(params, sol, run.times, n_trunc)
    fid = np.empty(run.times.size)
    for start in range(0, fid.size, _FIDELITY_ROWS):
        part = slice(start, start + _FIDELITY_ROWS)
        model = _evolved_amplitudes(params, run.times[part], x1[part],
                                    x3[part], eta[part], n_trunc)
        exact = run.states[part]
        fid[part] = np.abs(np.vecdot(exact, model)) ** 2 / (
            np.vecdot(exact, exact).real * np.vecdot(model, model).real)
    write("oracle", cols + ["norm_drift", "fidelity"],
          np.column_stack([rows, run.norm_drift, fid]),
          {"truncation": n_trunc,
           "oracle_steps": f"accepted={run.accepted_steps} "
                           f"rejected={run.rejected_steps} "
                           f"budget={run.budget:g}"})


def run_variances(cfg: ScenarioConfig, tol: float, trunc: int | None, write):
    xis = np.linspace(cfg.variances_xi_min, cfg.variances_xi_max,
                      cfg.variances_samples)
    rows = np.column_stack([xis, *quadrature_variance_ratios(
        KerrStateParams(cfg.variances_beta, xis))])
    write("variances", ["xi", "ratio_q", "ratio_p"], rows, {})


def run_autocorr(cfg: ScenarioConfig, tol: float, trunc: int | None, write):
    params = _model_params(cfg)
    sol = integrate_wei_norman(params, cfg.t_end, tol=tol, samples=cfg.samples)
    series = autocorrelation_series(params, sol).with_revivals(
        cfg.revival_threshold)
    rows = np.column_stack([
        series.times, cfg.omega0 * series.times,
        series.values.real, series.values.imag, series.abs_squared,
    ])
    write("autocorr", ["t", "tau", "re_F", "im_F", "abs2_F"], rows,
          {"revival_times": "[" + ", ".join(
              f"{t:.12g}" for t in series.revival_times) + "]"})


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


def run_husimi(cfg: ScenarioConfig, tol: float, trunc: int | None, write):
    params = _model_params(cfg)
    t_max = max(tau / cfg.omega0 for tau in cfg.husimi_times)
    try:
        params.drive(t_max)
    except ValueError as exc:  # past a tabulated drive's window
        raise ConfigError(f"husimi.times: {exc}") from exc
    sol = integrate_wei_norman(params, max(t_max, 1e-12), tol=tol,
                               samples=cfg.samples)
    n_trunc = trunc if trunc is not None else _auto_truncation(cfg, sol)
    for idx, tau in enumerate(cfg.husimi_times):
        t = tau / cfg.omega0
        grid = husimi_snapshot(params, _interpolated_solution(sol, t), t,
                               half_width=cfg.half_width(),
                               resolution=cfg.grid_resolution, n_trunc=n_trunc)
        xx, yy = np.meshgrid(grid.x, grid.y)
        rows = np.column_stack([xx.ravel(), yy.ravel(), grid.values.ravel()])
        snapshot = {"truncation": n_trunc, "snapshot_tau": tau, "snapshot_t": t}
        write(f"husimi_{idx:02d}", ["x", "y", "Q"], rows, snapshot)
        write(f"husimi_{idx:02d}.meta", None, None,
              {**snapshot, "total_mass": grid.total_mass()})


def run_spectrum(cfg: ScenarioConfig, tol: float, trunc: int | None, write):
    drive, freq = cfg.drive(), cfg.frequency()
    n, t = np.meshgrid(np.arange(cfg.spectrum_n_max + 1), cfg.spectrum_times)
    try:
        columns = [n, t, energy_level(n, drive, freq, t),
                   displacement_amplitude(drive, freq, t)]
    except ValueError as exc:  # past a tabulated drive's window
        raise ConfigError(f"spectrum.times: {exc}") from exc
    write("spectrum", ["n", "t", "E_n", "lambda_t"],
          np.column_stack([c.ravel() for c in columns]), {})


def run_timemap(cfg: ScenarioConfig, tol: float, trunc: int | None, write):
    mass, freq = cfg.mass(), cfg.frequency()
    times = np.linspace(0.0, cfg.t_end, cfg.samples)
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


SUBCOMMANDS = {
    "simulate": run_simulate,
    "oracle": run_oracle,
    "variances": run_variances,
    "autocorr": run_autocorr,
    "husimi": run_husimi,
    "spectrum": run_spectrum,
    "timemap": run_timemap,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrosc",
        description="Driven Kerr-oscillator scenarios: simulation and "
                    "phase-space diagnostics")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML scenario file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="override the configured integrator tolerance")
        p.add_argument("--trunc", type=int, default=None,
                       help="override the configured basis truncation")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    written: list[Path] = []
    try:
        cfg = load_config(args.config)
        # the overrides pass the checks of the keys they replace
        tol = (cfg.tolerance if args.tol is None
               else checked_value("tolerance", args.tol, "--tol"))
        trunc = (cfg.truncation if args.trunc is None
                 else checked_value("truncation", args.trunc, "--trunc"))
        run_meta = {  # once per run, so every table shares one config text
            "generator": f"kerrosc {__version__}",
            "subcommand": args.subcommand,
            "tolerance": tol,
            "truncation": trunc if trunc is not None else "auto",
            "config": emit_config(cfg),
        }
        SUBCOMMANDS[args.subcommand](cfg, tol, trunc, _writer(
            Path(args.out), args.format, run_meta, written))
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

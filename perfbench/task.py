"""Child-process entry points of the benchmark.

    task.py [--trace-out F] cli <kerrosc.cli arguments>
        Run the CLI in this process, traced (untraced CLI tasks run as
        `python -m kerrosc.cli` directly).
    task.py [--trace-out F] stepper --order a,b --result-out R
        Set up the stepper operators (untimed), then run the stepper tasks
        once in the given order; write per-task seconds and outputs to R.
    task.py stepper-setup
        Import kerrosc and set up the stepper operators, then exit: the
        stepper workload's set-up cost.

kerrosc functions are looked up through their modules at call time, so the
wrappers `tracing.install` rebinds are the ones called.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from tracing import Tracer, install

LADDER_LEVELS = (0, 5, 20)
LADDER_TOL = 1e-12
THEOREM_TIMES = (2.5, 5.0)
THEOREM_TOL = 1e-9
THEOREM_TRUNC = 40


def stepper_setup() -> dict:
    """Operators and parameters of the stepper tasks (check-5 inputs and
    the fig. 2 model)."""
    from kerrosc import driven, evolution, fock, timemap

    q = fock.position_operator(THEOREM_TRUNC).matrix
    p = fock.momentum_operator(THEOREM_TRUNC).matrix
    return {
        "q2": q @ q,
        "p2": p @ p,
        "mass": timemap.MassSpec.exponential(1.0, 0.3),
        "psi0": fock.coherent_state(1.0, THEOREM_TRUNC),
        "fig2": evolution.ModelParams(
            omega0=1.0, chi=0.25, drive=driven.DriveSpec.cosine(1.0, 1.0),
            alpha=3.0),
    }


def timemap_theorem(ctx: dict) -> dict:
    """Check 5: a dense 40x40 H(t) integrated directly and through the time
    map, at two end times; worst 1 - F between the two routes."""
    import numpy as np
    from kerrosc import fock, oracle, timemap
    q2, p2, mass = ctx["q2"], ctx["p2"], ctx["mass"]
    m0, rate, w0 = mass.m0, mass.rate, 1.0

    def h_direct(t):
        m = m0 * math.exp(rate * t)
        return p2 / (2 * m) + 0.5 * m * w0 ** 2 * q2

    def h_star(tau):
        w = m0 * math.exp(rate * timemap.physical_time(mass, tau)) * w0
        return 0.5 * p2 + 0.5 * w * w * q2

    def unit(amps):
        return fock.FockState(amps / np.linalg.norm(amps), normalized=True)

    def evolver_star(psi, tau):
        return unit(oracle.integrate_schrodinger(h_star, psi, tau,
                                                 tol=THEOREM_TOL)[-1])

    worst = 0.0
    for t_end in THEOREM_TIMES:
        direct = unit(oracle.integrate_schrodinger(h_direct, ctx["psi0"],
                                                   t_end, tol=THEOREM_TOL)[-1])
        mapped = timemap.evolve_via_timemap(ctx["psi0"], mass, evolver_star,
                                            t_end)
        worst = max(worst, 1.0 - oracle.fidelity(mapped, direct))
    return {"deficit_max": worst}


def linearized_ladder(ctx: dict) -> dict:
    """Linearized ladder solutions of the fig. 2 model at t = 8 pi."""
    from kerrosc import evolution
    out = {}
    for n in LADDER_LEVELS:
        lin = evolution.linearized_ladder(ctx["fig2"], n, 8 * math.pi,
                                          tol=LADDER_TOL)
        for name, value in (("zeta", lin.zeta), ("delta", lin.delta)):
            out[f"ladder.n{n}.{name}.re"] = value.real
            out[f"ladder.n{n}.{name}.im"] = value.imag
        out[f"ladder.n{n}.gamma_phase"] = lin.gamma_phase
    return out


STEPPER_TASKS = {"timemap_theorem": timemap_theorem,
                 "linearized_ladder": linearized_ladder}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("cli").add_argument("argv", nargs=argparse.REMAINDER)
    step = sub.add_parser("stepper")
    step.add_argument("--order", required=True)
    step.add_argument("--result-out", required=True)
    sub.add_parser("stepper-setup")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import kerrosc.cli
    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install(tracer)
    code = 0
    try:
        if args.mode == "cli":
            main_fn = kerrosc.cli.main
            if tracer is not None:
                main_fn = tracer.wrap("cli.main", main_fn)
            code = main_fn(args.argv)
        elif args.mode == "stepper-setup":
            stepper_setup()
        else:
            ctx = stepper_setup()
            result = {"tasks": []}
            for name in args.order.split(","):
                start = time.perf_counter()
                outputs = STEPPER_TASKS[name](ctx)
                result["tasks"].append({
                    "name": name, "seconds": time.perf_counter() - start,
                    "scalars": outputs})
            with open(args.result_out, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
    finally:
        if tracer is not None:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({"import_s": import_s,
                           "spans": [s.as_dict() for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

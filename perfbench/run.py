"""kerrosc benchmark runner.

    python3 perfbench/run.py --workload {figures,oracle,stepper,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload is a closed loop with one
client: passes over its tasks run back to back, one task at a time, for
about S seconds (at least one pass).  The seed shuffles the task order
within each pass and changes no input.  With --trace 0 the run reports the
end-to-end metrics (medians over passes); with --trace 1 it runs one
untraced and one traced pass and reports the per-layer metrics.  Every
task's outputs are checked against the seed reference; a task that exits
nonzero or misses a gate counts as failed.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; a full
record, with the environment and task orders, goes to .perfbench/results/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gates
from tracing import summarize

# BLAS/OpenMP threads of every child process.
BLAS_THREADS = 1
THREAD_ENV = {k: str(BLAS_THREADS) for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

HERE = Path(__file__).resolve().parent
BENCH = HERE.name
WORK = Path(".perfbench")
SETUP_REPEATS = 3

FIGURES = ("variances", "timemap_exponential", "autocorr_kerr_free",
           "autocorr_kerr_quarter", "autocorr_kerr_unit", "husimi_snapshots")
ORACLES = ("oracle_fig2", "oracle_kerr_free")
WORKLOADS = {
    "figures": {t: ("scenarios", t.split("_")[0]) for t in FIGURES},
    "oracle": {t: (f"{BENCH}/scenarios", "oracle") for t in ORACLES},
    "stepper": {"timemap_theorem": None, "linearized_ladder": None},
}

END_TO_END_UNITS = {"wall_s": "s", "task_max_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
# Per-layer metric -> (unit, key in the summed span totals).
LAYER_METRICS = {
    "import.s": ("s", "import.s"),
    "config.load.s": ("s", "config.load.s"),
    "config.load.calls": ("count", "config.load.calls"),
    "cli.self.s": ("s", "cli.main.self.s"),
    "cli.bytes_written": ("bytes", "cli.bytes_written"),
    "evolution.wei_norman.s": ("s", "evolution.wei_norman.s"),
    "evolution.wei_norman.calls": ("count", "evolution.wei_norman.calls"),
    "evolution.evolved_state.s": ("s", "evolution.evolved_state.s"),
    "evolution.evolved_state.calls": ("count", "evolution.evolved_state.calls"),
    "evolution.linearized_ladder.s": ("s", "evolution.linearized_ladder.s"),
    "evolution.linearized_ladder.calls": (
        "count", "evolution.linearized_ladder.calls"),
    "observables.autocorr.s": ("s", "observables.autocorr.s"),
    "observables.autocorr.points": ("count", "observables.autocorr.work"),
    "observables.husimi.s": ("s", "observables.husimi.s"),
    "observables.husimi.cells": ("count", "observables.husimi.work"),
    "kerr_states.variances.s": ("s", "kerr_states.variances.s"),
    "kerr_states.variances.calls": ("count", "kerr_states.variances.calls"),
    "timemap.s": ("s", "timemap.s"),
    "timemap.calls": ("count", "timemap.calls"),
    "oracle.exact.s": ("s", "oracle.exact.s"),
    "oracle.exact.calls": ("count", "oracle.exact.calls"),
    "oracle.schrodinger.s": ("s", "oracle.schrodinger.s"),
    "oracle.schrodinger.calls": ("count", "oracle.schrodinger.calls"),
    "integrators.calls": ("count", "integrators.calls"),
    "integrators.rhs_evals": ("count", "integrators.rhs_n"),
    "integrators.rhs.s": ("s", "integrators.rhs.s"),
    "integrators.self.s": ("s", "integrators.self.s"),
}
# Accuracy read from the traced pass's outputs: metric -> (task, scalar).
ACCURACY_METRICS = {
    "oracle.deficit_max": ("oracle_kerr_free", "deficit_max"),
    "oracle.fidelity_final": ("oracle_fig2", "fidelity_final"),
    "timemap.deficit_max": ("timemap_theorem", "deficit_max"),
}


@dataclass
class TaskResult:
    name: str
    seconds: float
    rss_mb: float
    problems: list[str]
    observation: dict = field(default_factory=dict)
    bytes_written: int = 0

    @property
    def scalars(self) -> dict:
        return self.observation.get("scalars", {})

    def as_dict(self) -> dict:
        return {"name": self.name, "seconds": self.seconds,
                "rss_mb": self.rss_mb, "problems": self.problems,
                "scalars": self.scalars}


def checked(task: str, obs: dict, ref: dict | None) -> list[str]:
    """Gate problems; none when recording the reference (ref is None)."""
    return [] if ref is None else gates.check(task, obs, ref[task])


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], log: Path) -> tuple[float, int, float]:
    """Run cmd to completion; (seconds, exit code, peak RSS in MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def failure(log: Path, code: int) -> list[str]:
    tail = log.read_text(encoding="utf-8", errors="replace").strip()
    return [f"exit code {code}: {tail[-400:]}"]


def run_cli_task(workload, task, workdir, trace_out, ref) -> TaskResult:
    config_dir, sub = WORKLOADS[workload][task]
    out = workdir / task
    shutil.rmtree(out, ignore_errors=True)
    args = [sub, "--config", f"{config_dir}/{task}.yaml", "--out", str(out)]
    if trace_out is None:
        cmd = [sys.executable, "-m", "kerrosc.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "task.py"), "--trace-out",
               str(trace_out), "cli", *args]
    log = workdir / f"{task}.log"
    seconds, code, rss = spawn(cmd, log)
    if code != 0:
        return TaskResult(task, seconds, rss, failure(log, code))
    obs = gates.observe_cli(out)
    written = sum(p.stat().st_size for p in out.iterdir())
    shutil.rmtree(out)
    return TaskResult(task, seconds, rss, checked(task, obs, ref), obs,
                      written)


def run_stepper_pass(order, workdir, trace_out, ref) -> list[TaskResult]:
    result_file = workdir / "stepper.json"
    cmd = [sys.executable, str(HERE / "task.py")]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["stepper", "--order", ",".join(order), "--result-out",
            str(result_file)]
    log = workdir / "stepper.log"
    result_file.unlink(missing_ok=True)
    seconds, code, rss = spawn(cmd, log)
    if code != 0:
        return [TaskResult(t, seconds / len(order), rss, failure(log, code))
                for t in order]
    tasks = json.loads(result_file.read_text(encoding="utf-8"))["tasks"]
    results = []
    for t in tasks:
        obs = {"scalars": t["scalars"]}
        results.append(TaskResult(t["name"], t["seconds"], rss,
                                  checked(t["name"], obs, ref), obs))
    return results


def run_pass(workload, order, workdir, traced, ref) -> list[TaskResult]:
    trace_dir = workdir / "traces"
    if traced:
        trace_dir.mkdir(parents=True, exist_ok=True)
    if workload == "stepper":
        return run_stepper_pass(order, workdir,
                                trace_dir / "stepper.json" if traced else None,
                                ref)
    return [run_cli_task(workload, task, workdir,
                         trace_dir / f"{task}.json" if traced else None, ref)
            for task in order]


def measure_setup(workload: str, workdir: Path) -> float:
    """Median wall time of fresh interpreters importing kerrosc (and, for
    the stepper, building its operators), after one warm-up."""
    if workload == "stepper":
        cmd = [sys.executable, str(HERE / "task.py"), "stepper-setup"]
    else:
        cmd = [sys.executable, "-c", "import kerrosc"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        seconds, code, _ = spawn(cmd, workdir / "setup.log")
        if code != 0:
            raise SystemExit(f"set-up failed: {failure(workdir / 'setup.log', code)}")
        if i:
            times.append(seconds)
    return statistics.median(times)


def layer_metrics(trace_dir: Path, results: list[TaskResult]) -> dict:
    totals: dict[str, float] = {}
    for path in sorted(trace_dir.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        part = summarize(doc["spans"])
        part["import.s"] = doc["import_s"]
        for key, value in part.items():
            totals[key] = totals.get(key, 0.0) + value
    totals["cli.bytes_written"] = sum(r.bytes_written for r in results)
    metrics = {}
    for name, (unit, key) in LAYER_METRICS.items():
        value = totals.get(key, 0.0)
        metrics[name] = (round(value) if unit in ("count", "bytes") else value,
                         unit)
    rhs_n = totals.get("integrators.rhs_n", 0.0)
    metrics["integrators.self_us_per_rhs"] = (
        1e6 * totals.get("integrators.self.s", 0.0) / rhs_n if rhs_n else 0.0,
        "us")
    by_task = {r.name: r.scalars for r in results}
    for name, (task, key) in ACCURACY_METRICS.items():
        metrics[name] = (by_task.get(task, {}).get(key, 0.0), "1")
    metrics["oracle.norm_drift_max"] = (
        max([s.get("norm_drift_max", 0.0) for s in by_task.values()],
            default=0.0), "1")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    ref = gates.load_reference()[workload]
    workdir = WORK / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = random.Random(seed)
    tasks = list(WORKLOADS[workload])
    passes = []

    def one_pass(traced):
        order = tasks[:]
        rng.shuffle(order)
        start = time.perf_counter()
        results = run_pass(workload, order, workdir, traced, ref)
        wall = time.perf_counter() - start
        if workload == "stepper":  # worker set-up is not part of the pass
            wall = sum(r.seconds for r in results)
        passes.append({"order": order, "traced": traced, "wall_s": wall,
                       "tasks": [r.as_dict() for r in results]})
        return results

    if trace:
        one_pass(False)
        traced = one_pass(True)
        metrics = layer_metrics(workdir / "traces", traced)
        metrics["trace.overhead_s"] = (
            passes[1]["wall_s"] - passes[0]["wall_s"], "s")
    else:
        setup_s = measure_setup(workload, workdir)
        # Start another pass only while it is projected to end within the
        # measuring time, so a run lasts about `seconds` whatever the pass
        # length; a pass longer than `seconds` still runs once.
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start) * (
                len(passes) + 1) / len(passes) <= seconds:
            one_pass(False)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "task_max_s": statistics.median(
                max(t["seconds"] for t in p["tasks"]) for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": max(t["rss_mb"] for p in passes
                               for t in p["tasks"]),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    all_tasks = [t for p in passes for t in p["tasks"]]
    failed = sum(1 for t in all_tasks if t["problems"])
    shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "passes": passes, "attempted": len(all_tasks),
            "failed": failed, "metrics": metrics}


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "pyyaml": version("pyyaml"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "seed": seed,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running task is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    missing = [p for p in ("src/kerrosc/__init__.py", "scenarios",
                           f"{BENCH}/reference.json") if not Path(p).exists()]
    if missing:
        print(f"error: run from the repository root; missing {missing}",
              file=sys.stderr)
        return 2

    env = environment(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [run_workload(w, args.seed, args.seconds, bool(args.trace))
            for w in names]
    record = {"environment": env, "args": vars(args), "runs": runs}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
     ".json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("# environment " + json.dumps(env))
    metrics = {}
    for run in runs:
        prefix = f"{run['workload']}." if args.workload == "all" else ""
        print(f"# {run['workload']} task orders: "
              + "; ".join(",".join(p["order"]) for p in run["passes"]))
        for p in run["passes"]:
            for t in p["tasks"]:
                for problem in t["problems"]:
                    print(f"# FAILED {run['workload']}/{t['name']}: {problem}")
        rows = dict(run["metrics"])
        rows["fail_ratio"] = (run["failed"] / run["attempted"], "ratio")
        for name, (value, unit) in rows.items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"{run['workload']:8s} {name:34s} {shown} {unit}")
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in run["metrics"].items()})
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

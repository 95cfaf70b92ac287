"""Correctness gates: observations of a task's outputs, checked against the
seed reference values in `reference.json`.

Full output bodies are not committed (the Husimi CSVs alone are about
6.9 MB).  Each table is reduced to a fingerprint instead: its column names,
row count, and per column the sum, the extrema and the values at nine
evenly strided rows.  Fingerprints compare within

    |got - ref| <= ATOL + RTOL * |ref|

which admits reordered floating-point sums and a change of integration
scheme at the 1e-10 level, and rejects any change a reader of the figures
could see.  Each body's sha256 is recorded as information only: it is
expected to change when a later change moves values inside the tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-6
ATOL = 1e-8
STRIDED_ROWS = 9

# Absolute gates from the acceptance rules.
NORM_DRIFT_MAX = 1e-8          # oracle norm_drift column, every sample
KERR_FREE_DEFICIT_MAX = 1e-7   # rule 6a: 1 - F at every sample, chi = 0
THEOREM_DEFICIT_MAX = 1e-8     # check 5: time map vs direct integration
FIDELITY_ATOL = 1e-6           # check 6c: final fig. 2 fidelity vs seed

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def close(got: float, ref: float, rtol: float = RTOL,
          atol: float = ATOL) -> bool:
    return abs(got - ref) <= atol + rtol * abs(ref)


def read_table(path: Path) -> tuple[dict, list[str], np.ndarray, bytes]:
    """Parse a CLI CSV: `# key: value` header lines, a column line, rows.

    Returns (meta, columns, data, body) where body is the bytes after the
    header block."""
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    meta = {}
    i = 0
    while lines[i].startswith("#"):
        key, sep, value = lines[i][1:].strip().partition(":")
        if sep and not lines[i].startswith("#   "):
            meta[key.strip()] = value.strip()
        i += 1
    columns = lines[i].split(",")
    rows = [ln for ln in lines[i + 1:] if ln]
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    body = "\n".join(lines[i:]).encode("utf-8")
    return meta, columns, data, body


def fingerprint(columns: list[str], data: np.ndarray, body: bytes) -> dict:
    n = data.shape[0]
    idx = sorted({round(k * (n - 1) / (STRIDED_ROWS - 1))
                  for k in range(STRIDED_ROWS)})
    return {
        "columns": columns,
        "rows": n,
        "sum": data.sum(axis=0).tolist(),
        "min": data.min(axis=0).tolist(),
        "max": data.max(axis=0).tolist(),
        "strided_index": idx,
        "strided": data[idx].tolist(),
        "sha256": hashlib.sha256(body).hexdigest(),
    }


def compare_fingerprint(got: dict, ref: dict, skip=()) -> list[str]:
    """Problems found comparing two fingerprints; empty when they agree.
    Columns named in `skip` are gated elsewhere and not compared here."""
    if got["columns"] != ref["columns"]:
        return [f"columns {got['columns']} != {ref['columns']}"]
    if got["rows"] != ref["rows"]:
        return [f"rows {got['rows']} != {ref['rows']}"]
    problems = []
    for j, col in enumerate(ref["columns"]):
        if col in skip:
            continue
        pairs = [(stat, got[stat][j], ref[stat][j])
                 for stat in ("sum", "min", "max")]
        pairs += [(f"row {r}", g[j], e[j]) for r, g, e in
                  zip(ref["strided_index"], got["strided"], ref["strided"])]
        for what, g, e in pairs:
            if not close(g, e):
                problems.append(f"{col} {what}: {g!r} vs seed {e!r}")
                break
    return problems


def observe_cli(outdir: Path) -> dict:
    """Fingerprints and gated scalars of one CLI task's output directory."""
    obs: dict = {"files": {}, "scalars": {}}
    for path in sorted(outdir.glob("*.csv")):
        meta, columns, data, body = read_table(path)
        obs["files"][path.name] = fingerprint(columns, data, body)
        if "revival_times" in meta:
            obs["scalars"]["revival_times"] = json.loads(meta["revival_times"])
            obs["scalars"]["sample_spacing"] = float(data[1, 0] - data[0, 0])
        if "fidelity" in columns:
            fid = data[:, columns.index("fidelity")]
            obs["scalars"]["fidelity_final"] = float(fid[-1])
            obs["scalars"]["deficit_max"] = float(np.max(1.0 - fid))
            obs["scalars"]["norm_drift_max"] = float(
                np.max(data[:, columns.index("norm_drift")]))
    for path in sorted(outdir.glob("*.meta.json")):
        side = json.loads(path.read_text(encoding="utf-8"))
        obs["scalars"][f"total_mass.{path.name}"] = side["total_mass"]
    return obs


def check(task: str, obs: dict, ref: dict) -> list[str]:
    """Problems with one task's observation; empty when every gate holds.

    `ref` is the seed observation of the same task."""
    problems = []
    got_s, ref_s = obs.get("scalars", {}), ref.get("scalars", {})
    for name, fp in ref.get("files", {}).items():
        if name not in obs["files"]:
            problems.append(f"missing output {name}")
            continue
        skip = ("norm_drift",) if "norm_drift" in fp["columns"] else ()
        problems += [f"{name}: {p}" for p in
                     compare_fingerprint(obs["files"][name], fp, skip)]
    for key, value in ref_s.items():
        if key not in got_s:
            problems.append(f"missing value {key}")
        elif key.startswith("total_mass.") or key.startswith("ladder."):
            if not close(got_s[key], value):
                problems.append(f"{key}: {got_s[key]!r} vs seed {value!r}")
    if "revival_times" in ref_s and "revival_times" in got_s:
        got_t, ref_t = got_s["revival_times"], ref_s["revival_times"]
        spacing = ref_s["sample_spacing"]
        if len(got_t) != len(ref_t):
            problems.append(f"{len(got_t)} revivals, seed has {len(ref_t)}")
        elif any(abs(g - e) > spacing * (1 + 1e-9)
                 for g, e in zip(got_t, ref_t)):
            problems.append(f"revival times {got_t} vs seed {ref_t}")
    if "norm_drift_max" in got_s and not got_s["norm_drift_max"] <= NORM_DRIFT_MAX:
        problems.append(f"norm drift {got_s['norm_drift_max']:.3e} > "
                        f"{NORM_DRIFT_MAX:g}")
    if task == "oracle_kerr_free" and not (
            got_s.get("deficit_max", math.inf) <= KERR_FREE_DEFICIT_MAX):
        problems.append(f"Kerr-free deficit {got_s.get('deficit_max')} > "
                        f"{KERR_FREE_DEFICIT_MAX:g}")
    if task == "oracle_fig2" and not close(
            got_s.get("fidelity_final", math.inf), ref_s["fidelity_final"],
            rtol=0.0, atol=FIDELITY_ATOL):
        problems.append(f"fig. 2 final fidelity {got_s.get('fidelity_final')}"
                        f" vs seed {ref_s['fidelity_final']}")
    if task == "timemap_theorem" and not (
            got_s.get("deficit_max", math.inf) <= THEOREM_DEFICIT_MAX):
        problems.append(f"theorem deficit {got_s.get('deficit_max')} > "
                        f"{THEOREM_DEFICIT_MAX:g}")
    return problems

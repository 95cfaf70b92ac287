"""Tests of the benchmark's own logic: fingerprints, self time, RHS
accounting, rebinding, and failure counting.

    python3 -m pytest perfbench/tests
"""

import json
import math
import sys

import pytest

import gates
import run
import tracing


def _table(tmp_path, rows):
    path = tmp_path / "out.csv"
    lines = ["# generator: test", "# config:", "#   model: {}",
             "# revival_times: [1.5]", "t,Q"]
    lines += [f"{t:.12g},{q:.12g}" for t, q in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _fingerprint(path):
    meta, columns, data, body = gates.read_table(path)
    return meta, gates.fingerprint(columns, data, body)


ROWS = [(0.01 * i, math.exp(-0.001 * i * i) / math.pi) for i in range(200)]


class TestFingerprint:
    def test_header_parsed_and_identical_body_agrees(self, tmp_path):
        meta, ref = _fingerprint(_table(tmp_path, ROWS))
        assert meta["revival_times"] == "[1.5]"
        assert "model" not in meta
        assert ref["rows"] == 200 and ref["columns"] == ["t", "Q"]
        assert gates.compare_fingerprint(ref, ref) == []

    @pytest.mark.parametrize("row", [0, 57, 100, 199])
    def test_perturbed_body_fails(self, tmp_path, row):
        _, ref = _fingerprint(_table(tmp_path, ROWS))
        bad = list(ROWS)
        bad[row] = (bad[row][0], bad[row][1] + 1e-4)
        _, got = _fingerprint(_table(tmp_path, bad))
        assert got["sha256"] != ref["sha256"]
        problems = gates.compare_fingerprint(got, ref)
        assert problems and problems[0].startswith("Q ")

    def test_change_within_tolerance_passes(self, tmp_path):
        _, ref = _fingerprint(_table(tmp_path, ROWS))
        moved = [(t, q * (1 + 1e-11)) for t, q in ROWS]
        _, got = _fingerprint(_table(tmp_path, moved))
        assert got["sha256"] != ref["sha256"]
        assert gates.compare_fingerprint(got, ref) == []

    def test_row_count_and_skipped_columns(self, tmp_path):
        _, ref = _fingerprint(_table(tmp_path, ROWS))
        _, short = _fingerprint(_table(tmp_path, ROWS[:-1]))
        assert gates.compare_fingerprint(short, ref) == ["rows 199 != 200"]
        bad = [(t, q + 1.0) for t, q in ROWS]
        _, got = _fingerprint(_table(tmp_path, bad))
        assert gates.compare_fingerprint(got, ref, skip=("Q",)) == []


class TestGates:
    def test_revival_times_within_one_spacing(self):
        ref = {"scalars": {"revival_times": [3.14, 6.28],
                           "sample_spacing": 0.01}}
        def obs(times):
            return {"files": {}, "scalars": {"revival_times": times,
                                             "sample_spacing": 0.01}}
        ok, late, lost = obs([3.15, 6.27]), obs([3.16, 6.28]), obs([3.14])
        assert gates.check("autocorr", ok, ref) == []
        assert gates.check("autocorr", late, ref)
        assert gates.check("autocorr", lost, ref)

    def test_absolute_oracle_and_theorem_gates(self):
        ref = {"scalars": {"fidelity_final": 0.99909, "deficit_max": 0.4,
                           "norm_drift_max": 1e-13}}
        good = {"files": {}, "scalars": dict(ref["scalars"])}
        assert gates.check("oracle_fig2", good, ref) == []
        drift = {"files": {}, "scalars": dict(good["scalars"],
                                              norm_drift_max=2e-8)}
        assert gates.check("oracle_fig2", drift, ref)
        fid = {"files": {}, "scalars": dict(good["scalars"],
                                            fidelity_final=0.99919)}
        assert gates.check("oracle_fig2", fid, ref)
        free_ref = {"scalars": {"deficit_max": 0.0, "norm_drift_max": 0.0,
                                "fidelity_final": 1.0}}
        free_bad = {"files": {}, "scalars": dict(free_ref["scalars"],
                                                 deficit_max=2e-7)}
        assert gates.check("oracle_kerr_free", free_bad, free_ref)
        theorem = {"scalars": {"deficit_max": 0.0}}
        assert gates.check("timemap_theorem",
                           {"scalars": {"deficit_max": 2e-8}}, theorem)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_child_spans_subtracted_once(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)

        def leaf():
            clock.now += 2.0

        def middle():
            clock.now += 1.0
            tracer.call("leaf", leaf, (), {})
            clock.now += 1.0

        def top():
            clock.now += 0.5
            tracer.call("middle", middle, (), {})
            tracer.call("leaf2", leaf, (), {})
            clock.now += 0.5

        tracer.call("top", top, (), {})
        spans = [s.as_dict() for s in tracer.spans]
        selfs = tracing.self_times(spans)
        by_name = {s["name"]: selfs[s["id"]] for s in spans}
        # top lasts 7: children middle (4) and leaf2 (2); the grandchild
        # leaf sits inside middle and is not subtracted from top again.
        assert by_name == {"top": 1.0, "middle": 2.0, "leaf": 2.0,
                           "leaf2": 2.0}
        totals = tracing.summarize(spans)
        assert totals["top.s"] == 7.0 and totals["top.self.s"] == 1.0

    def test_rhs_time_and_nested_same_layer(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)

        def stepper(rhs, y0):
            clock.now += 1.0
            for _ in range(3):
                rhs(0.0, y0)
            return y0

        def rhs(t, y):
            clock.now += 0.25
            # wrapped work inside an RHS evaluation is RHS time, not a span
            tracer.call("timemap", lambda: None, (), {})
            return y

        adaptive = tracer.adaptive(stepper)
        outer = tracer.wrap("timemap", lambda: tracer.call(
            "timemap", lambda: adaptive(rhs, 1.0), (), {}))
        outer()
        spans = [s.as_dict() for s in tracer.spans]
        assert [s["name"] for s in spans] == ["timemap", "integrators"]
        totals = tracing.summarize(spans)
        assert totals["timemap.calls"] == 1
        assert totals["integrators.rhs_n"] == 3
        assert totals["integrators.rhs.s"] == 0.75
        assert totals["integrators.self.s"] == 1.0
        assert totals["timemap.self.s"] == 0.0


@pytest.fixture
def restore_kerrosc():
    import kerrosc.cli  # noqa: F401
    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name == "kerrosc" or name.startswith("kerrosc.")}
    yield
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)


class TestInstall:
    def test_rebinds_imported_names_and_counts_rhs(self, restore_kerrosc,
                                                   monkeypatch):
        import kerrosc.cli
        import kerrosc.evolution
        from kerrosc.driven import DriveSpec

        monkeypatch.setitem(tracing.WRAPPED, "gone",
                            [("kerrosc.evolution", "no_such_function")])
        tracer = tracing.Tracer()
        found = tracing.install(tracer)
        assert "kerrosc.evolution.no_such_function" not in found
        assert kerrosc.cli.integrate_wei_norman \
            is kerrosc.evolution.integrate_wei_norman
        assert kerrosc.cli.integrate_wei_norman.__wrapped__ is not None

        params = kerrosc.evolution.ModelParams(
            omega0=1.0, chi=0.25, drive=DriveSpec.cosine(1.0, 1.0), alpha=3.0)
        kerrosc.cli.integrate_wei_norman(params, 1.0, samples=11)
        totals = tracing.summarize([s.as_dict() for s in tracer.spans])
        assert totals["evolution.wei_norman.calls"] == 1
        assert totals["integrators.calls"] == 1
        assert totals["integrators.rhs_n"] > 0
        assert "gone.calls" not in totals


class TestFailureAccounting:
    def _run(self, monkeypatch, tmp_path, results):
        monkeypatch.setattr(run, "WORK", tmp_path)
        monkeypatch.setattr(run.gates, "load_reference",
                            lambda: {"figures": {}})
        monkeypatch.setattr(run, "measure_setup", lambda w, d: 1.0)
        monkeypatch.setattr(run, "run_pass", lambda *a: results)
        return run.run_workload("figures", seed=3, seconds=0, trace=False)

    def test_failed_tasks_counted_against_attempted(self, monkeypatch,
                                                    tmp_path):
        results = [run.TaskResult("a", 1.0, 10.0, []),
                   run.TaskResult("b", 3.0, 20.0, ["missed gate"]),
                   run.TaskResult("c", 2.0, 30.0, [])]
        out = self._run(monkeypatch, tmp_path, results)
        assert (out["attempted"], out["failed"]) == (3, 1)
        assert out["metrics"]["task_max_s"] == (3.0, "s")
        assert out["metrics"]["peak_rss_mb"] == (30.0, "MB")

    def test_crashed_worker_fails_every_task(self, monkeypatch, tmp_path):
        log = tmp_path / "stepper.log"

        def crash(cmd, log_path):
            log_path.write_text("Traceback: boom\n")
            return 2.0, 1, 50.0

        monkeypatch.setattr(run, "spawn", crash)
        results = run.run_stepper_pass(["x", "y"], tmp_path, None, {})
        assert [bool(r.problems) for r in results] == [True, True]
        assert "boom" in results[0].problems[0]
        assert log.exists()

    def test_fail_ratio_printed(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        for p in ("src/kerrosc", "scenarios", "perfbench"):
            (tmp_path / p).mkdir(parents=True)
        (tmp_path / "src/kerrosc/__init__.py").write_text("")
        monkeypatch.setattr(run, "BENCH", "perfbench")
        (tmp_path / "perfbench/reference.json").write_text("{}")
        fake = {"workload": "oracle", "passes": [], "attempted": 4,
                "failed": 1, "metrics": {"wall_s": (2.0, "s")}}
        monkeypatch.setattr(run, "run_workload", lambda *a: fake)
        assert run.main(["--workload", "oracle", "--seconds", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert any(line.split()[1:] == ["fail_ratio", "0.25", "ratio"]
                   for line in out)
        assert out[-1].startswith('{"correct": false, "attempted": 4')

    def test_missing_source_tree_exits_nonzero(self, monkeypatch, tmp_path,
                                               capsys):
        monkeypatch.chdir(tmp_path)
        assert run.main(["--workload", "figures"]) != 0
        assert capsys.readouterr().out == ""


def test_husimi_cells_count_grid_nodes_times_basis():
    from kerrosc.fock import coherent_state
    from kerrosc.observables import husimi_grid
    state = coherent_state(1.0, 20)
    grid = husimi_grid(state, (-1, 1), (-1, 1), (5, 4))
    assert tracing._husimi_cells((state,), {}, grid) == 5 * 4 * 20


def test_benchmark_json_names_every_emitted_metric(tmp_path):
    spec = json.loads((run.HERE.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    layer = run.layer_metrics(tmp_path, [])
    assert all(value == 0.0 for value, _ in layer.values())
    emitted = {**layer, "trace.overhead_s": (0.0, "s")}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in emitted.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS

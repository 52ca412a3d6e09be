"""The repro.bench orchestrator: sweep execution, failure collection,
baseline regression comparison, and the lolbench CLI."""

import json

import pytest

from repro.bench import (
    NOISE_FLOOR_S,
    Comparison,
    SweepConfig,
    collect_failures,
    compare_to_baseline,
    main,
    regressions,
    render_comparison,
    render_results,
    run_sweep,
)

pytestmark = pytest.mark.workload


@pytest.fixture(scope="module")
def tiny_payload():
    config = SweepConfig(
        workloads=("ring", "tree_reduce"),
        pe_counts=(1, 2),
        reps=1,
        smoke=True,
    )
    return run_sweep(config)


def test_run_sweep_schema(tiny_payload):
    assert tiny_payload["schema"] == 1
    assert tiny_payload["failures"] == []
    rows = tiny_payload["results"]
    # 2 workloads x 2 engines (ast/vm) x 2 PE counts
    # on the thread executor
    assert len(rows) == 8
    assert {r["engine"] for r in rows} == {"ast", "vm"}
    for row in rows:
        assert row["checker"] == "pass"
        assert row["differential"] == "pass"
        assert row["seconds"] >= 0.0
        assert row["trace"]["n_pes"] == row["n_pes"]
        machines = {p["machine"] for p in row["projections"]}
        assert any("Epiphany" in m for m in machines)
        assert any("XC40" in m for m in machines)


def test_run_sweep_records_params(tiny_payload):
    ring_rows = [
        r for r in tiny_payload["results"] if r["workload"] == "ring"
    ]
    assert all(r["params"]["slots"] == 4 for r in ring_rows)  # smoke size


def test_render_results_table(tiny_payload):
    table = render_results(tiny_payload["results"])
    assert "ring" in table and "tree_reduce" in table
    assert "ok" in table


def test_param_overrides_reach_the_kernel():
    payload = run_sweep(
        SweepConfig(
            workloads=("scan",),
            pe_counts=(2,),
            engines=("vm",),
            reps=1,
            params={"scan": {"scale": 3}},
        )
    )
    (row,) = payload["results"]
    assert row["params"] == {"scale": 3}
    assert row["checker"] == "pass"
    # With one engine there is nothing to diff against — never claim
    # the differential gate passed.
    assert row["differential"] == "skipped (single engine)"


def test_raising_checker_is_recorded_not_fatal():
    # A checker tripping over malformed output is a verification failure
    # in that row; it must not abort the rest of the sweep.
    from repro.workloads import WORKLOADS, Workload, get_workload, register

    ring = get_workload("ring")
    register(
        Workload(
            name="_test_boom",
            domain="test",
            comm_pattern="none",
            description="checker raises",
            source_fn=ring.source_fn,
            check_fn=lambda *a: (_ for _ in ()).throw(ValueError("boom")),
            params=ring.params,
        )
    )
    try:
        payload = run_sweep(
            SweepConfig(
                workloads=("_test_boom", "ring"),
                engines=("vm",),
                pe_counts=(1,),
                reps=1,
                smoke=True,
            )
        )
    finally:
        WORKLOADS.pop("_test_boom")
    boom_row, ring_row = payload["results"]
    assert boom_row["checker"] == ["checker raised ValueError: boom"]
    assert ring_row["checker"] == "pass"  # sweep continued
    assert any("checker raised" in f for f in payload["failures"])


def test_collect_failures_flags_bad_rows():
    rows = [
        {"workload": "w", "engine": "e", "executor": "x", "n_pes": 1,
         "checker": ["boom"], "differential": "pass"},
        {"workload": "w", "engine": "e2", "executor": "x", "n_pes": 1,
         "checker": "pass", "differential": "output differs from engine 'e'"},
        {"workload": "w", "engine": "e3", "executor": "x", "n_pes": 1,
         "error": "ValueError: nope"},
        {"workload": "w", "engine": "e4", "executor": "x", "n_pes": 1,
         "checker": "pass", "differential": "skipped (nondeterministic workload)"},
    ]
    failures = collect_failures(rows)
    assert len(failures) == 3
    assert any("checker: boom" in f for f in failures)
    assert any("differential" in f for f in failures)
    assert any("error" in f for f in failures)


@pytest.mark.requires_cc
def test_compile_restricted_workload_skipped_with_reason():
    # A workload the C backend cannot translate (SRS computed
    # identifiers) must yield an explicit per-row skip reason for the
    # native engine — never an error row, a silent drop, or a silent
    # fallback to an interpreter — while the interpreter rows still run.
    from repro.workloads import WORKLOADS, Workload, register

    register(
        Workload(
            name="_test_srs",
            domain="test",
            comm_pattern="none",
            description="interpret-only kernel",
            source_fn=lambda params: (
                'HAI 1.2\nI HAS A x ITZ 1\nVISIBLE SRS "x"\nKTHXBYE\n'
            ),
            check_fn=lambda *a: [],
        )
    )
    try:
        payload = run_sweep(
            SweepConfig(
                workloads=("_test_srs",),
                engines=("vm", "ast", "c"),
                pe_counts=(1,),
                reps=1,
                smoke=True,
            )
        )
    finally:
        WORKLOADS.pop("_test_srs")
    rows = {r["engine"]: r for r in payload["results"]}
    assert rows["vm"]["checker"] == "pass"
    assert rows["ast"]["checker"] == "pass"
    assert "seconds" not in rows["c"]
    assert "compile-time restriction" in rows["c"]["skipped"]
    assert "SRS" in rows["c"]["skipped"]
    # Native rows name what hosted their PEs, not the sweep's executor.
    assert rows["c"]["executor"] == "native"
    assert rows["vm"]["executor"] == "thread"
    # an explicit skip is a recorded outcome, not a verification failure
    assert payload["failures"] == []
    assert "SKIP" in render_results(payload["results"])


def test_collect_failures_ignores_explicit_skips():
    rows = [
        {"workload": "w", "engine": "c", "executor": "x", "n_pes": 1,
         "skipped": "compile-time restriction: SRS"},
    ]
    assert collect_failures(rows) == []


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


def _payload(seconds_by_cell):
    return {
        "results": [
            {
                "workload": w,
                "engine": e,
                "executor": "thread",
                "n_pes": n,
                "seconds": s,
            }
            for (w, e, n), s in seconds_by_cell.items()
        ]
    }


def test_baseline_regression_detected():
    base = _payload({("a", "vm", 4): 0.010})
    cur = _payload({("a", "vm", 4): 0.020})  # 2x and +10ms
    comps = compare_to_baseline(cur, base)
    assert len(comps) == 1
    assert comps[0].ratio == pytest.approx(2.0)
    assert regressions(comps, 0.20) == comps
    assert "REGRESSION" in render_comparison(comps, 0.20)


def test_baseline_noise_floor_absorbs_tiny_cells():
    # 3x slower but only +40us: sub-floor jitter, not a regression.
    base = _payload({("a", "vm", 1): 0.00002})
    cur = _payload({("a", "vm", 1): 0.00006})
    comps = compare_to_baseline(cur, base)
    assert regressions(comps, 0.20) == []
    assert NOISE_FLOOR_S > 0.00006


def test_baseline_improvement_and_missing_cells_ok():
    base = _payload({("a", "vm", 4): 0.020, ("gone", "ast", 1): 0.5})
    cur = _payload({("a", "vm", 4): 0.010, ("new", "ast", 1): 0.5})
    comps = compare_to_baseline(cur, base)
    assert len(comps) == 1  # only the overlapping cell
    assert regressions(comps, 0.20) == []


def test_baseline_different_params_never_compared():
    base = {"results": [{"workload": "a", "engine": "e", "executor": "x",
                         "n_pes": 4, "seconds": 0.001,
                         "params": {"cells": 8}}]}
    cur = {"results": [{"workload": "a", "engine": "e", "executor": "x",
                        "n_pes": 4, "seconds": 0.5,
                        "params": {"cells": 800}}]}
    # 500x slower — but a different problem size, so not comparable.
    assert compare_to_baseline(cur, base) == []


def test_comparison_zero_baseline():
    assert Comparison(("a", "e", "x", 1), 0.0, 0.1).ratio == float("inf")
    assert Comparison(("a", "e", "x", 1), 0.0, 0.0).ratio == 1.0


def test_baseline_keys_by_engine_so_compiled_regresses_independently():
    # A slowdown in the natively compiled rows must be attributed to the
    # c engine only — interpreter cells with the same workload/PE count
    # stay green, and skipped c rows (no "seconds") are ignored.
    base = _payload({("a", "vm", 4): 0.010, ("a", "c", 4): 0.010})
    cur = _payload({("a", "vm", 4): 0.010, ("a", "c", 4): 0.050})
    comps = compare_to_baseline(cur, base)
    bad = regressions(comps, 0.20)
    assert [c.key[1] for c in bad] == ["c"]
    cur["results"].append(
        {"workload": "b", "engine": "c", "executor": "thread",
         "n_pes": 4, "skipped": "compile-time restriction: SRS"}
    )
    base["results"].append(
        {"workload": "b", "engine": "c", "executor": "thread",
         "n_pes": 4, "seconds": 0.010}
    )
    assert len(compare_to_baseline(cur, base)) == len(comps)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "heat2d" in out and "comm pattern" in out


def test_cli_unknown_workload_is_an_error(capsys):
    assert main(["--workloads", "nope", "--out", "/dev/null"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_cli_bad_set_syntax():
    assert main(["--set", "nonsense", "--out", "/dev/null"]) == 2


def test_cli_set_typos_rejected(capsys):
    # Misspelled workload name must not silently sweep with defaults.
    assert main(["--set", "nbdoy.particles=64", "--out", "/dev/null"]) == 2
    assert "unknown workload" in capsys.readouterr().err
    assert main(["--set", "nbody.prticles=64", "--out", "/dev/null"]) == 2
    assert "no parameter" in capsys.readouterr().err
    # Out-of-range values must also fail before any cell is swept.
    assert main(["--set", "nbody.particles=1", "--out", "/dev/null"]) == 2
    assert "must be >= 2" in capsys.readouterr().err


def test_cli_missing_baseline_fails_before_sweeping(capsys, tmp_path):
    assert main(["--baseline", str(tmp_path / "nope.json"),
                 "--out", "/dev/null"]) == 2
    assert "bad --baseline" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--baseline", str(bad), "--out", "/dev/null"]) == 2


def _doctored(payload, tmp_path, name, scale):
    doctored = json.loads(json.dumps(payload))
    for row in doctored["results"]:
        row["seconds"] = row["seconds"] * scale
    path = tmp_path / name
    path.write_text(json.dumps(doctored))
    return path


def test_cli_writes_payload_and_baseline_gates(tmp_path, capsys):
    out = tmp_path / "bench.json"
    # Default (non-smoke) heat1d sizes: every rep stays above the 2ms
    # noise floor, so an impossibly fast baseline must gate.
    args = [
        "--workloads", "heat1d", "--pes", "4", "--engines", "vm",
        "--reps", "2", "--out", str(out),
    ]
    assert main(args) == 0
    payload = json.loads(out.read_text())
    assert payload["results"][0]["workload"] == "heat1d"
    assert payload["failures"] == []

    # Both gate outcomes are checked against doctored baselines, so
    # neither depends on how the host times a re-run.  A baseline 10x
    # slower than this run: no regression.
    slow = _doctored(payload, tmp_path, "slow.json", 10.0)
    assert main(args + ["--baseline", str(slow)]) == 0

    # A doctored, impossibly fast baseline must gate with exit 3.
    fast = _doctored(payload, tmp_path, "fast.json", 1e-9)
    capsys.readouterr()
    assert main(args + ["--baseline", str(fast)]) == 3
    assert "REGRESSION" in capsys.readouterr().out

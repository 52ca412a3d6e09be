"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are defined in
``perfbench/spec.json``; every measured process is a fresh
``perfbench/harness.py`` child, so set-up time is measured the same way
each time and a traced pass never instruments a timed one.

* ``--trace 0``: set up ``SETUP_REPEATS - 1`` times on their own, then
  once more before the untraced closed loop of ``S`` seconds; print the
  end-to-end metrics (``setup_s`` is the median of the set-ups).  Times
  are scaled to the reference host of ``calibrate.py``; the report
  prints the unscaled figures beside them.
* ``--trace 1``: run the untraced loop for ``S / 2`` seconds, then the
  same job list, for the same number of runs, in a traced child; print
  the per-layer metrics and whether each workload's predicted dominant
  layer group holds.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every run
verified, 1 on any verification failure or a child that did not finish,
2 on bad usage or an armed ``LOL_OBS``/``LOL_FAULTS``.  Native builds and
temporary files go to a private directory under ``.perfbench-tmp/``,
removed at exit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.schedule import load_spec  # noqa: E402
from perfbench.stats import median  # noqa: E402

HARNESS = ROOT / "perfbench" / "harness.py"
SETUP_REPEATS = 3
#: Whole invocation budget; the contract allows 180 s.
BUDGET_S = 170.0
#: ROADMAP's target for trace.coverage_ratio.
COVERAGE_TARGET = 0.9


class ChildFailed(Exception):
    pass


def _sweep(pgid: int) -> None:
    """Kill whatever is left in a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(args: list, env: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HARNESS), *args, "--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _sweep(proc.pid)
        proc.wait()
        raise ChildFailed(f"harness {' '.join(args)} ran out of time")
    finally:
        _sweep(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"harness {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, tmp: Path, deadline: float) -> tuple:
    """Run the children for one invocation; returns (report lines, result)."""
    counter = itertools.count()

    def child(*extra: str) -> dict:
        n = next(counter)
        env = dict(os.environ)
        env["LOL_CC_CACHE"] = str(tmp / f"cc-{n}")
        env["TMPDIR"] = str(tmp / f"tmp-{n}")
        os.makedirs(env["TMPDIR"])
        base = ["--workload", args.workload, "--seed", str(args.seed)]
        return run_child(base + list(extra), env, deadline)

    spec = load_spec()
    lines = []
    if not args.trace:
        setups = [child("--mode", "setup")["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        loop = child("--mode", "loop", "--seconds", repr(args.seconds))
        setups.append(loop["setup_s"])
        metrics = {
            "setup_s": median(setups),
            "runs_per_s": loop["runs_per_s"],
            "run_p50_ms": loop["run_p50_ms"],
            "run_p90_ms": loop["run_p90_ms"],
            "peak_rss_mb": loop["peak_rss_mb"],
        }
        units = _units("end_to_end")
        attempted, failed = loop["attempted"], loop["failed"]
        failures = loop["failures"]
        lines.append(
            f"{args.workload}: {attempted} runs, "
            f"{loop['reference_checked']} replayed on the ast engine, "
            f"set-ups {[round(s, 3) for s in setups]} s"
        )
        lines.append(
            f"  times are scaled to the reference host; this host ran "
            f"{loop['slowness_p50']:.3f}x slower (median), unscaled run_p50 "
            f"{loop['raw_run_p50_ms']:.4f} ms, last set-up {loop['raw_setup_s']:.4f} s"
        )
        for name, value in metrics.items():
            lines.append(f"  {name:<14} {value:12.4f} {units[name]}")
        lines.append(
            f"  {'fail_ratio':<14} {failed / max(attempted, 1):12.4f} failed/attempted"
        )
    else:
        loop = child("--mode", "loop", "--seconds", repr(args.seconds / 2))
        traced = child("--mode", "traced", "--runs", str(loop["attempted"]))
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_ratio"] = (
            traced["run_p50_ms"] / loop["run_p50_ms"] - 1 if loop["run_p50_ms"] else 0.0
        )
        units = _units("per_layer")
        attempted = loop["attempted"] + traced["attempted"]
        failed = loop["failed"] + traced["failed"]
        failures = loop["failures"] + traced["failures"]
        claims = spec["per_layer"]
        lines.append(f"{args.workload}: traced pass of {traced['attempted']} runs")
        for name in units:
            lines.append(
                f"  {name:<26} {metrics[name]:12.4f} {units[name]:<7} "
                f"moves: {claims[name]['moves']}"
            )
        lines += dominance(spec["workloads"][args.workload], traced["shares"])
        coverage = metrics["trace.coverage_ratio"]
        verdict = "met" if coverage >= COVERAGE_TARGET else "NOT met"
        lines.append(
            f"  layers below the root explain {coverage:.1%} of the timed calls "
            f"(target {COVERAGE_TARGET:.0%} {verdict})"
        )
    for failure in failures:
        lines.append(f"  FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    return lines, result


def dominance(spec: dict, shares: dict) -> list:
    """Report each layer group's share and whether the prediction holds."""
    predicted = spec["dominant"]
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    lines = ["  share of timed-call wall time by layer group:"]
    lines += [f"    {group:<15} {share:7.1%}" for group, share in ranked]
    top = ranked[0][0]
    if top == predicted:
        lines.append(f"  predicted dominant layer group '{predicted}' holds")
    else:
        lines.append(
            f"  predicted dominant layer group '{predicted}' does NOT hold: "
            f"'{top}' takes the largest share"
        )
    return lines


def _units(kind: str) -> dict:
    """Metric name -> unit, in BENCHMARK.json order."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.workload not in load_spec()["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    armed = [v for v in ("LOL_OBS", "LOL_FAULTS") if os.environ.get(v)]
    if armed:
        print(f"refusing to run with {', '.join(armed)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 1
    deadline = time.monotonic() + BUDGET_S
    tmp_root = ROOT / ".perfbench-tmp"
    tmp = tmp_root / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        lines, result = measure(args, tmp, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

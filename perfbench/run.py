"""finevo benchmark: one workload, one seed, one line of JSON metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload golden-battery --seed 42 --seconds 20 --trace 0

The run times the import of ``finevo.cli`` in fresh interpreters
(``setup_s``), generates the workload's inputs from the seed, then starts
one measured process (``passes.py``) that runs the workload's commands in
passes. ``wall_ref`` is the median pass time in units of the benchmark's
fixed reference kernel (``reference.py``), run between the commands: on a
shared machine CPU speed can drift by +-20% over seconds to minutes, while
the ratio moves by a few percent. Every report is checked: exit code, the
sizes it states against the benchmark's own fingerprint of the law, identical
bytes on every pass, and at seeds in ``digests.json`` the recorded SHA-256
and exit code. ``--trace 1`` prints the per-layer metrics of
``BENCHMARK.json`` instead of the end-to-end ones. The last line of stdout
is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 5
MIN_PASSES = 3
TIME_LIMIT_S = 170
ALLOWED_RC = (0, 1)  # 1 is a legitimate statistical outcome at alpha
REPLICATING = ("example", "simulate")
REPLICATION_LOOPS = ("simulate.verify_third_noise", "simulate.verify_mono_projection",
                     "simulate.verify_nonstationary_joint")

# One thread for BLAS and OpenMP, and a fixed hash seed, in every process
# that imports finevo.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def measured_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter importing finevo.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import finevo.cli"], env=env,
                       cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def check_commands(passes, wl, recorded) -> list:
    """Every failed command as (pass index, label, reason)."""
    failures = []
    first_sha = {}
    for i, run in enumerate(passes):
        for cmd, res in zip(wl.commands, run["commands"]):
            reason = None
            want = recorded.get(cmd.label)
            if res["error"]:
                reason = res["error"]
            elif want is not None and res["rc"] != want["rc"]:
                reason = f"exit {res['rc']}, recorded {want['rc']}"
            elif want is None and res["rc"] not in ALLOWED_RC:
                reason = f"exit {res['rc']}"
            elif want is not None and res["sha256"] != want["sha256"]:
                reason = "report differs from the recorded digest"
            elif res["facts"] != wl.fingerprints[cmd.law]:
                reason = f"report sizes {res['facts']} != fingerprint"
            elif first_sha.setdefault(cmd.label, res["sha256"]) != res["sha256"]:
                reason = "report bytes differ between passes"
            if reason:
                failures.append((i, cmd.label, reason))
    return failures


def end_to_end(passes, result, setup_s) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(p["wall_ref"] for p in passes), "ref"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(passes, wl, result) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    mean_ref = statistics.mean(r for p in passes for r in p["refs"])
    reps = sum(c.replications for c in wl.commands)
    rep_count = sum(c.replications for c in wl.commands if c.argv[0] in REPLICATING)
    rep_time = statistics.median(
        sum(r["seconds"] for c, r in zip(wl.commands, p["commands"])
            if c.argv[0] in REPLICATING)
        for p in plain)
    whole_run = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        # in reference units first, so that drift in CPU speed between the
        # traced and untraced passes does not show up as overhead
        "trace.overhead_s": mean_ref * (statistics.median(p["wall_ref"] for p in traced)
                                        - statistics.median(p["wall_ref"] for p in plain)),
        "reps_per_s": rep_count / rep_time if rep_count else 0.0,
    }

    def derived(s: dict) -> dict:
        loops = sum(s.get(f"{name}.total_s", 0.0) for name in REPLICATION_LOOPS)
        out = dict(s)
        out["cli.unattributed_s"] = s.get("cli.self_s", 0.0) + s.get("command.self_s", 0.0)
        out["simulate.us_per_rep"] = 1e6 * loops / reps if reps else 0.0
        for command in ("analyze", "simulate", "verify", "example"):
            out[f"cli.{command}.total_s"] = s.get(f"cli.cmd_{command}.total_s", 0.0)
        return out

    rows = [derived(s) for s in result["trace"]]
    metrics = {}
    for m in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = m["name"]
        value = (whole_run[name] if name in whole_run
                 else statistics.median(row.get(name, 0) for row in rows))
        metrics[name] = (value, m["unit"])
    return metrics


def run_passes(wl, workdir, seconds, trace, env, deadline) -> dict:
    spec = workdir / "spec.json"
    out = workdir / "result.json"
    spec.write_text(json.dumps({
        "src": str(SRC),
        "commands": [{"label": c.label, "argv": c.argv} for c in wl.commands],
        "seconds": seconds,
        "trace": trace,
        "min_passes": 2 * (MIN_PASSES - 1) if trace else MIN_PASSES,
        "spans_out": str(RUNS / f"spans-{wl.name}.json"),
    }))
    subprocess.run([sys.executable, str(HERE / "passes.py"), str(spec), str(out)],
                   env=env, cwd=workdir, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "finevo" / "cli.py").is_file():
        print(f"perfbench: no finevo sources under {SRC}", file=sys.stderr)
        return 2

    env = measured_env()
    setup_s = None if args.trace else setup_seconds(env)
    workdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        for key, fp in wl.fingerprints.items():
            print(f"law {key}: " + " ".join(f"{k}={v}" for k, v in fp.items()))
        result = run_passes(wl, workdir, args.seconds, bool(args.trace), env,
                            deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recorded = json.loads(DIGESTS.read_text()).get(wl.name, {}).get(str(wl.seed), {})
    passes = result["passes"]
    failures = check_commands(passes, wl, recorded)
    for i, run in enumerate(passes):
        kind = "traced" if run["traced"] else "untraced"
        print(f"pass {i} ({kind}): {run['wall_s']:.3f} s, {run['wall_ref']:.2f} ref")
    for i, label, reason in failures:
        print(f"FAILED pass {i} {label}: {reason}")

    if args.trace:
        metrics = per_layer(passes, wl, result)
    else:
        metrics = end_to_end(passes, result, setup_s)
    attempted = sum(len(p["commands"]) for p in passes)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

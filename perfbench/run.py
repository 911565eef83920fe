"""ainfcat benchmark: run one workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hh-free --seed 0 --seconds 25 --trace 0

One client runs the workload's fixed job list one job at a time (closed
loop, one process, one thread), each job a real command line passed to
`ainfcat.cli.main` in this process with stdout captured.  The package is
imported from `src/` of the checkout; nothing is installed.

With `--trace 0` the job list runs twice, and again as long as the next
pass is expected to end within `--seconds`; the run reports the median
pass time (`wall_s`), the median of five cold set-ups each in a fresh interpreter
(`setup_s`) and the process's peak resident memory (`peak_rss_mb`).  With
`--trace 1` one untraced pass is followed by one traced pass, and the run
reports the per-layer metrics of `spans.py` next to both pass times; the
spans themselves go to `.perfbench/spans/<workload>-seed<n>.json`.

Every job's exit code and report are checked against `expected.json`
(byte for byte at seed 0, renaming-invariant fields at other seeds).  The
last line of stdout is the result object; the line before it records the
run environment.  See README.md for the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from spans import TOP, Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ainfcat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [" ".join(["ainfcat", *job]) for job in W.WORKLOADS[args.workload]],
    }


def cold_setup_s(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting an interpreter to its first job being ready."""
    workdir.mkdir()
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
         "--seed", str(seed), "--dir", str(workdir), "--src", str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def count_failures(expected: list[dict], outcomes, seed: int) -> int:
    failed = 0
    for exp, (code, text) in zip(expected, outcomes):
        why = W.check(exp, code, text, seed)
        if why is not None:
            print(f"job failed: ainfcat {' '.join(exp['argv'])}: {why}", file=sys.stderr)
            failed += 1
    return failed


def write_spans(tracer: Tracer, env: dict) -> None:
    out = ROOT / ".perfbench" / "spans" / f"{env['workload']}-seed{env['seed']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"env": env, "counts": {k: v[0] for k, v in tracer.counts.items()}, "spans": tracer.spans}
    out.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def measure(args, cli, expected) -> tuple[dict, int, int]:
    """Run the passes; return (metrics, jobs attempted, jobs failed)."""
    jobs = W.WORKLOADS[args.workload]
    attempted = failed = 0

    def one_pass():
        nonlocal attempted, failed
        elapsed, outcomes = W.run_pass(cli, jobs)
        attempted += len(outcomes)
        failed += count_failures(expected, outcomes, args.seed)
        return elapsed

    if not args.trace:
        deadline = time.perf_counter() + args.seconds
        times = [one_pass() for _ in range(W.MIN_PASSES)]
        while time.perf_counter() + times[-1] <= deadline:
            times.append(one_pass())
        return {"wall_s": statistics.median(times)}, attempted, failed

    untraced = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics.update({
        "run.untraced_wall_s": untraced,
        "run.traced_wall_s": traced,
        "run.overhead_share": traced / untraced - 1,
        "run.top_span_coverage": tracer.top_level_time() / traced,
        "run.tracer_s": tracer.tracer_s,
    })
    write_spans(tracer, environment(args))
    if metrics[f"{TOP}.calls"] != len(jobs):
        raise RuntimeError(f"traced {metrics[f'{TOP}.calls']} top-level calls for {len(jobs)} jobs")
    return metrics, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "ainfcat" / "cli.py").is_file():
        print(f"perfbench: no ainfcat sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    if [e["argv"] for e in expected] != W.WORKLOADS[args.workload]:
        print("perfbench: expected.json does not match the job list; rerun perfbench/record.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    units = metric_units() if args.trace else {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if not args.trace:
            setups = [cold_setup_s(args.workload, args.seed, work / f"probe{i}") for i in range(SETUP_PROBES)]
        from ainfcat import cli, fileformat

        paths = W.write_fixtures(cli, work, W.fixtures_for(args.workload), args.seed)
        W.load_all(fileformat, paths)
        with W.working_directory(work):
            metrics, attempted, failed = measure(args, cli, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted}", file=sys.stderr)
    print(json.dumps({"env": environment(args)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

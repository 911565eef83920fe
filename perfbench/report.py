"""Run every workload untraced and traced, and print one table of results.

Run from the root of a checkout:

    python3 perfbench/report.py [--seed N]

Each run measures for the `run_seconds` of BENCHMARK.json.  For each
workload it prints the end-to-end metrics of an untraced run
(`wall_s`, `setup_s`, `peak_rss_mb`) with `fail_ratio` = failed / attempted
jobs, then the traced run's untraced and traced pass times, the tracing
overhead, the tracer's own counter time, the share of the traced pass
covered by top-level spans, the spans with the most self time as shares of the traced pass, and the
size counters.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
TOP_SPANS = 8


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    args = ap.parse_args()

    for i, name in enumerate(W.WORKLOADS):
        env, plain = run(name, args.seed, 0)
        _, traced = run(name, args.seed, 1)
        if i == 0:
            print(f"commit {env['commit']}  source {env['source_sha256'][:12]}  "
                  f"python {env['python']}  nproc {env['nproc']}  seed {env['seed']}")
        print(f"\n== {name}: " + "; ".join(env["jobs"]))
        for metric, m in plain["metrics"].items():
            print(f"  {metric:<12} {m['value']:>12.4f} {m['unit']}")
        for result, label in ((plain, "untraced"), (traced, "traced")):
            ratio = result["failed"] / result["attempted"]
            print(f"  fail_ratio   {ratio:>12.4f} ratio ({result['failed']}/{result['attempted']} jobs, {label} run)")
        t = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = t["run.traced_wall_s"]
        print(f"  traced run: untraced pass {t['run.untraced_wall_s']:.3f} s, traced pass {wall:.3f} s, "
              f"overhead {t['run.traced_wall_s'] - t['run.untraced_wall_s']:+.3f} s "
              f"({t['run.overhead_share']:+.1%}), tracer counters {t['run.tracer_s']:.3f} s, "
              f"top-level spans cover {t['run.top_span_coverage']:.1%}")
        selfs = sorted(((v, k[: -len(".self_s")]) for k, v in t.items() if k.endswith(".self_s")), reverse=True)
        for value, span in selfs[:TOP_SPANS]:
            calls = t[f"{span}.calls"]
            print(f"    {span:<44} self {value:>9.3f} s {value / wall:>6.1%}  calls {calls}")
        counters = ("intlinalg.smith_normal_form.cells", "intlinalg.smith_normal_form.nnz",
                    "intlinalg.smith_normal_form.max_dim", "intlinalg.smith_normal_form.max_coeff_bits",
                    "complexes.basis_size", "core.AinfCategory.mu_key.calls")
        for c in counters:
            print(f"    {c:<44} {t[c]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

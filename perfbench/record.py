"""Record the expected outcome of every benchmark job into expected.json.

Run from the root of a checkout, on the commit whose reports are correct:

    python3 perfbench/record.py

Each job runs once at the default seed.  The file keeps its exit code, the
SHA-256 of its stdout and the renaming-invariant report fields that runs at
other seeds are compared on.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from ainfcat import cli

    expected = {}
    for name, jobs in W.WORKLOADS.items():
        work = Path(tempfile.mkdtemp(prefix="record-", dir=HERE.parent))
        try:
            W.write_fixtures(cli, work, W.fixtures_for(name), W.DEFAULT_SEED)
            with W.working_directory(work):
                _, outcomes = W.run_pass(cli, jobs)
        finally:
            shutil.rmtree(work)
        entries = []
        for job, (code, text) in zip(jobs, outcomes):
            if code is None:
                print(f"ainfcat {' '.join(job)} raised:\n{text}", file=sys.stderr)
                return 1
            entries.append({
                "argv": job,
                "exit": code,
                "stdout_sha256": W.stdout_digest(text),
                "invariants": W.invariants(text),
            })
        expected[name] = entries
        print(f"{name}: {len(entries)} jobs recorded", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One cold set-up of a workload, in a process of its own.

Imports `ainfcat.cli`, writes the workload's seeded fixture files into
`--dir`, loads and schema-validates each once, then prints the
`time.monotonic_ns()` reading at which the first job would be ready.  The
parent started its clock just before starting this interpreter, so the
difference is the set-up time a command-line user pays.
"""

import argparse
import sys
import time
from pathlib import Path

from workloads import fixtures_for, load_all, write_fixtures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from ainfcat import cli, fileformat

    paths = write_fixtures(cli, Path(args.dir), fixtures_for(args.workload), args.seed)
    load_all(fileformat, paths)
    print(time.monotonic_ns(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

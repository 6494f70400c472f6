"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload daily_mcp --seed 1 --seconds 10 --trace 0

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``). The exit code is 0
only when every correctness check passed; failed operations are counted
in ``failed`` (and ``error_rate``), not in the exit code.
"""

from __future__ import annotations

import argparse
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.spec import WORKLOADS  # noqa: E402

#: Scratch space for spools, access logs and span dumps (git-ignored).
WORK_DIR = ROOT / ".perfbench-work"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-t{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    trace = bool(args.trace)
    if args.workload in ("daily_mcp", "bulk_android"):
        from perfbench import replay

        workload = {"daily_mcp": replay.DAILY_MCP,
                    "bulk_android": replay.BULK_ANDROID}[args.workload]
        result = replay.run(workload, args.seed, args.seconds, trace,
                            work_dir)
    elif args.workload == "daemon_rw":
        from perfbench import daemon

        result = daemon.run(args.seed, args.seconds, trace, work_dir, SRC)
    else:
        from perfbench import fleet

        result = fleet.run(args.seed, args.seconds, trace, work_dir)
    print(result.render(), flush=True)
    print(result.final_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

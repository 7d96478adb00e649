"""One set-up of a workload, as a user pays it before the first command:
start the interpreter, import choreo, generate the workload's inputs, then
parse and validate them.  worker.py times this whole process from outside."""

from __future__ import annotations

import argparse
import sys

import workloads  # imports choreo, which is part of what is timed
from choreo import textio


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    for item in wl.items:
        textio.parse_program(item.src.text)  # raises on a syntax or well-formedness error
    return 0


if __name__ == "__main__":
    sys.exit(main())

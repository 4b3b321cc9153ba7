#!/usr/bin/env python3
"""Drive the three exhaustive agreement sweeps through the CLI.

Exits non-zero if any sweep finds a counterexample.  Lengths are kept
small enough to finish in well under a minute; raise them (up to the
guard of 5) with --max-len.  Each suite's wall time goes to stderr, so
stdout stays the sweeps' own output.
"""

from __future__ import annotations

import argparse
import sys
import time

from seqhalt.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-len", type=int, default=3)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    worst = 0
    for suite in ("dup-decider", "empty-halting", "diagonal"):
        argv = ["sweep", "--suite", suite, "--max-len", str(args.max_len)]
        if args.json:
            argv.append("--json")
        print(f"== sweep {suite} (max-len {args.max_len})")
        start = time.perf_counter()
        worst = max(worst, cli_main(argv))
        print(f"{suite}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    return worst


if __name__ == "__main__":
    sys.exit(main())

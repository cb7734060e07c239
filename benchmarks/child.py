"""Run one `cordseg` command in a fresh interpreter and report its timing.

Usage: python3 child.py REPORT [CLI ARGS...]

Writes REPORT as JSON with the CLOCK_MONOTONIC instants at which the CLI
became ready (interpreter, numpy and cordseg imported) and at which the
command returned, plus its exit code; the process exits with that code.
With no CLI arguments it only imports, which samples set-up time.
"""

import json
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    import numpy  # noqa: F401  (part of set-up, as for the installed command)
    from cordseg import cli
    ready = time.monotonic()
    code = cli.main(argv) if argv else 0
    done = time.monotonic()
    with open(report, "w") as fh:
        json.dump({"ready": ready, "done": done, "code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

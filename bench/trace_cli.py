"""Run one qnonloc command with every public call into its layers traced.

    python3 bench/trace_cli.py SPANS_OUT <qnonloc arguments...>

Same as `python3 -m qnonloc.cli <arguments...>` (with src/ on PYTHONPATH),
except that the spans are written to SPANS_OUT as JSON when it ends.  The
exit code is the command's.
"""

import sys
from pathlib import Path

from tracing import Tracer

import qnonloc.cli


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return qnonloc.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(Path(sys.argv[1]))


if __name__ == "__main__":
    sys.exit(main())

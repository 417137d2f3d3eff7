"""Run ``padicspectral.cli.main`` under the benchmark tracer.

    python3 bench/trace_cli.py SPANS_OUT OP_ID CLI_ARGS...

The traced twin of ``python -m padicspectral.cli CLI_ARGS...``: start-up
stays inside the caller's measurement, and the spans and counts are
written to SPANS_OUT as JSON when main returns.  The exit code is main's.
"""

import json
import sys

import checkout
from tracer import Tracer


def main() -> int:
    spans_out, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    checkout.import_package()
    import padicspectral.cli

    tracer = Tracer()
    tracer.op = op
    try:
        with tracer:
            return padicspectral.cli.main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())

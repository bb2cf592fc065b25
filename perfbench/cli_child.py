"""Run one `homcount` CLI call with the benchmark's tracer installed.

    python3 cli_child.py SPANS_JSON OP_ID homcount-arguments...

Behaves like `python3 -m homcount.cli homcount-arguments...` (same stdout,
stderr and exit code, tracebacks included) and writes the call's spans to
SPANS_JSON, also when the call raises.  PYTHONPATH must reach src/.
"""

import sys

import homcount.cli

from tracer import Tracer


def main(spans_path: str, op_id: str, argv) -> int:
    tracer = Tracer(op_id)
    tracer.install()
    tracer.enabled = True
    try:
        return homcount.cli.run(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))

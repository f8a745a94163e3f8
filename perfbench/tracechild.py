"""Traced stand-in for ``python -m resilp`` in the traced ``cli-cold`` run.

    python3 perfbench/tracechild.py SPANS_OUT TRACE_ID check --problem P FILE

Runs ``resilp.cli.main`` on the remaining arguments with every layer
wrapped, writes the spans to SPANS_OUT as JSON lines, and exits with the
CLI's exit code.
"""

import sys

from tracing import Tracer


def main() -> int:
    out, trace_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import resilp.cli

    tracer = Tracer()
    try:
        with tracer.installed(), tracer.span("cli.main", trace=trace_id):
            return resilp.cli.main(argv)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())

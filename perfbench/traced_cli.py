"""Run the ``repro`` CLI with the benchmark's tracing wrappers installed.

Usage::

    python perfbench/traced_cli.py TRACE.jsonl RUN_ID -- <repro CLI arguments>

Records a ``cli.import`` span around importing the CLI, wraps the layer
functions listed in ``tracing.TARGETS`` for the run, removes the wrappers,
writes the spans to TRACE.jsonl and exits with the CLI's exit code.
"""

import sys

from tracing import Tracer


def main(argv):
    trace_path, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py TRACE.jsonl RUN_ID -- ARGS...")
    tracer = Tracer(run_id)
    with tracer.span("cli.import"):
        import repro.cli
    with tracer:
        code = repro.cli.main(cli_args)
    tracer.write_jsonl(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

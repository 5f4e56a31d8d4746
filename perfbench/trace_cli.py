"""Run the bruhat-hypercubes CLI with spans recorded at its layer boundaries.

    python perfbench/trace_cli.py SPANS_JSON CLI_ARGS...

Behaves as ``python -m bruhat_hypercubes CLI_ARGS...`` (same output, same
exit code) and writes the spans to SPANS_JSON when the command ends.  The
package is found on PYTHONPATH, as for the untraced command.  If a name the
tracer wraps is missing, it runs nothing and exits with code 3, so that a
renamed layer fails the run instead of reading as zero.
"""

import sys

from tracing import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from bruhat_hypercubes import cli, hypercubes

    tracer = Tracer()
    missing = tracer.install({"cli": cli, "hypercubes": hypercubes})
    if missing:
        print(f"trace: not found: {', '.join(missing)}", file=sys.stderr)
        return 3
    stdout = sys.stdout
    sys.stdout = tracer.writer(stdout)
    try:
        return cli.main(argv)
    finally:
        sys.stdout = stdout
        stdout.flush()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())

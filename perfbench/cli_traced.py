"""Run the shapeff CLI with every layer boundary traced.

    python cli_traced.py SPANS_PATH CLI_ARGS...

Behaves like `python -m shapeff.cli CLI_ARGS...` and also writes the spans it
recorded, the time this script started (t0) and the time main() returned
(end) to SPANS_PATH as JSON. Only the standard library is loaded before
`import shapeff.cli` is timed.
"""

import time

T0 = time.monotonic()

import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer.span("cli.import"):
        import shapeff.cli
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = shapeff.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, t0=T0, end=spans.now())
    return code


if __name__ == "__main__":
    sys.exit(main())

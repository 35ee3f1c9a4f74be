"""The spherefp CLI with layer tracing, for the traced run of the cli workload.

    python3 bench/cli_traced.py SPANS_JSON <spherefp arguments...>

Behaves like `python -m spherefp.cli <arguments...>` (same stdout and exit
code), and writes the spans of the import and of every wrapped call to
SPANS_JSON.
"""

import sys
import time

t_start = time.perf_counter()

import spherefp.cli  # noqa: E402

t_imported = time.perf_counter()

import tracing  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.spans.append((tracing.CLI_IMPORT, t_start, t_imported, -1, 0))
    tracer.instance = 0
    try:
        code = spherefp.cli.main(argv)
    finally:
        tracer.instance = None
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

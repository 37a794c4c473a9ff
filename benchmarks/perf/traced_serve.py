"""``repro serve`` with the benchmark's span wrappers installed.

    python benchmarks/perf/traced_serve.py SPAN_PREFIX serve [repro serve options]

Installs the service-side wrappers (wire decode, observation decode,
reply encode, controller observe/decide, online-RLS update), hands the
remaining arguments to ``repro.cli.main`` unchanged, and writes the
spans to ``SPAN_PREFIX.<pid>.part.jsonl`` once SIGTERM has drained the
server.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SpanLog, install_service  # noqa: E402


def main(argv: list) -> int:
    prefix, *cli_args = argv
    log = SpanLog(prefix)
    install_service(log)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        log.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

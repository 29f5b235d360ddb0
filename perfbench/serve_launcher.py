"""Run the ``triangle-kcore`` CLI with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS.json serve GRAPH ...``

The wrappers record in memory while the CLI runs; the spans and counts are
written to ``SPANS.json`` when the CLI returns (``serve`` returns after a
SIGTERM drain).
"""

from __future__ import annotations

import sys

import spans


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    recorder = spans.SpanRecorder()
    spans.install(recorder)
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Shard entry point for the traced run.

Usage: ``python traced_shard.py --spans-out PATH serve ...`` — installs the
server-side span wrappers from ``layers.py``, runs ``repro serve ...``
unchanged, and writes the spans to ``PATH`` when the shard shuts down.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from servebench.layers import SpanRecorder, install_server  # noqa: E402


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print("usage: traced_shard.py --spans-out PATH serve ...",
              file=sys.stderr)
        return 2
    recorder = SpanRecorder()
    install_server(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

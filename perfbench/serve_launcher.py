"""Traced ``repro serve``: install the tracing wrappers, then run the serve CLI.

Usage: ``python perfbench/serve_launcher.py SPANS_JSON [repro serve args...]``.
The projection calls of the micro-batcher (``project_blocks`` as bound in
``repro.serve.server``) become spans, with the NLS solves inside them as
children; the spans are written to ``SPANS_JSON`` when the server exits
(on SIGINT, the CLI's clean shutdown path).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    import repro.serve.server as server
    from repro.cli import main as cli_main

    recorder = tracing.Recorder("serve")
    restore = tracing.install(recorder)

    def bound(_args):
        if tracing.current() is None:
            tracing.bind(recorder)
        return recorder

    server.project_blocks = tracing.timed(
        server.project_blocks, "serve.project",
        count=lambda args, _a, _kw, out: args.update(columns=int(out.shape[1])),
        recorder_of=bound)
    try:
        return cli_main(["serve", *serve_args])
    finally:
        restore()
        with open(spans_path, "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

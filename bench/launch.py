"""Traced stand-in for `python -m g2cert.cli ARGS...`.

Installs the benchmark's span recorder, calls g2cert.cli.main(ARGS) with its
stdout captured, and prints one JSON object: the command's exit code, its
stdout and the span summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from g2cert import cli

from spans import SpanRecorder


def main() -> int:
    recorder = SpanRecorder()
    recorder.install()
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            try:
                exit_code = cli.main(sys.argv[1:])
            except SystemExit as exc:  # argparse and cli errors exit this way
                exit_code = exc.code
                if exit_code is None:
                    exit_code = 0
                elif not isinstance(exit_code, int):
                    print(exit_code, file=sys.stderr)
                    exit_code = 1
    finally:
        recorder.uninstall()
    json.dump({"exit": exit_code, "stdout": captured.getvalue(), "summary": recorder.summary()},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

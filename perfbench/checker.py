"""The checker process of ``run.py``.

    python3 perfbench/checker.py

Reads pickled passes from stdin, one after another, and writes for each the
pickled list of verdicts (``checks.check`` per job) to stdout.  It exits at
the end of its input, so it ends when the benchmark closes the pipe or dies.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import checks  # noqa: E402


def check_batch(batch):
    """The verdict on each ``(job, code, text, crash)`` of one pass."""
    return [
        crash.strip().splitlines()[-1] if crash is not None else checks.check(job, code, text)
        for job, code, text, crash in batch
    ]


def main() -> int:
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the verdict stream
    while True:
        try:
            batch = pickle.load(source)
        except EOFError:
            return 0
        pickle.dump(check_batch(batch), sink)
        sink.flush()


if __name__ == "__main__":
    sys.exit(main())

"""Run one mvskew CLI job in this process with the span recorder installed.

Usage: python3 perfbench/tracejob.py SPANS_FILE ARG...

ARG... is the CLI's argv without the program name. The spans are written to
SPANS_FILE as JSON lines; the exit status is the CLI's.
"""

import sys

from spans import Recorder


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import mvskew.cli

    recorder = Recorder()
    recorder.install()
    try:
        return mvskew.cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

"""Run ``fhmix.cli.main`` with the benchmark's spans installed.

Usage: python3 bench/cli_runner.py SPANS.json <fhmix arguments...>

The spans are written to SPANS.json when the command returns; the exit code
is the command's own.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    import tracing
    from fhmix import cli

    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

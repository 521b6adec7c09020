"""Run one ``steinmann`` CLI command under the span tracer.

Usage: python bench/traced_cli.py SUMMARY.json <cli arguments...>

Imports the package (timed as ``cli.import_s``), wraps the library's public
functions, calls ``steinmann.cli.main(argv)`` and writes the tracer's totals
and spans to SUMMARY.json.  Standard output is the command's own output and
the exit code is the command's exit code.
"""

import importlib
import json
import sys

from tracing import Tracer


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.span("cli.import", importlib.import_module)("steinmann.cli")
    tracer.count("cli.import_s", tracer.agg["cli.import"][1])
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        with open(summary_path, "w") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

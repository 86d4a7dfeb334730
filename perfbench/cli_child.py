"""Traced stand-in for ``python -m vvmf.cli <argv>``.

Times the import as the ``cli.import`` span, installs the layer wrappers,
runs ``vvmf.cli.main(argv)`` and, after the cli's own output, appends its
spans and counts to stderr behind a marker line for the parent to merge.
Stdout is the cli's, byte for byte.
"""

import json
import sys
from time import perf_counter

from tracing import IMPORT_SPAN, SPANS_MARK, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.op = 0
    start = perf_counter()
    import vvmf.cli

    tracer.add_span(IMPORT_SPAN, start, perf_counter())
    tracer.install()
    rc = vvmf.cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(SPANS_MARK + json.dumps(tracer.child_payload()))
    return rc


if __name__ == "__main__":
    sys.exit(main())

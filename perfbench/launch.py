"""Traced stand-in for the ``riskbands`` console script.

Usage: ``python3 perfbench/launch.py SPANS_JSON <riskbands arguments...>``

Times ``import riskbands.cli`` in this fresh interpreter, installs the span
wrappers, runs ``riskbands.cli.main`` on the remaining arguments and writes
the import time and the spans to SPANS_JSON. Exits with the CLI's code.
"""

import json
import sys
import time

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import riskbands.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        code = riskbands.cli.main(argv)
    finally:
        tracer.enabled = False
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.records()}, fh)
    raise SystemExit(code)

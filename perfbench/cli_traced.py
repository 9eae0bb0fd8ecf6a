"""Run ``ionkerr.cli`` with spans recorded: the traced stand-in for
``python -m ionkerr.cli`` in the cli workload's traced pass.

Usage: PERFBENCH_SPANS=<out.json> python cli_traced.py <cli arguments>

The import of ``ionkerr.cli`` is one span named ``import``; the spans of the
wrapped functions follow. The dump also holds the dressed-energy cache
counters read at exit.
"""

import importlib
import json
import os
import sys

from spans import IMPORT_SPAN, LAYERS, Tracer, dressed_cache_counts


def main() -> int:
    tracer = Tracer()
    with tracer.span(IMPORT_SPAN):
        cli = importlib.import_module("ionkerr.cli")
    tracer.install({layer: importlib.import_module(f"ionkerr.{layer}") for layer in LAYERS})
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        dump = tracer.dump()
        counts = dressed_cache_counts(importlib.import_module("ionkerr.dynamics"))
        if counts is not None:
            dump["counters"]["dressed_cache.hits"], dump["counters"]["dressed_cache.misses"] = counts
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

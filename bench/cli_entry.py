"""Run one fpsum command in this process, as the ``fpsum`` console script does.

    python3 bench/cli_entry.py [--trace-out PATH] <fpsum arguments>

With ``--trace-out``, the layer wrappers of tracing.py are installed before
``fpsum.cli.main`` runs, and the import time, layer counters and spans are
written to PATH as JSON when the command ends.
"""

import json
import sys
import time


def main(argv) -> int:
    if argv[:1] != ["--trace-out"]:
        from fpsum.cli import main as fpsum_main

        return fpsum_main(argv)
    trace_out, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import fpsum  # noqa: F401

    import_s = time.perf_counter() - start
    import fpsum.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = None
    try:
        code = fpsum.cli.main(argv)
    finally:
        tracer.restore()
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "exit_code": code,
                       "summary": tracer.summary(), "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

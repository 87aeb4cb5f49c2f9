"""Run one bodyppg CLI command in this process and record how long it took.

    python3 child.py TIMINGS_JSON TRACE -- CLI_ARGS...

Times the import of ``bodyppg.cli`` and the call into ``bodyppg.cli.main``.
With TRACE set to 1 it first wraps each layer's public functions (see
``spans.py``) and also records the spans. The timings go to TIMINGS_JSON,
which the caller places outside the command's ``--out-dir``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    timings_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py TIMINGS_JSON {0,1} -- CLI_ARGS...")
    t0 = time.perf_counter()
    import bodyppg.cli

    startup_s = time.perf_counter() - t0
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        root = tracer.open(spans.ROOT_SPAN)
    t1 = time.perf_counter()
    try:
        code = bodyppg.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - t1
        if tracer is not None:
            tracer.close(root)
    doc = {
        "exit_code": code,
        "startup_s": startup_s,
        "main_s": main_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(timings_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

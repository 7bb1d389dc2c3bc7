"""One fresh interpreter: import pinchpas, then optionally run a workload.

Usage: python3 bench/child.py '<json request>'

The request names the package source directory (`src`), and for a pass
also `workload`, `seed`, `work_dir`, `trace` and `spans_path`. The child
prints one JSON line: the import time, and for a pass each op's exit code
and seconds, the pass's wall time and the process's peak resident memory.
With `trace` on, it also wraps the package's public functions (see
tracing.py) and reports their span summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    request = json.loads(sys.argv[1])
    src = os.path.realpath(request["src"])
    sys.path.insert(0, src)

    start = time.perf_counter()
    import pinchpas.cli

    import_s = time.perf_counter() - start
    origin = os.path.realpath(pinchpas.__file__)
    if not origin.startswith(src + os.sep):
        print(f"child: pinchpas imported from {origin}, not from {src}", file=sys.stderr)
        return 1
    result = {"import_s": import_s, "numpy": sys.modules["numpy"].__version__}
    if request.get("workload") is None:
        print(json.dumps(result))
        return 0

    from workloads import WORKLOADS, argv

    ops = WORKLOADS[request["workload"]]
    invocations = []
    for op in ops:
        op_dir = os.path.join(request["work_dir"], op.id)
        os.makedirs(op_dir, exist_ok=True)
        config_path = os.path.join(op_dir, "op.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(op.config)
        invocations.append((op.id, argv(op, config_path, op_dir, request["seed"])))

    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    codes = {}
    op_s = {}
    captured = io.StringIO()
    pass_start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        for op_id, args in invocations:
            op_start = time.perf_counter()
            try:
                codes[op_id] = pinchpas.cli.main(args)
            except Exception:
                # A traceback is a failed op, not a failed benchmark.
                traceback.print_exc()
                codes[op_id] = -1
            op_s[op_id] = time.perf_counter() - op_start
    wall_s = time.perf_counter() - pass_start

    result.update(
        wall_s=wall_s,
        op_s=op_s,
        codes=codes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(request["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

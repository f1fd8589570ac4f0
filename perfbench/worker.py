"""Run one benchmark operation in this fresh process, as a user would.

Usage: python3 perfbench/worker.py '<request JSON>'

The request names the operation (``cli`` with an argument list, or
``syzygy`` with a .curve file and a list of degrees), whether to trace or to
stop after set-up, and the file to write measurements to.  The program's
output goes to standard output, unchanged, for the parent to check.  The untraced path uses only
``planecurves.cli.main(argv)`` and the top-level ``parse_polynomial`` and
``syzygy_basis(f, m)``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _load_syzygy_curve(planecurves, path: str):
    spec = json.loads(Path(path).read_text())
    texts = [e if isinstance(e, str) else e["poly"] for e in spec["factors"]]
    return planecurves.parse_polynomial("*".join(f"({t})" for t in texts))


def _syzygies(planecurves, f, degrees) -> dict:
    out = {}
    for m in degrees:
        classes = planecurves.syzygy_basis(f, m)
        out[str(m)] = [[str(c.a), str(c.b), str(c.c)] for c in classes]
    return out


def main() -> int:
    req = json.loads(sys.argv[1])
    import planecurves
    import planecurves.cli

    f = _load_syzygy_curve(planecurves, req["curve"]) if req["op"] == "syzygy" else None
    setup_done = _clock()
    if req.get("setup_only"):
        with open(req["result"], "w") as fh:
            json.dump({"setup_done": setup_done}, fh)
        return 0

    tracer = None
    if req["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(planecurves)

    if req["op"] == "cli":
        call, args = planecurves.cli.main, (req["argv"],)
    else:
        call, args = _syzygies, (planecurves, f, req["degrees"])
    start = _clock()
    out = tracer.root(call, *args) if tracer else call(*args)
    call_s = _clock() - start
    if req["op"] == "syzygy":
        sys.stdout.write(json.dumps(out))
        out = 0
    sys.stdout.flush()

    result = {
        "setup_done": setup_done,
        "call_s": call_s,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["trace"] = tracer.result()
    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return out


if __name__ == "__main__":
    sys.exit(main())

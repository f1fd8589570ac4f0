"""Benchmark of the planecurves exact-invariant calculator.

Usage (from the repository root):

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0

A closed loop with one client: the operations of a workload run one at a
time, each in a fresh worker process (as one CLI call or user script would),
and every output is checked exactly.  Passes over the operations repeat while
another pass fits in ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics of the untraced passes, scaled
to a reference host speed (see REFERENCE_S).
``--trace 1`` runs an untraced and a traced pass in turn and reports the
per-layer metrics of the traced passes; the difference in pass wall time is
``trace.overhead_s``.  Detailed results, the environment and, for traced
runs, one record per rank call are written to ``.perfbench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0
OP_TIMEOUT_S = 150.0
# Typical wall time of reference.py on a 2-vCPU Intel Xeon guest at 2.0 GHz.
# End-to-end times are scaled by REFERENCE_S / (the run's median), so they
# read as seconds on a host of that speed.
REFERENCE_S = 0.14

END_TO_END = [
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_max_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

KINDS = ("jacobian", "cross", "gradient")
# (metric, unit, traced layer it needs)
PER_LAYER = [
    ("cli.self_s", "s", "cli"),
    ("polynomials.parse_s", "s", "polynomials"),
    ("geometry.census_s", "s", "geometry.census"),
    ("geometry.validate_self_s", "s", "geometry.validate"),
    *[(f"gradedmaps.build_s.{k}", "s", "gradedmaps") for k in KINDS],
    *[(f"gradedmaps.cells.{k}", "count", "gradedmaps") for k in KINDS],
    ("gradedmaps.coeff_bits_max", "bits", "gradedmaps"),
    *[(f"linalg.rank_s.{k}", "s", "linalg.rank") for k in KINDS],
    *[(f"linalg.rank_calls.{k}", "count", "linalg.rank") for k in KINDS],
    ("linalg.rank_max_call_s", "s", "linalg.rank"),
    ("linalg.rank_share_3N", "ratio", "linalg.rank"),
    ("linalg.kernel_s", "s", "linalg.kernel"),
    ("linalg.kernel_calls", "count", "linalg.kernel"),
    ("linalg.echelon_s", "s", "linalg.echelon"),
    ("milnor.hilbert_self_s", "s", "milnor"),
    ("milnor.rank_requests", "count", "milnor.requests"),
    ("koszul.spectral_self_s", "s", "koszul.spectral"),
    ("koszul.syzygy_self_s", "s", "koszul.syzygy"),
    ("koszul.rank_requests", "count", "koszul.requests"),
    ("hodge.self_s", "s", "hodge"),
    ("trace.overhead_s", "s", None),
]


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, import fails)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment() -> dict:
    """Versions, machine and code under test, recorded with every result."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, planecurves.cli as c, planecurves as p;"
         "print(json.dumps([p.__file__, numpy.__version__]))"],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise SetupError(f"cannot import planecurves from src/: {probe.stderr.strip()[-400:]}")
    module, numpy_version = json.loads(probe.stdout)
    if not Path(module).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"planecurves imported from {module}, not from src/")
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _spawn(request: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _communicate(proc: subprocess.Popen, timeout: float):
    """Output of a finished worker; a worker still running at the timeout is killed."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise


def reference_sample(deadline: float) -> float:
    """Wall seconds of reference.py in a fresh process: the host's speed now."""
    start = clock()
    # With a pipe, communicate() returns at end of file; without one, a wait
    # with a timeout polls and rounds the time up to tens of milliseconds.
    proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")], cwd=ROOT,
                            stdout=subprocess.PIPE)
    _communicate(proc, max(1.0, min(60.0, deadline - clock())))
    if proc.returncode != 0:
        raise SetupError("reference.py failed")
    return clock() - start


def setup_probe(op: dict, deadline: float) -> float:
    """Seconds from spawn until planecurves is imported and the inputs loaded."""
    result_path = WORK / "op-result.json"
    result_path.unlink(missing_ok=True)
    start = clock()
    proc = _spawn({**op["request"], "trace": False, "setup_only": True,
                   "result": str(result_path)})
    _, err = _communicate(proc, max(1.0, min(60.0, deadline - clock())))
    if proc.returncode != 0:
        raise SetupError(f"{op['name']}: set-up failed: {err.decode(errors='replace')[-300:]}")
    return json.loads(result_path.read_text())["setup_done"] - start


def run_op(op: dict, trace: bool, deadline: float) -> dict:
    """One operation in a fresh worker; wall time runs from spawn to exit."""
    result_path = WORK / "op-result.json"
    result_path.unlink(missing_ok=True)
    request = {**op["request"], "trace": trace, "result": str(result_path)}
    row = {"name": op["name"], "trace": trace, "error": None}
    if not trace:
        row["reference_s"] = reference_sample(deadline)
    timeout = min(OP_TIMEOUT_S, deadline - clock())
    if timeout < 1.0:
        row.update(wall_s=0.0, error="not run: the run's time limit is reached")
        return row
    start = clock()
    proc = _spawn(request)
    try:
        out, err = _communicate(proc, timeout)
    except subprocess.TimeoutExpired:
        row.update(wall_s=clock() - start, error=f"timed out after {timeout:.0f} s")
        return row
    row["wall_s"] = clock() - start
    if proc.returncode != 0:
        row["error"] = f"exit {proc.returncode}: {err.decode(errors='replace').strip()[-300:]}"
        return row
    res = json.loads(result_path.read_text())
    row.update(
        setup_s=res["setup_done"] - start,
        call_s=res["call_s"],
        rss_mb=res["max_rss_kb"] / 1024,
    )
    try:
        row["error"] = op["check"](out)
    except Exception as exc:  # malformed output must fail this operation, not the run
        row["error"] = f"output check raised {exc!r}"
    if trace and row["error"] is None:
        row["layers"] = res["trace"]
        row["error"] = reconcile(res["trace"], row["wall_s"])
    return row


def reconcile(trace: dict, wall_s: float):
    """The layer self times of one operation must add up to its root span."""
    total = sum(trace["buckets"].values())
    root = trace["root_seconds"]
    if abs(total - root) > 1e-6 + 1e-9 * root:
        return f"layer self times sum to {total:.6f} s, root span is {root:.6f} s"
    if root > wall_s:
        return f"root span {root:.6f} s exceeds the operation wall time {wall_s:.6f} s"
    return None


def run_pass(ops: list[dict], trace: bool, deadline: float) -> dict:
    """Every operation once; untraced, the short ones also run before and after.

    Operation times on a shared host drift by about 20 % over a few seconds,
    so a short operation gets samples spread over the pass; its wall time is
    the median of its samples (see end_to_end_values).
    """
    short = [] if trace else [op for op in ops if op["short"]]
    before = [run_op(op, trace, deadline) for op in short]
    rows = [run_op(op, trace, deadline) for op in ops]
    after = [run_op(op, trace, deadline) for op in short]
    return {"rows": rows, "extra": before + after, "wall_s": sum(r["wall_s"] for r in rows)}


def end_to_end_values(rows: list[dict], setups: list[float], speed: float) -> dict:
    """Each operation's wall time is the median of its untraced samples.

    wall_s is the sum of those, op_p50_s and op_max_s their median and
    maximum.  Times are multiplied by speed, the host-speed factor.
    """
    samples: dict[str, list[float]] = {}
    for r in rows:
        samples.setdefault(r["name"], []).append(r["wall_s"])
    walls = [statistics.median(v) for v in samples.values()]
    return {
        "wall_s": sum(walls) * speed,
        "op_p50_s": statistics.median(walls) * speed,
        "op_max_s": max(walls) * speed,
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rows if "setup_s" in r]) * speed,
        "peak_rss_mb": max(r.get("rss_mb", 0.0) for r in rows),
    }


def rank_share_3N(records: list[dict], N: int) -> tuple[float, float]:
    """(seconds in the two rank calls serving internal degree 3N, all rank seconds).

    Those calls are cross_rank(2N-1) and jacobian_rank(3N-2), the two maps
    adjacent to the spectral-table entry H^2 at degree 3N.
    """
    top = total = 0.0
    for rec in records:
        if rec["event"] != "compute":
            continue
        total += rec["seconds"]
        if (rec["kind"], rec["degree"]) in (("cross", 2 * N - 1), ("jacobian", 3 * N - 2)):
            top += rec["seconds"]
    return top, total


def layer_metrics(traced: dict, untraced: dict, ops: list[dict]) -> dict:
    """Per-layer sums over the operations of one traced pass."""
    values = {"trace.overhead_s": traced["wall_s"] - untraced["wall_s"]}
    top = total = max_call = 0.0
    bits = 0
    for row, op in zip(traced["rows"], ops):
        tr = row.get("layers")
        if tr is None:
            continue
        for key, v in tr["buckets"].items():
            values[key] = values.get(key, 0.0) + v
        for key, v in tr["counts"].items():
            if key == "gradedmaps.coeff_bits_max":
                bits = max(bits, v)
            else:
                values[key] = values.get(key, 0) + v
        a, b = rank_share_3N(tr["records"], op["info"]["N"])
        top, total = top + a, total + b
        max_call = max([max_call] + [r["seconds"] for r in tr["records"] if r["event"] == "compute"])
    values["gradedmaps.coeff_bits_max"] = bits
    values["linalg.rank_max_call_s"] = max_call
    values["linalg.rank_share_3N"] = top / total if total else 0.0
    return values


def write_rank_calls(path: Path, passes: list[dict], ops: list[dict]) -> None:
    with open(path, "w") as fh:
        for index, p in enumerate(passes):
            for row, op in zip(p["rows"], ops):
                for rec in (row.get("layers") or {}).get("records", []):
                    fh.write(json.dumps({"pass": index, "op": row["name"],
                                         "N": op["info"]["N"], **rec}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "planecurves").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"error: {ROOT} has no src/planecurves or corpus/ to benchmark", file=sys.stderr)
        return 2
    start = clock()
    deadline = start + RUN_LIMIT_S
    try:
        env = environment()
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = WORK / "inputs" / f"{args.workload}-seed{args.seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, ROOT, inputs)
    try:
        refs, setups = [], []
        for op in ops:
            refs.append(reference_sample(deadline))
            setups.append(setup_probe(op, deadline))
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    limit = min(start + args.seconds, deadline)
    untraced, traced = [], []
    while True:
        cycle = clock()
        untraced.append(run_pass(ops, False, deadline))
        if args.trace:
            traced.append(run_pass(ops, True, deadline))
        now = clock()
        if now + (now - cycle) > limit:
            break

    timed = [r for p in untraced for r in p["rows"] + p["extra"]]
    rows = timed + [r for p in traced for r in p["rows"]]
    failures = [r for r in rows if r["error"]]
    refs += [r["reference_s"] for r in timed]
    speed = REFERENCE_S / statistics.median(refs)
    values = end_to_end_values(timed, setups, speed)
    end_to_end = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    absent: set[str] = set()
    per_pass: list[dict] = []
    metrics = end_to_end
    if args.trace:
        per_pass = [layer_metrics(t, u, ops) for t, u in zip(traced, untraced)]
        absent = {layer for r in rows for layer in (r.get("layers") or {}).get("absent", [])}
        metrics = {
            name: {"value": None if layer in absent
                   else statistics.median(p.get(name, 0) for p in per_pass), "unit": unit}
            for name, unit, layer in PER_LAYER
        }
        write_rank_calls(WORK / f"{tag}-rank-calls.jsonl", traced, ops)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "passes": len(untraced),
        "inputs": [{"name": op["name"], **op["info"]} for op in ops],
        "operations": [{k: v for k, v in r.items() if k != "layers"} for r in rows],
        "absent_layers": sorted(absent),
        "end_to_end": end_to_end,
        "host_speed": {"reference_s": statistics.median(refs), "samples": len(refs),
                       "factor": speed},
        "unscaled": end_to_end_values(timed, setups, 1.0),
        "layers_per_traced_pass": per_pass,
        "metrics": metrics,
    }
    (WORK / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")

    for op in ops:
        print(f"input {op['name']}: " + " ".join(f"{k}={v}" for k, v in op["info"].items()
                                                  if k != "f"))
    for r in failures:
        print(f"FAILED {r['name']} (trace={int(r['trace'])}): {r['error']}")
    print(f"ops: {len(rows)} attempted, {len(failures)} failed, {len(untraced)} passes")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer spans around the public functions of each planecurves module.

Installed inside a worker after set-up.  Every wrapped function opens a span;
a span's self time is its duration minus the time covered by its child spans,
and it is added to the span's layer bucket.  A span without a bucket passes its
self time to the nearest ancestor that has one, so the self times of one
operation always add up to its root span.

A function is wrapped under every module attribute that holds it, so a name
imported into another module (``koszul`` imports ``jacobian_rank``, ``geometry``
and ``hodge`` import ``tau``) is traced there too.  Only names that exist are
wrapped; a layer with no wrapped name is reported as absent.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, bucket, role, map kind)
FUNCTIONS = [
    ("cli", "main", "cli.self_s", None, None),
    ("cli", "report_payload", "cli.self_s", None, None),
    ("cli", "hilbert_payload", "cli.self_s", None, None),
    ("cli", "build_from_spec", "polynomials.parse_s", None, None),
    ("polynomials", "build_curve", "polynomials.parse_s", None, None),
    ("polynomials", "parse_polynomial", "polynomials.parse_s", None, None),
    ("geometry", "analyze_arrangement", "geometry.census_s", None, None),
    ("geometry", "validate_profile", "geometry.validate_self_s", None, None),
    ("gradedmaps", "jacobian_matrix", "gradedmaps.build_s.jacobian", "build", "jacobian"),
    ("gradedmaps", "cross_matrix", "gradedmaps.build_s.cross", "build", "cross"),
    ("gradedmaps", "gradient_column_matrix", "gradedmaps.build_s.gradient", "build", "gradient"),
    ("linalg", "kernel_basis", "linalg.kernel_s", "kernel", None),
    ("milnor", "hilbert_series", "milnor.hilbert_self_s", None, None),
    ("milnor", "tau", "milnor.hilbert_self_s", None, None),
    ("milnor", "jacobian_rank", None, "request", "jacobian"),
    ("koszul", "cross_rank", None, "request", "cross"),
    ("koszul", "gradient_rank", None, "request", "gradient"),
    ("koszul", "spectral_table", "koszul.spectral_self_s", None, None),
    ("koszul", "syzygy_basis", "koszul.syzygy_self_s", None, None),
    ("hodge", "mixed_hodge_numbers", "hodge.self_s", None, None),
    ("hodge", "theorem2_report", "hodge.self_s", None, None),
]

# (module, class, method, bucket, role); the rank choke point comes first,
# linalg.rank is its fallback when RankMode no longer exists.
METHODS = [
    ("milnor", "RankMode", "rank", "linalg.rank_s", "rank"),
    ("linalg", "EchelonAccumulator", "reduce", "linalg.echelon_s", None),
    ("linalg", "EchelonAccumulator", "add", "linalg.echelon_s", None),
]
RANK_FALLBACK = ("linalg", "rank")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _coeff_bits(matrix) -> int:
    rows = getattr(matrix, "rows", ())
    return max((abs(int(v)).bit_length() for row in rows for v in row), default=0)


def _cells(matrix) -> int:
    return getattr(matrix, "nrows", 0) * getattr(matrix, "ncols", 0)


def _degree(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("m")


class Tracer:
    """Span stack, self-time buckets, counters and per-rank-call records."""

    def __init__(self):
        self.stack: list[list] = []  # [bucket, start, child_seconds]
        self.buckets: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.records: list[dict] = []
        self.tags: dict[int, tuple] = {}  # id(matrix) -> (kind, degree, bits)
        self.wrapped: set[str] = set()
        self.root_seconds = 0.0

    # -- spans -------------------------------------------------------------

    def _enter(self, bucket):
        if bucket is None:
            bucket = self.stack[-1][0] if self.stack else "bench.self_s"
        self.stack.append([bucket, _clock(), 0.0])

    def _exit(self) -> float:
        bucket, start, child = self.stack.pop()
        seconds = _clock() - start
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + seconds - child
        if self.stack:
            self.stack[-1][2] += seconds
        return seconds

    def root(self, fn, *args):
        self._enter("bench.self_s")
        try:
            return fn(*args)
        finally:
            self.root_seconds += self._exit()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, bucket, role, kind):
        tracer = self

        def traced(*args, **kwargs):
            if role == "rank":
                kind_now = tracer.tags.get(id(args[-1]), ("unknown",))[0]
                tracer._enter(f"{bucket}.{kind_now}")
            else:
                tracer._enter(bucket)
            before = tracer.counts.get("rank_computations", 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds = tracer._exit()
            if role == "build":
                tracer._built(kind, _degree(args, kwargs), out)
            elif role == "request":
                computed = tracer.counts.get("rank_computations", 0) > before
                tracer.records.append({
                    "event": "request", "kind": kind, "degree": _degree(args, kwargs), "rank": out,
                    "seconds": seconds, "computed": computed,
                })
                layer = "milnor" if kind == "jacobian" else "koszul"
                tracer.count(f"{layer}.rank_requests")
            elif role == "kernel":
                tracer.count("linalg.kernel_calls")
            elif role == "rank":
                tracer._ranked(args[-1], out, seconds)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _built(self, kind, degree, matrix) -> None:
        bits = _coeff_bits(matrix)
        self.tags[id(matrix)] = (kind, degree, bits)
        self.count(f"gradedmaps.cells.{kind}", _cells(matrix))
        self.counts["gradedmaps.coeff_bits_max"] = max(
            self.counts.get("gradedmaps.coeff_bits_max", 0), bits)

    def _ranked(self, matrix, rank, seconds) -> None:
        kind, degree, bits = self.tags.pop(id(matrix), ("unknown", None, None))
        if bits is None:
            bits = _coeff_bits(matrix)
        self.count("rank_computations")
        self.count(f"linalg.rank_calls.{kind}")
        self.records.append({
            "event": "compute", "kind": kind, "degree": degree,
            "shape": [getattr(matrix, "nrows", None), getattr(matrix, "ncols", None)], "rank": rank,
            "coeff_bits": bits, "seconds": seconds,
        })

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = {
            name[len(package.__name__) + 1:]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(package.__name__ + ".") and mod is not None
        }
        holders = [package, *modules.values()]
        for modname, attr, bucket, role, kind in FUNCTIONS:
            mod = modules.get(modname)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                continue
            wrapper = self.wrap(fn, bucket, role, kind)
            for holder in holders:
                if getattr(holder, attr, None) is fn:
                    setattr(holder, attr, wrapper)
            self.wrapped.add(f"{modname}.{attr}")
        for modname, clsname, meth, bucket, role in METHODS:
            cls = getattr(modules.get(modname), clsname, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                continue
            setattr(cls, meth, self.wrap(fn, bucket, role, None))
            self.wrapped.add(f"{modname}.{clsname}.{meth}")
        if "milnor.RankMode.rank" not in self.wrapped:
            modname, attr = RANK_FALLBACK
            fn = getattr(modules.get(modname), attr, None)
            if fn is not None:
                wrapper = self.wrap(fn, "linalg.rank_s", "rank", None)
                for holder in holders:
                    if getattr(holder, attr, None) is fn:
                        setattr(holder, attr, wrapper)
                self.wrapped.add(f"{modname}.{attr}")

    def absent_layers(self) -> list[str]:
        present = {
            "cli": "cli.main",
            "polynomials": "polynomials.parse_polynomial",
            "geometry.census": "geometry.analyze_arrangement",
            "geometry.validate": "geometry.validate_profile",
            "gradedmaps": "gradedmaps.jacobian_matrix",
            "linalg.rank": ("milnor.RankMode.rank", "linalg.rank"),
            "linalg.kernel": "linalg.kernel_basis",
            "linalg.echelon": "linalg.EchelonAccumulator.reduce",
            "milnor": "milnor.hilbert_series",
            "milnor.requests": "milnor.jacobian_rank",
            "koszul.spectral": "koszul.spectral_table",
            "koszul.syzygy": "koszul.syzygy_basis",
            "koszul.requests": "koszul.cross_rank",
            "hodge": "hodge.mixed_hodge_numbers",
        }
        absent = []
        for layer, names in present.items():
            names = (names,) if isinstance(names, str) else names
            if not any(n in self.wrapped for n in names):
                absent.append(layer)
        return absent

    def result(self) -> dict:
        return {
            "buckets": self.buckets,
            "counts": {k: v for k, v in self.counts.items() if k != "rank_computations"},
            "records": self.records,
            "root_seconds": self.root_seconds,
            "absent": self.absent_layers(),
        }

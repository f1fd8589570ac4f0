"""Command-line front end: .curve spec files in, text/JSON reports out.

Exit codes: 0 ok, 1 failed bound, identity or audit or internal error,
2 parse error or malformed spec, 3 non-stabilization, 4 profile/tau mismatch,
5 multiplicity >= 4 in an arrangement.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import zip_longest
from pathlib import Path
from typing import Optional

from .geometry import (
    Check,
    Component,
    GeometryError,
    MultiplicityError,
    SingularityProfile,
    analyze_arrangement,
    bezout_audit,
    genus_from_counts,
    validate_profile,
)
from .hodge import ed_poly_str, mixed_hodge_numbers, theorem2_report
from .koszul import spectral_table
from .linalg import LinalgError
from .milnor import NonStabilizationError, Strand, hilbert_series
from .polynomials import (
    MAX_K_MAX,
    Curve,
    CurveError,
    CurveFactor,
    CurveSpec,
    ParseError,
    build_curve,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_NONSTABLE = 3
EXIT_PROFILE = 4
EXIT_MULTIPLICITY = 5


class SpecFileError(ValueError):
    pass


class ProfileMismatch(RuntimeError):
    def __init__(self, report):
        super().__init__("declared profile disagrees with computed invariants")
        self.report = report


def load_spec(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    # ValueError covers a file that is not UTF-8, malformed JSON and an
    # integer past int()'s digit limit; RecursionError, nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("factors"), list):
        raise SpecFileError(f"{path}: spec must be an object with a 'factors' list")
    for key in ("options", "profile"):
        if data.get(key) is not None and not isinstance(data[key], dict):
            raise SpecFileError(f"{path}: {key} must be an object")
    if data.get("name") is not None and not isinstance(data["name"], str):
        raise SpecFileError(f"{path}: name must be a string")
    return data


def _int_field(entry: dict, key: str, where: str, default: Optional[int] = None) -> Optional[int]:
    """entry[key] as an integer >= 0, or default when it is absent or null."""
    value = entry.get(key)
    if value is None:
        return default
    if type(value) is not int or value < 0:
        raise SpecFileError(f"{where}.{key} must be an integer >= 0, got {value!r}")
    return value


def build_from_spec(data: dict) -> Curve:
    factors = []
    for j, entry in enumerate(data["factors"]):
        if isinstance(entry, str):
            factors.append(CurveFactor(text=entry))
        elif isinstance(entry, dict) and isinstance(entry.get("poly"), str):
            factors.append(CurveFactor(text=entry["poly"], genus=_int_field(entry, "genus", f"factors[{j}]")))
        else:
            raise SpecFileError(f"factors[{j}] must be a string or an object with a 'poly' string")
    curve = build_curve(CurveSpec(factors=tuple(factors)))
    if curve.N < 3:
        raise SpecFileError(f"the curve has degree {curve.N}; need degree >= 3")
    return curve


def _component_from_entry(
    entry: dict, factor: Optional[CurveFactor], degree: int, where: str = "profile.components"
) -> Component:
    nodes = _int_field(entry, "nodes", where, 0)
    triples = _int_field(entry, "triples", where, 0)
    genus = _int_field(entry, "genus", where)
    if genus is None and factor is not None:
        genus = factor.genus
    if genus is None:
        genus = genus_from_counts(degree, nodes, triples)
    return Component(degree=degree, genus=genus, nodes=nodes, triples=triples)


def _declared_components(curve: Curve, entries) -> list[Component]:
    """The components of a declared profile, one per factor when none are given."""
    if entries is None:
        return [
            _component_from_entry({}, factor, curve.factor_degrees[j])
            for j, factor in enumerate(curve.spec.factors)
        ]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise SpecFileError("profile.components must be a list of objects")
    aligned = len(entries) == len(curve.factor_polys)
    components = []
    for j, entry in enumerate(entries):
        factor = curve.spec.factors[j] if aligned else None
        where = f"profile.components[{j}]"
        degree = _int_field(entry, "degree", where)
        if degree is None:
            if not aligned:
                raise SpecFileError(
                    "profile components need explicit degrees when they do "
                    "not align one-to-one with the factors"
                )
            degree = curve.factor_degrees[j]
        components.append(_component_from_entry(entry, factor, degree, where))
    return components


def _shown(component: Optional[Component]) -> str:
    if component is None:
        return "absent"
    degree, genus, nodes, triples = component
    return f"(degree {degree}, genus {genus}, {nodes} nodes, {triples} triples)"


def resolve_profile(
    curve: Curve, data: dict, census: Optional[SingularityProfile] = None
) -> SingularityProfile:
    """Compute the census for arrangements, or assemble the declared one.

    A declared profile is validated in full on every curve.  An all-linear
    curve is always analyzed exactly (`census`, when given, is that
    analysis, as held by the curve's Strand); a declared profile is then
    cross-checked against it (n, t, s and t_prime must agree, and declared
    components must be the census's lines: degree 1, genus 0, no nodes or
    triples).
    """
    declared = data.get("profile")
    all_linear = all(d == 1 for d in curve.factor_degrees)
    if declared is None and not all_linear:
        raise SpecFileError(
            "a profile with declared singularity counts is required unless all "
            "factors are linear"
        )
    declared = declared or {}
    counts = {key: _int_field(declared, key, "profile") for key in ("n", "t", "s", "t_prime")}
    components = _declared_components(curve, declared.get("components"))
    if all_linear:
        computed = census or analyze_arrangement(list(curve.factor_polys))
        for key, want in counts.items():
            got = getattr(computed, key)
            if want is not None and want != got:
                raise GeometryError(f"declared {key}={want} but the arrangement has {key}={got}")
        if declared.get("components") is not None:
            for j, (want, got) in enumerate(zip_longest(components, computed.components)):
                if want != got:
                    raise GeometryError(
                        f"declared profile.components[{j}] is {_shown(want)} but the "
                        f"arrangement's component {j} is {_shown(got)}"
                    )
        return computed
    n, t, s = (counts[key] or 0 for key in ("n", "t", "s"))
    t_prime = counts["t_prime"]
    if t_prime is None:
        t_prime = t - sum(c.triples for c in components) - s
    return SingularityProfile(
        components=tuple(components), n=n, t=t, s=s, t_prime=t_prime
    )


def resolve_strand(curve: Curve, data: dict, args) -> Strand:
    """The Strand of the curve's factors: modular on the primes of --modp or
    options.primes, else exact.  An arrangement's Strand holds its census,
    and an exact one derives its Hilbert function from it (`milnor`)."""
    primes, source = [], None
    options = data.get("options") or {}
    field = options.get("field")
    if field not in (None, "exact", "modp"):
        raise SpecFileError(f'options.field must be "exact" or "modp", got {field!r}')
    if field == "modp":
        primes, source = options.get("primes", []), "options.primes"
        if not isinstance(primes, list):
            raise SpecFileError("options.primes must be a list of integers")
    if getattr(args, "modp", None):
        source = "--modp"
        try:
            primes = [int(t) for t in args.modp.split(",")]
        except ValueError:
            raise SpecFileError(f"--modp: {args.modp!r} is not a comma-separated list of integers") from None
    if source and not primes:
        raise SpecFileError("modular mode needs primes (options.primes or --modp)")
    if not source:
        return Strand(curve.factor_polys)
    try:
        return Strand(curve.factor_polys, tuple(primes))
    except ValueError as exc:
        raise SpecFileError(f"{source}: {exc}") from None


def resolve_k_max(data: dict, args) -> Optional[int]:
    """--k-max, else options.k_max: the last degree to report, an integer
    from 0 to MAX_K_MAX."""
    k_max = getattr(args, "k_max", None)
    if k_max is not None:
        if k_max < 0:
            raise SpecFileError(f"--k-max must be an integer >= 0, got {k_max}")
        source = "--k-max"
    else:
        k_max = _int_field(data.get("options") or {}, "k_max", "options")
        source = "options.k_max"
    if k_max is not None and k_max > MAX_K_MAX:
        raise SpecFileError(f"{source} is {k_max}, above the limit of {MAX_K_MAX}")
    return k_max


def hilbert_payload(curve: Curve, data: dict, args) -> dict:
    k_max = resolve_k_max(data, args)
    h = hilbert_series(resolve_strand(curve, data, args), k_max=k_max)
    payload = {"name": data.get("name"), "N": curve.N, "r": curve.r}
    payload.update(h.to_json())
    payload["series"] = h.series_str()
    return payload


def report_payload(curve: Curve, data: dict, args) -> dict:
    k_max = resolve_k_max(data, args)
    strand = resolve_strand(curve, data, args)
    profile = resolve_profile(curve, data, strand.census)
    h = hilbert_series(strand, k_max=k_max)
    validation = validate_profile(strand, profile)
    if not validation.ok:
        raise ProfileMismatch(validation)
    hodge = mixed_hodge_numbers(profile)
    table = spectral_table(strand)
    thm2 = theorem2_report(strand, profile)
    ed = hodge.ed_polynomial
    audits = [
        Check(
            "ED polynomial v-coefficient + constant == gr2",
            ed.get((0, 1), 0) + ed.get((0, 0), 0),
            hodge.gr2,
        ),
    ]
    if profile.points:
        audits.append(Check("Bezout pair count", *bezout_audit(profile)))
    return {
        "name": data.get("name"),
        "curve": {
            "N": curve.N,
            "r": curve.r,
            "factors": [fac.text for fac in curve.spec.factors],
            "f": str(strand.f),
        },
        "hilbert": {**h.to_json(), "series": h.series_str()},
        "profile": profile.to_json(),
        "hodge": hodge.to_json(),
        "spectral_table": {"entries": table.to_json(), "e2_21": table.e2_21},
        "theorem2": thm2.to_json(),
        "validation": validation.to_json(),
        "audits": [a.to_json() for a in audits],
    }


def _render_hilbert_text(payload: dict) -> str:
    lines = [
        f"curve: {payload.get('name') or '(unnamed)'}  N={payload['N']} r={payload['r']}",
        f"HP(M(f))(t) = {payload['series']}",
        "dims: " + ",".join(str(d) for d in payload["dims"]),
        f"tau={payload['tau']} ct={fmt_threshold(payload['ct'])} st={payload['st']} "
        f"mdr={fmt_threshold(payload['mdr'])}",
    ]
    return "\n".join(lines)


def fmt_threshold(v) -> str:
    """ct or mdr as text: None (a smooth curve) prints as inf."""
    return "inf" if v is None else str(v)


def _render_report_text(payload: dict) -> str:
    h = payload["hilbert"]
    hodge = payload["hodge"]
    a = payload["theorem2"]["part_a"]
    b = payload["theorem2"]["part_b"]
    lines = [
        f"curve: {payload.get('name') or '(unnamed)'}  N={payload['curve']['N']} r={payload['curve']['r']}",
        f"HP(M(f))(t) = {h['series']}",
        f"tau={h['tau']} ct={fmt_threshold(h['ct'])} st={h['st']} mdr={fmt_threshold(h['mdr'])}",
        f"profile: n={payload['profile']['n']} t={payload['profile']['t']} "
        f"s={payload['profile']['s']} t'={payload['profile']['t_prime']}",
        f"hodge: gr1={hodge['gr1']} gr2={hodge['gr2']} h21={hodge['h21']} "
        f"h12={hodge['h12']} h22={hodge['h22']} b2={hodge['b2']}",
        f"P(U) = {ed_poly_str({(e['p'], e['q']): e['coeff'] for e in hodge['ed_polynomial']})}",
        f"theorem2 A: {a['lower']} <= {a['value']} <= {a['upper']} ({a['verdict']})",
        f"theorem2 B: {b['lower']} <= {b['value']} <= {b['upper']} ({b['verdict']})",
        f"F^2 = P^2: {payload['theorem2']['f2_equals_p2']}",
        f"E2^(2,1) dim: {payload['spectral_table']['e2_21']}",
        "validation: " + ("ok" if payload["validation"]["ok"] else "MISMATCH"),
        "identities: " + ("ok" if all(x["passed"] for x in payload["theorem2"]["identities"]) else "FAILED"),
        "audits: " + ("ok" if all(x["passed"] for x in payload["audits"]) else "FAILED"),
    ]
    return "\n".join(lines)


def _emit(payload: dict, args, render_text) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(render_text(payload))


def cmd_hilbert(args) -> int:
    data = load_spec(Path(args.spec))
    curve = build_from_spec(data)
    payload = hilbert_payload(curve, data, args)
    _emit(payload, args, _render_hilbert_text)
    return EXIT_OK


def cmd_report(args) -> int:
    data = load_spec(Path(args.spec))
    curve = build_from_spec(data)
    payload = report_payload(curve, data, args)
    _emit(payload, args, _render_report_text)
    failed = [c for c in payload["theorem2"]["identities"] + payload["audits"] if not c["passed"]]
    for check in failed:
        print(f"{check['name']}: {check['lhs']} != {check['rhs']}", file=sys.stderr)
    if not payload["theorem2"]["bounds_ok"]:
        print("theorem-guaranteed bound violated", file=sys.stderr)
    return EXIT_INTERNAL if failed or not payload["theorem2"]["bounds_ok"] else EXIT_OK


def report_json_bytes(spec_path: Path) -> bytes:
    """Deterministic JSON report for a spec file (corpus comparisons)."""
    ns = argparse.Namespace(format="json", modp=None, k_max=None, quiet=True)
    data = load_spec(spec_path)
    curve = build_from_spec(data)
    payload = report_payload(curve, data, ns)
    return (json.dumps(payload, indent=2) + "\n").encode()


def cmd_verify_corpus(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise SpecFileError(f"verify-corpus needs a directory, got {root}")
    specs = sorted(root.glob("*.curve"))
    if not specs:
        print(f"warning: no .curve files in {root}", file=sys.stderr)
        print("0 fixtures, 0 failures")
        return EXIT_OK
    failures = 0
    skipped = 0
    checked = 0
    for spec_path in specs:
        expected_path = spec_path.with_suffix(".expected.json")
        if not expected_path.exists():
            print(f"SKIP {spec_path.name} (no expected fixture)")
            skipped += 1
            continue
        got = report_json_bytes(spec_path)
        want = expected_path.read_bytes()
        checked += 1
        if got == want:
            print(f"PASS {spec_path.name}")
        else:
            print(f"FAIL {spec_path.name} (report drifted from frozen fixture)")
            failures += 1
    print(f"{checked} fixtures, {failures} failures, {skipped} skipped")
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planecurves",
        description="Exact invariants of plane curves with ordinary double and triple points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--modp", help="comma-separated primes for modular mode")
        p.add_argument("--quiet", action="store_true")

    p_h = sub.add_parser("hilbert", help="Hilbert series, tau, ct, st, mdr")
    p_h.add_argument("spec")
    p_h.add_argument("--k-max", type=int, dest="k_max")
    common(p_h)
    p_h.set_defaults(func=cmd_hilbert)

    p_r = sub.add_parser("report", help="full invariant report")
    p_r.add_argument("spec")
    common(p_r)
    p_r.set_defaults(func=cmd_report)

    p_v = sub.add_parser("verify-corpus", help="re-run and diff frozen fixtures")
    p_v.add_argument("dir")
    p_v.add_argument("--quiet", action="store_true")
    p_v.set_defaults(func=cmd_verify_corpus)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    quiet = getattr(args, "quiet", False)

    def diag(msg: str) -> None:
        if not quiet:
            print(msg, file=sys.stderr)

    try:
        return args.func(args)
    except (SpecFileError, ParseError, CurveError) as exc:
        diag(f"error: {exc}")
        return EXIT_PARSE
    except NonStabilizationError as exc:
        diag(f"error: {exc}")
        return EXIT_NONSTABLE
    except ProfileMismatch as exc:
        diag(f"error: {exc}")
        for check in exc.report.checks:
            if not check.passed:
                diag(f"  {check.name}: {check.lhs} != {check.rhs}")
        return EXIT_PROFILE
    except MultiplicityError as exc:
        diag(f"error: {exc}")
        return EXIT_MULTIPLICITY
    except (GeometryError,) as exc:
        diag(f"error: {exc}")
        return EXIT_PROFILE
    except LinalgError as exc:
        diag(f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())

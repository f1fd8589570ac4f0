"""Command line interface: spec files, output formats, exit codes, corpus check."""

import argparse
import contextlib
import copy
import functools
import importlib.util
import io
import json
import operator
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planecurves import cli, geometry, hilbert_series, linalg, milnor, parse_polynomial, syzygy_basis
from planecurves.cli import (
    EXIT_INTERNAL,
    EXIT_MULTIPLICITY,
    EXIT_NONSTABLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PROFILE,
    build_from_spec,
    main,
    report_json_bytes,
    resolve_strand,
)
from planecurves.geometry import Check
from planecurves.polynomials import MAX_K_MAX, Polynomial
from tests.conftest import CORPUS, hilbert_lines_family, line_poly, random_arrangement


def write_spec(tmp_path, name, payload):
    path = tmp_path / f"{name}.curve"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def generic4_spec(tmp_path):
    return write_spec(tmp_path, "generic4", {"name": "generic4", "factors": ["x", "y", "z", "x+y+z"]})


class TestHilbertCommand:
    def test_json_output(self, generic4_spec, capsys):
        assert main(["hilbert", str(generic4_spec), "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["tau"] == 6
        assert data["dims"][:5] == [1, 3, 6, 7, 6]

    def test_text_output(self, generic4_spec, capsys):
        assert main(["hilbert", str(generic4_spec)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1+3t+6t^2+7t^3" in out
        assert "tau" in out

    def test_k_max(self, generic4_spec, capsys):
        assert main(["hilbert", str(generic4_spec), "--format", "json", "--k-max", "10"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert len(data["dims"]) == 11

    def test_huge_k_max_is_filled_with_tau(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "triangle", {"factors": ["x", "y", "z"], "options": {"k_max": 100000}})
        assert main(["hilbert", str(spec), "--format", "json"]) == EXIT_OK
        dims = json.loads(capsys.readouterr().out)["dims"]
        assert len(dims) == 100001 and dims[:2] == [1, 3] and set(dims[1:]) == {3}

    def test_library_refuses_k_max_above_the_limit(self):
        with pytest.raises(ValueError, match=f"between 0 and {MAX_K_MAX}, got 1000000000"):
            hilbert_series(parse_polynomial("xyz"), k_max=10**9)

    def test_modular_mode_matches(self, generic4_spec, capsys):
        main(["hilbert", str(generic4_spec), "--format", "json"])
        rational = json.loads(capsys.readouterr().out)
        main(["hilbert", str(generic4_spec), "--format", "json", "--modp", "1060937,536969711"])
        modular = json.loads(capsys.readouterr().out)
        assert rational == modular


class TestReportCommand:
    def test_arrangement_report(self, generic4_spec, capsys):
        assert main(["report", str(generic4_spec), "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["hodge"]["gr1"] == 0
        assert data["hodge"]["gr2"] == 3
        assert data["theorem2"]["f2_equals_p2"] is True
        assert data["validation"]["ok"] is True
        assert all(a["passed"] for a in data["audits"])

    @pytest.mark.parametrize("modp", [None, "1060937"])
    def test_one_census_per_report(self, generic4_spec, capsys, monkeypatch, modp):
        calls = []
        census = geometry.analyze_arrangement

        def counted(lines):
            calls.append(len(lines))
            return census(lines)

        monkeypatch.setattr(geometry, "analyze_arrangement", counted)
        monkeypatch.setattr(cli, "analyze_arrangement", counted)
        argv = ["report", str(generic4_spec), "--format", "json"] + (["--modp", modp] if modp else [])
        assert main(argv) == EXIT_OK
        assert calls == [4]

    def test_text_report_carries_same_numbers(self, generic4_spec, capsys):
        main(["report", str(generic4_spec), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        main(["report", str(generic4_spec), "--format", "text"])
        text = capsys.readouterr().out
        assert f"tau={data['hilbert']['tau']}" in text
        assert "b2" in text

    def test_determinism(self, generic4_spec):
        assert report_json_bytes(generic4_spec) == report_json_bytes(generic4_spec)

    def test_declared_profile(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            "degree5",
            {
                "name": "degree5",
                "factors": ["xy(x+y)z^2+x^5+2y^5"],
                "profile": {
                    "n": 0,
                    "t": 1,
                    "components": [{"degree": 5, "genus": 3, "triples": 1}],
                },
            },
        )
        assert main(["report", str(spec), "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["hilbert"]["tau"] == 4
        assert data["theorem2"]["part_a"]["value"] == 2


class TestExitCodes:
    def test_unparseable_factor(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "bad", {"factors": ["x +"]})
        assert main(["report", str(spec), "--quiet"]) == EXIT_PARSE

    def test_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.curve"), "--quiet"]) == EXIT_PARSE

    def test_proportional_factors(self, tmp_path):
        spec = write_spec(tmp_path, "dup", {"factors": ["x", "2x"]})
        assert main(["report", str(spec), "--quiet"]) == EXIT_PARSE

    def test_non_reduced_curve(self, tmp_path):
        spec = write_spec(tmp_path, "nonred", {"factors": ["x^2y^2"]})
        assert main(["hilbert", str(spec), "--quiet"]) == EXIT_NONSTABLE

    def test_profile_mismatch(self, tmp_path):
        spec = write_spec(
            tmp_path,
            "wrong",
            {"factors": ["x", "y", "z", "x+y+z"], "profile": {"n": 5, "t": 0, "components": []}},
        )
        assert main(["report", str(spec), "--quiet"]) == EXIT_PROFILE

    @pytest.mark.parametrize(
        "profile, code",
        [
            ({"t_prime": "x"}, EXIT_PARSE),
            ({"components": "junk"}, EXIT_PARSE),
            ({"n": 3, "components": [{"degree": 1, "nodes": -1}]}, EXIT_PARSE),
            ({"s": 2}, EXIT_PROFILE),
            ({"t_prime": 1}, EXIT_PROFILE),
            ({"n": 3, "t": 0, "s": 0, "t_prime": 0}, EXIT_OK),
            ({"components": [{"degree": 0}]}, EXIT_PROFILE),
            ({"components": [{"degree": 1}, {"degree": 1}, {"degree": 2}]}, EXIT_PROFILE),
            ({"components": [{"degree": 1, "genus": 1}, {"degree": 1}, {"degree": 1}]}, EXIT_PROFILE),
            ({"components": [{"degree": 1}, {"degree": 1, "genus": 0}, {}]}, EXIT_OK),
        ],
        ids=[
            "t-prime-not-integer", "components-not-list", "negative-count", "s", "t-prime", "agrees",
            "component-of-degree-0", "a-conic-among-lines", "a-line-of-genus-1", "components-agree",
        ],
    )
    def test_arrangement_profile_is_read_in_full(self, tmp_path, profile, code):
        """A declared profile on an arrangement is validated as on any curve,
        and each of its counts is compared with the census (s = 0, t' = t),
        as are its components (each a line of genus 0 with no singular
        points)."""
        spec = write_spec(tmp_path, "triangle", {"factors": ["x", "y", "z"], "profile": profile})
        assert main(["report", str(spec), "--quiet"]) == code

    @pytest.mark.parametrize(
        "options, shown",
        [({"field": "modP", "primes": [1060937]}, "'modP'"), ({"field": 3}, "3")],
        ids=["misspelt", "number"],
    )
    @pytest.mark.parametrize("command", ["hilbert", "report"])
    def test_unknown_field(self, tmp_path, capsys, command, options, shown):
        """A field other than "exact" or "modp" is refused, not run exact."""
        spec = write_spec(tmp_path, "field", {"factors": ["x", "y", "z", "x+y+z"], "options": options})
        assert main([command, str(spec)]) == EXIT_PARSE
        assert capsys.readouterr().err == f'error: options.field must be "exact" or "modp", got {shown}\n'

    @pytest.mark.parametrize("name", [5, [], {}], ids=["number", "list", "object"])
    def test_name_not_a_string(self, tmp_path, capsys, name):
        spec = write_spec(tmp_path, "named", {"name": name, "factors": ["x", "y", "z", "x+y+z"]})
        assert main(["report", str(spec)]) == EXIT_PARSE
        assert "name must be a string" in capsys.readouterr().err

    def test_four_concurrent_lines(self, tmp_path):
        spec = write_spec(tmp_path, "quad", {"factors": ["x", "y", "x+y", "x-y"]})
        assert main(["report", str(spec), "--quiet"]) == EXIT_MULTIPLICITY

    @pytest.mark.parametrize(
        "payload, code",
        [
            ({"factors": ["x^3+y^3+z^3", "x"]}, EXIT_PARSE),
            (
                {"factors": ["x^3+y^3+z^3", "x"], "profile": {"n": 3, "components": [{"genus": -1}, {}]}},
                EXIT_PARSE,
            ),
            ({"factors": ["x", "y", "x+y", "x-y"]}, EXIT_MULTIPLICITY),
            ({"factors": ["x", "y", "z", "x+y+z"], "profile": {"n": 5}}, EXIT_PROFILE),
            ({"factors": ["x^3+y^3+z^3"], "profile": {"n": 0, "t": 0, "s": 3}}, EXIT_PROFILE),
        ],
        ids=["no-profile", "negative-genus", "four-concurrent-lines", "declared-n-disagrees", "negative-t-prime"],
    )
    def test_report_reads_the_profile_before_any_rank(self, tmp_path, monkeypatch, payload, code):
        """A profile that is missing, malformed or out of scope is refused
        before a Jacobian matrix is built or a W_k is ranked."""

        def refuse(*args):
            raise AssertionError("a rank was computed before the profile was read")

        monkeypatch.setattr(milnor, "jacobian_matrix", refuse)
        monkeypatch.setattr(milnor.Strand, "w_rank", refuse)
        spec = write_spec(tmp_path, "early", payload)
        assert main(["report", str(spec), "--quiet"]) == code

    @pytest.mark.parametrize("failing", ["identity", "audit"])
    def test_failed_check_exits_1(self, generic4_spec, capsys, monkeypatch, failing):
        """A failed identity of Theorem 2 or a failed audit exits 1 with its
        name on stderr, although both bounds hold."""
        if failing == "identity":
            real = cli.theorem2_report

            def planted(*args):
                return real(*args)._replace(identities=(Check("planted identity", 1, 2),))

            monkeypatch.setattr(cli, "theorem2_report", planted)
            line = "planted identity: 1 != 2"
        else:
            monkeypatch.setattr(cli, "bezout_audit", lambda profile: (1, 2))
            line = "Bezout pair count: 1 != 2"
        assert main(["report", str(generic4_spec), "--format", "json"]) == EXIT_INTERNAL
        out = capsys.readouterr()
        assert json.loads(out.out)["theorem2"]["bounds_ok"]
        assert out.err.splitlines() == [line]

    def test_text_report_shows_the_identities(self, generic4_spec, capsys, monkeypatch):
        """The text report has an identities line before the audits line:
        ok on generic4, FAILED (exit 1) with a failed identity of Theorem 2
        although both bounds hold."""
        argv = ["report", str(generic4_spec), "--format", "text"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["identities: ok", "audits: ok"]
        real = cli.theorem2_report

        def planted(*args):
            return real(*args)._replace(identities=(Check("planted identity", 1, 2),))

        monkeypatch.setattr(cli, "theorem2_report", planted)
        assert main(argv) == EXIT_INTERNAL
        out = capsys.readouterr()
        assert out.out.splitlines()[-2:] == ["identities: FAILED", "audits: ok"]
        assert "theorem2 A:" in out.out and out.err.splitlines() == ["planted identity: 1 != 2"]

    def test_four_concurrent_lines_hilbert(self, tmp_path, capsys):
        # out of the A1/D4 scope, so no local duality: the direct path answers
        spec = write_spec(tmp_path, "quad", {"factors": ["x", "y", "x+y", "x-y"]})
        assert main(["hilbert", str(spec), "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["dims"] == [1, 3, 6, 8] + [9] * 6

    def test_deeply_nested_factor(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "deep", {"factors": ["(" * 400 + "x" + ")" * 400, "y", "z"]})
        assert main(["hilbert", str(spec)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: parentheses nested deeper") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "factors",
        [["(x+y+z)^100", "y", "z"], ["x^30*y^31", "z", "x+y"], ["(x+y+z)^40"] * 2],
        ids=["power", "product", "curve"],
    )
    def test_oversized_degree_exits_at_once(self, tmp_path, capsys, factors):
        spec = write_spec(tmp_path, "big", {"factors": factors})
        assert main(["hilbert", str(spec)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "above the limit of 60" in err or "exceeds the limit of 60" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "modp",
        ["abc", "2000000", "4294967311", "97", "1060937,1060937"],
        ids=["not-integer", "composite", "too-large", "too-small", "repeated"],
    )
    def test_invalid_modp(self, generic4_spec, capsys, modp):
        assert main(["hilbert", str(generic4_spec), "--modp", modp]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: --modp") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("hilbert", {"factors": [3]}),
            ("hilbert", {"factors": [{"genus": 0}]}),
            ("hilbert", {"factors": ["x", "y", "z"], "options": [1]}),
            ("hilbert", {"factors": ["x", "y", "z"], "profile": [1, 2]}),
            ("hilbert", {"factors": ["x", "y", "z"], "options": {"k_max": "a"}}),
            ("report", {"factors": ["x^3+y^3+z^3"], "profile": {"n": "a"}}),
            ("report", {"factors": ["x^3+y^3+z^3"], "profile": {"n": 0, "components": [5]}}),
            ("hilbert", {"factors": ["x", "y"]}),
            ("hilbert", {"factors": "x"}),
        ],
        ids=[
            "factor-not-string",
            "factor-without-poly",
            "options-not-object",
            "profile-not-object",
            "k-max-not-integer",
            "count-not-integer",
            "component-not-object",
            "degree-below-3",
            "factors-not-list",
        ],
    )
    def test_malformed_spec(self, tmp_path, capsys, command, payload):
        spec = write_spec(tmp_path, "malformed", payload)
        assert main([command, str(spec)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_negative_k_max_flag(self, corpus_dir, capsys):
        assert main(["hilbert", str(corpus_dir / "generic4.curve"), "--k-max", "-3"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: --k-max") and err.count("\n") == 1

    def test_non_integer_k_max_flag(self, corpus_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hilbert", str(corpus_dir / "generic4.curve"), "--k-max", "1.5"])
        assert exc.value.code == EXIT_PARSE
        assert "--k-max" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["hilbert", "report"])
    @pytest.mark.parametrize("k_max", [-3, 1.5, True], ids=["negative", "float", "bool"])
    def test_invalid_options_k_max(self, tmp_path, capsys, command, k_max):
        spec = write_spec(tmp_path, "badk", {"factors": ["x", "y", "z"], "options": {"k_max": k_max}})
        assert main([command, str(spec)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: options.k_max") and err.count("\n") == 1

    @pytest.mark.parametrize("command, source", [("hilbert", "flag"), ("hilbert", "options"), ("report", "options")])
    @pytest.mark.parametrize("k_max", [MAX_K_MAX + 1, 10**9])
    def test_k_max_above_the_limit(self, tmp_path, capsys, monkeypatch, command, source, k_max):
        def refuse(*args, **kwargs):
            raise AssertionError("a Strand was built for a k_max above the limit")

        monkeypatch.setattr(cli, "resolve_strand", refuse)
        options = {"k_max": k_max} if source == "options" else {}
        spec = write_spec(tmp_path, "bigk", {"factors": ["x", "y", "z"], "options": options})
        argv = [command, str(spec)] + (["--k-max", str(k_max)] if source == "flag" else [])
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        name = "--k-max" if source == "flag" else "options.k_max"
        assert err == f"error: {name} is {k_max}, above the limit of {MAX_K_MAX}\n"

    def test_invalid_options_primes(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            "badprimes",
            {"factors": ["x", "y", "z"], "options": {"field": "modp", "primes": ["x"]}},
        )
        assert main(["hilbert", str(spec)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: options.primes") and err.count("\n") == 1


def test_component_genus_comes_from_its_counts():
    """A component with no declared genus takes the genus of its counts: a
    line with none is rational, a line with a node is refused."""
    assert cli._component_from_entry({}, None, 1).genus == 0
    assert cli._component_from_entry({"nodes": 1}, None, 3).genus == 0
    with pytest.raises(geometry.GeometryError):
        cli._component_from_entry({"nodes": 1}, None, 1)


class TestVerifyCorpus:
    SMALL = ["generic4", "nodal4", "smooth4", "triangle_cubic"]

    @pytest.fixture
    def small_corpus(self, tmp_path, corpus_dir):
        target = tmp_path / "corpus"
        target.mkdir()
        for name in self.SMALL:
            shutil.copy(corpus_dir / f"{name}.curve", target)
            shutil.copy(corpus_dir / f"{name}.expected.json", target)
        return target

    def test_passes_on_frozen_fixtures(self, small_corpus, capsys):
        assert main(["verify-corpus", str(small_corpus)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == len(self.SMALL)
        assert f"{len(self.SMALL)} fixtures, 0 failures" in out

    def test_detects_drift(self, small_corpus, capsys):
        victim = small_corpus / "generic4.expected.json"
        data = json.loads(victim.read_text())
        data["hilbert"]["tau"] = 7
        victim.write_text(json.dumps(data))
        assert main(["verify-corpus", str(small_corpus)]) != EXIT_OK
        assert "FAIL generic4.curve" in capsys.readouterr().out

    def test_missing_expected_is_skipped(self, small_corpus, capsys):
        (small_corpus / "generic4.expected.json").unlink()
        assert main(["verify-corpus", str(small_corpus)]) == EXIT_OK
        assert "SKIP generic4.curve" in capsys.readouterr().out

    def test_empty_dir_warns(self, tmp_path, capsys):
        assert main(["verify-corpus", str(tmp_path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "0 fixtures" in captured.out
        assert "warning" in captured.err

    @pytest.mark.parametrize("flags", [["--modp", "1234"], ["--format", "text"], ["--format", "json"]])
    def test_report_flags_are_refused(self, small_corpus, capsys, flags):
        """The fixtures are exact JSON reports, so `verify-corpus` takes no
        `--modp` or `--format`: argparse refuses them with exit 2 and runs
        no fixture."""
        with pytest.raises(SystemExit) as exc:
            main(["verify-corpus", str(small_corpus), *flags])
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert flags[0] in captured.err and "PASS" not in captured.out

    def test_quiet_is_accepted(self, small_corpus, capsys):
        assert main(["verify-corpus", str(small_corpus), "--quiet"]) == EXIT_OK
        assert f"{len(self.SMALL)} fixtures, 0 failures" in capsys.readouterr().out


def test_run_examples_script(corpus_dir, capsys):
    path = corpus_dir.parent / "scripts" / "run_examples.py"
    spec = importlib.util.spec_from_file_location("run_examples", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--modp"]) == 0
    out = capsys.readouterr().out.splitlines()
    headers = [line for line in out if line.startswith("== ")]
    assert [line.split()[1] for line in headers] == [p.stem for p in sorted(corpus_dir.glob("*.curve"))]
    smooth = out[out.index(next(h for h in headers if h.split()[1] == "smooth4")) + 2].split()
    assert "ct=inf" in smooth and "mdr=inf" in smooth


def src_env(root):
    return dict(os.environ, PYTHONPATH=str(root / "src"))


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_examples.py", []),
        ("bench_eliminate.py", []),
        ("bench_phases.py", ["--reps", "1", "lines6"]),
        ("bench_wk.py", ["--reps", "1", "--sizes", "7", "8"]),
        ("bench_plain.py", ["--reps", "1", "--names", "generic4", "triangle_cubic"]),
        ("bench_lifts.py", ["--reps", "1", "--names", "generic4"]),
    ],
    ids=[
        "run_examples.py", "bench_eliminate.py", "bench_phases.py", "bench_wk.py", "bench_plain.py", "bench_lifts.py",
    ],
)
def test_script_exits_clean(corpus_dir, script, args):
    """Each script runs as documented, in exact mode; bench_eliminate exits 1
    when its repetitions disagree, bench_phases when a report differs from
    its fixture, bench_wk when its two ranks of a W_k differ, bench_plain
    when its two paths differ in a rank, a certificate or a kernel."""
    root = corpus_dir.parent
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / script), *args],
        cwd=root, env=src_env(root), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


# Registered before planecurves is imported, so it runs after the package's
# exit hook (atexit runs handlers last in, first out).
FREEZE_PROBE = """\
import atexit, contextlib, gc, io
atexit.register(lambda: print("exit", gc.get_freeze_count()))
from planecurves import cli
print("import", gc.get_freeze_count())
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["report", "corpus/lines6.curve", "--format", "json"])
print("report", code, gc.get_freeze_count())
"""


def test_heap_is_frozen_only_at_exit(corpus_dir):
    root = corpus_dir.parent
    out = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE],
        cwd=root, env=src_env(root), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = [line.split() for line in out.stdout.splitlines()]
    assert lines[:2] == [["import", "0"], ["report", "0", "0"]]
    assert lines[2][0] == "exit" and int(lines[2][1]) > 0 and len(lines) == 3


def test_module_entry_point_prints_the_fixture(corpus_dir):
    root = corpus_dir.parent
    out = subprocess.run(
        [sys.executable, "-m", "planecurves.cli", "report", "corpus/lines6.curve", "--format", "json"],
        cwd=root, env=src_env(root), capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (corpus_dir / "lines6.expected.json").read_bytes()


# numpy loads on first use.  Probed in fresh interpreters, because pytest
# and hypothesis may import numpy first.
LAZY_PROBE = """\
import contextlib, io, json, sys
from planecurves import cli
runs = [["import", "numpy.linalg" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), "numpy.linalg" in sys.modules])
print(json.dumps(runs))
"""


HIDDEN_NUMPY = """\
import sys
class Hide:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, Hide())
try:
    import planecurves
except ImportError as exc:
    print("ImportError", exc.name)
"""


SYZYGY_PROBE = """\
import json, sys
from pathlib import Path
from planecurves import cli, syzygy_basis
runs = []
for spec, degrees in json.loads(sys.argv[1]):
    f = cli.build_from_spec(cli.load_spec(Path(spec))).f
    runs.append([[[str(c) for c in syzygy_basis(f, m)] for m in degrees], "numpy.linalg" in sys.modules])
print(json.dumps(runs))
"""


def syzygy_degrees(corpus_dir, name):
    """m from mdr to N-2, as in the benchmark's syzygy workload (none when
    mdr is infinite)."""
    h = json.loads((corpus_dir / f"{name}.expected.json").read_text())["hilbert"]
    return [] if h["mdr"] is None else list(range(min(h["mdr"], h["N"] - 2), h["N"] - 1))


def probe_syzygies(root, jobs):
    """(classes as text per degree, numpy loaded) after `syzygy_basis` on
    each (spec, degrees) of jobs, in one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SYZYGY_PROBE, json.dumps(jobs)],
        cwd=root, env=src_env(root), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


LAST_RESORT_PROBE = """\
import json, sys
from planecurves import linalg
real, reached = linalg._rank_integer, []
linalg._lifts = lambda b, first=None: iter([None] * len(linalg.PRIMES))
linalg._rank_integer = lambda rows, ncols: reached.append(ncols) or real(rows, ncols)
for rows in json.loads(sys.argv[1]):
    rank, lift = linalg.lifted_rank(linalg.ExactMatrix(rows))
    print(json.dumps([rank, lift is None, reached.pop(), "numpy.linalg" in sys.modules]))
"""


def probe_lazy(root, argvs):
    """Whether numpy is loaded after `import planecurves.cli`, then (exit
    code, output, numpy loaded) after each command, in one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, json.dumps(argvs)],
        cwd=root, env=src_env(root), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    (_, imported), *runs = json.loads(out.stdout)
    return imported, runs


class TestLazyNumpy:
    def test_arrangement_hilbert_never_loads_numpy(
        self, corpus_dir, generic4_spec, tmp_path, monkeypatch, capsys
    ):
        """Every W_k of generic4 and of an 8-line draw is small and of full
        rank mod p, so numpy never loads; the output is that of the numpy
        path (cutoff 0) in this process."""
        lines, _ = random_arrangement(random.Random(8), 8)
        eight = write_spec(tmp_path, "eight", {"factors": [str(line) for line in lines]})
        argvs = [["hilbert", str(spec), "--format", "json"] for spec in (generic4_spec, eight)]
        imported, runs = probe_lazy(corpus_dir.parent, argvs)
        assert not imported
        monkeypatch.setattr(linalg, "PLAIN_CELLS", 0)
        for argv, (code, out, loaded) in zip(argvs, runs):
            assert main(argv) == code == EXIT_OK
            assert out == capsys.readouterr().out and not loaded

    def test_small_curves_never_load_numpy(self, corpus_dir, monkeypatch):
        """`report` on the corpus curves of degree <= 6 and `syzygy_basis` on
        them, from mdr to N-2, rank only matrices within `PLAIN_CELLS`, so
        numpy never loads; the output is that of the numpy path (cutoff 0)
        in this process."""
        names = ["generic4", "smooth4", "nodal4", "lines6", "degree5_D4", "triangle_cubic"]
        argvs = [["report", f"corpus/{name}.curve", "--format", "json"] for name in names]
        jobs = [[str(corpus_dir / f"{name}.curve"), syzygy_degrees(corpus_dir, name)] for name in names]
        imported, runs = probe_lazy(corpus_dir.parent, argvs)
        syzygies = probe_syzygies(corpus_dir.parent, jobs)
        assert not imported and sum(len(degrees) for _, degrees in jobs) >= 5
        monkeypatch.setattr(linalg, "PLAIN_CELLS", 0)
        for argv, (code, out, loaded) in zip(argvs, runs):
            with contextlib.redirect_stdout(io.StringIO()) as numpy_out:
                assert main(argv) == code == EXIT_OK
            assert out == numpy_out.getvalue() and not loaded
        for (spec, degrees), (texts, loaded) in zip(jobs, syzygies):
            f = cli.build_from_spec(cli.load_spec(Path(spec))).f
            assert texts == [[str(c) for c in syzygy_basis(f, m)] for m in degrees] and not loaded

    def test_random_arrangement_reports_never_load_numpy(self, corpus_dir, tmp_path, monkeypatch):
        """`report` on the hilbert-lines draws of 7 and 8 lines lifts the
        kernel of J_{N-2} behind er_dim(N-2), with entries of up to 84 bits,
        at one prime in plain Python, so numpy never loads; the output is
        that of the numpy path (cutoff 0) in this process."""
        argvs = [
            ["report", str(write_spec(tmp_path, name, {"factors": [str(line_poly(*v)) for v in vectors]})),
             "--format", "json"]
            for name, vectors in hilbert_lines_family().items()
        ]
        imported, runs = probe_lazy(corpus_dir.parent, argvs)
        assert not imported
        monkeypatch.setattr(linalg, "PLAIN_CELLS", 0)
        for argv, (code, out, loaded) in zip(argvs, runs):
            with contextlib.redirect_stdout(io.StringIO()) as numpy_out:
                assert main(argv) == code == EXIT_OK
            assert out == numpy_out.getvalue() and not loaded

    def test_plain_last_resort_never_loads_numpy(self, corpus_dir):
        """With the lift refused at every prime, `lifted_rank` of a small
        singular matrix falls to `_rank_integer`, which ranks it without
        loading numpy."""
        cases = [([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 2), ([[0, 0, 0], [2**70, 1, 0], [2**71, 2, 0], [1, 1, 1]], 2)]
        root = corpus_dir.parent
        out = subprocess.run(
            [sys.executable, "-c", LAST_RESORT_PROBE, json.dumps([rows for rows, _ in cases])],
            cwd=root, env=src_env(root), capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        runs = [json.loads(line) for line in out.stdout.splitlines()]
        assert runs == [[want, True, len(rows[0]), False] for rows, want in cases]

    def test_report_lines9_loads_numpy(self, corpus_dir):
        """J_16 of lines9 is above `PLAIN_CELLS`: its sweep runs on numpy."""
        imported, [(code, out, loaded)] = probe_lazy(
            corpus_dir.parent, [["report", "corpus/lines9.curve", "--format", "json"]])
        assert not imported and code == EXIT_OK and loaded
        assert out == (corpus_dir / "lines9.expected.json").read_text()

    def test_missing_numpy_fails_the_import(self, corpus_dir):
        """Hidden by a meta-path finder, numpy is missing when planecurves is
        imported, not when a rank first needs it."""
        root = corpus_dir.parent
        out = subprocess.run(
            [sys.executable, "-c", HIDDEN_NUMPY],
            cwd=root, env=src_env(root), capture_output=True, text=True, timeout=60,
        )
        assert (out.returncode, out.stdout) == (0, "ImportError numpy\n"), out.stderr


class TestResolveStrand:
    def strand(self, factors, modp=None):
        data = {"factors": factors}
        return resolve_strand(build_from_spec(data), data, argparse.Namespace(modp=modp))

    def test_arrangement_gets_its_points(self):
        strand = self.strand(["x", "y", "z", "x+y+z"])
        assert strand.dual is not None and strand.dual.tau == 6 and strand.derived()
        assert strand.census.n == 6 and strand.census.t == 0

    def test_no_points_for_other_curves(self):
        assert self.strand(["x", "x^3+y^3+z^3"]).dual is None
        assert self.strand(["x", "y", "x+y", "x-y"]).dual is None  # a quadruple point
        assert self.strand(["x", "y", "z"], modp="1060937").dual is None

    @pytest.mark.parametrize("command", ["hilbert", "report"])
    def test_full_product_is_formed_once(self, tmp_path, capsys, monkeypatch, command):
        """The Strand expands f from the spec's lines, and nothing else
        multiplies them out."""
        lines, _ = random_arrangement(random.Random(8), 8)
        spec = write_spec(tmp_path, "eight", {"factors": [str(line) for line in lines]})
        full = []
        mul = Polynomial.__mul__

        def counted(p, q):
            product = mul(p, q)
            if product.degree() == len(lines):
                full.append(product)
            return product

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        assert main([command, str(spec), "--quiet"]) == EXIT_OK
        assert len(full) == 1


# The input contract: a mutated spec of a small corpus curve ends in a
# documented exit code, never a traceback.
SMALL_SPECS = [
    json.loads(path.read_text())
    for path in sorted(CORPUS.glob("*.curve"))
    if build_from_spec(json.loads(path.read_text())).N <= 6
]
JUNK = st.one_of(
    st.sampled_from([None, True, False, "", "3", "x+", "x+1", "x^2y", [], [1], [[]], {}]),
    st.sampled_from([{"poly": 1}, {"poly": "x", "genus": -1}, [{"degree": "1"}], ["x"], [3]]),
    st.integers(-3, 40),
    st.sampled_from([MAX_K_MAX + 1, 10**9]),
    st.floats(-3, 40),
    st.sampled_from([float("nan"), float("inf"), 1e300]),
    st.text("xyz+-^0123(){}", max_size=6),
)
PRIMES_JUNK = st.one_of(
    JUNK,
    st.lists(st.one_of(st.integers(-5, 1 << 32), st.floats(0, 1 << 21), st.text("0123", max_size=3)), max_size=3),
)
# Keys the corpus specs may lack, each set to junk when drawn.
EXTRA_PATHS = [
    ("options",), ("options", "field"), ("options", "k_max"), ("profile",), ("profile", "components"),
    ("profile", "n"), ("profile", "t"), ("profile", "s"), ("profile", "t_prime"),
]


def spec_paths(node, prefix=()):
    """Every path of keys and indices into the spec, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from spec_paths(child, prefix + (key,))


def set_path(node, path, value):
    """node with value at path; a parent that cannot take the next key
    becomes an object."""
    if not path:
        return value
    key = path[0]
    if not (isinstance(node, dict) or isinstance(node, list) and isinstance(key, int) and key < len(node)):
        node = {}
    node[key] = set_path(node[key] if isinstance(node, list) or key in node else None, path[1:], value)
    return node


@st.composite
def mutated_specs(draw):
    spec = copy.deepcopy(draw(st.sampled_from(SMALL_SPECS)))
    for _ in range(draw(st.integers(1, 3))):
        present = list(spec_paths(spec))
        path = draw(st.sampled_from(present + EXTRA_PATHS))
        if path in present[1:] and draw(st.booleans()):
            parent = functools.reduce(operator.getitem, path[:-1], spec)
            del parent[path[-1]]
        else:
            spec = set_path(spec, path, copy.deepcopy(draw(JUNK)))
    if draw(st.booleans()):
        options = {"field": draw(st.sampled_from(["modp", "exact", 3])), "primes": copy.deepcopy(draw(PRIMES_JUNK))}
        spec = set_path(spec, ("options",), options)
    return spec


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=mutated_specs(), command=st.sampled_from(["report", "hilbert"]))
def test_mutated_specs_end_in_a_documented_exit_code(spec, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.curve"
        path.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--format", "json"])
    assert code in range(6), (spec, code)
    assert (code == EXIT_PARSE) <= err.getvalue().startswith("error: "), err.getvalue()

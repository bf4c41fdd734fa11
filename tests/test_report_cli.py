"""Manifest serialization round trips and command-line behavior."""

import csv
import errno
import io
import json
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joubert2 import checks, cli, jsearch
from joubert2.cli import COMMANDS, main
from joubert2.errors import DomainError
from joubert2.report import (CheckResult, Manifest, emit_csv, emit_json,
                             emit_text, parse_json, strip_timing)

CENSUS_SCRIPT = str(Path(__file__).resolve().parents[1] / "scripts"
                    / "census_tables.py")

json_scalars = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
                | st.text(max_size=20))
json_values = st.recursive(
    json_scalars,
    lambda ch: st.lists(ch, max_size=3)
    | st.dictionaries(st.text(max_size=8), ch, max_size=3),
    max_leaves=8)


@st.composite
def manifests(draw):
    n = draw(st.integers(0, 5))
    ids = draw(st.lists(
        st.text(alphabet="abcdefghij-0123456789", min_size=1, max_size=12),
        min_size=n, max_size=n, unique=True))
    results = [
        CheckResult(
            check_id=cid,
            anchor=draw(st.text(max_size=30)),
            params=draw(st.dictionaries(st.text(max_size=6), json_scalars,
                                        max_size=3)),
            outcome=draw(st.sampled_from(["pass", "fail", "skip"])),
            witness=draw(json_values),
            elapsed_ms=draw(st.integers(0, 10**7)) / 1000,
        )
        for cid in ids
    ]
    config = draw(st.dictionaries(st.text(max_size=6), json_scalars,
                                  max_size=3))
    return Manifest(version="0.1.0", config=config, checks=results)


class TestManifest:
    @given(manifests())
    @settings(max_examples=80, deadline=None)
    def test_json_round_trip(self, m):
        parsed = parse_json(emit_json(m))
        assert parsed.version == m.version
        assert parsed.config == m.config
        assert parsed.sorted_checks() == m.sorted_checks()
        assert parsed.verdict == m.verdict

    @given(manifests())
    @settings(max_examples=40, deadline=None)
    def test_emit_is_idempotent_through_parse(self, m):
        once = emit_json(m)
        assert emit_json(parse_json(once)) == once

    def test_checks_sorted_by_id(self):
        m = Manifest(version="0", config={}, checks=[
            _result("zz"), _result("aa"), _result("mm")])
        doc = json.loads(emit_json(m))
        assert [c["id"] for c in doc["checks"]] == ["aa", "mm", "zz"]

    def test_verdict_rules(self):
        m = Manifest(version="0", config={}, checks=[_result("a")])
        assert m.verdict == "pass"
        m.checks.append(_result("b", outcome="skip"))
        assert m.verdict == "pass"  # skip is not a failure
        assert m.tally["skip"] == 1
        assert m.tally["pass"] == 1  # but it is not a pass either
        m.checks.append(_result("c", outcome="fail"))
        assert m.verdict == "fail"

    def test_duplicate_ids_rejected(self):
        m = Manifest(version="0", config={}, checks=[
            _result("a"), _result("a")])
        with pytest.raises(DomainError):
            emit_json(m)

    def test_bad_outcome_rejected(self):
        with pytest.raises(DomainError):
            _result("a", outcome="maybe")

    def test_parse_rejects_missing_keys(self):
        entry = json.loads(emit_json(Manifest(
            version="0", config={}, checks=[_result("a")])))["checks"][0]
        partial = {k: v for k, v in entry.items() if k != "witness"}
        mistyped = [{**entry, key: val} for key, val in (
            ("id", 1), ("anchor", None), ("params", []),
            ("elapsed_ms", "slow"), ("elapsed_ms", True))]
        for doc in ({"version": "0", "config": {}, "checks": []},
                    {"version": 0, "config": {}, "checks": [],
                     "verdict": "pass"},
                    {"version": "0", "config": [], "checks": [],
                     "verdict": "pass"},
                    *({"version": "0", "config": {}, "checks": [c],
                       "verdict": "pass"} for c in mistyped),
                    5,  # not an object
                    {"version": "0", "config": {}, "checks": {},
                     "verdict": "pass"},
                    {"version": "0", "config": {}, "checks": [partial],
                     "verdict": "pass"},
                    {"version": "0", "config": {}, "checks": ["a"],
                     "verdict": "pass"},
                    {"version": "0", "config": {}, "checks": [entry, entry],
                     "verdict": "pass"}):
            with pytest.raises(DomainError):
                parse_json(json.dumps(doc))

    def test_parse_rejects_tampered_verdict(self):
        m = Manifest(version="0", config={}, checks=[
            _result("a", outcome="fail")])
        text = emit_json(m).replace('"verdict": "fail"', '"verdict": "pass"')
        with pytest.raises(DomainError):
            parse_json(text)

    def test_strip_timing_hides_only_elapsed(self):
        a = Manifest(version="0", config={}, checks=[
            _result("a", elapsed_ms=1.5)])
        b = Manifest(version="0", config={}, checks=[
            _result("a", elapsed_ms=99.25)])
        assert emit_json(a) != emit_json(b)
        assert strip_timing(emit_json(a)) == strip_timing(emit_json(b))

    def test_text_format(self):
        m = Manifest(version="0.1.0", config={"budget": None}, checks=[
            _result("a"), _result("b", outcome="fail")])
        text = emit_text(m)
        assert "PASS a" in text and "FAIL b" in text
        assert text.rstrip().endswith(
            "verdict: fail (1 passed, 1 failed, 0 skipped)")

    def test_csv_format(self):
        m = Manifest(version="0", config={}, checks=[
            _result("a"), _result("b")])
        rows = list(csv.reader(io.StringIO(emit_csv(m))))
        assert rows[0] == ["id", "outcome", "elapsed_ms", "params", "anchor"]
        assert len(rows) == 3
        assert rows[1][0] == "a" and rows[2][0] == "b"


def _result(cid, outcome="pass", elapsed_ms=1.0):
    return CheckResult(check_id=cid, anchor=f"anchor for {cid}",
                       params={}, outcome=outcome, elapsed_ms=elapsed_ms)


class TestCli:
    def test_pass_exit_code_and_text(self, capsys):
        assert main(["hermite", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS hermite-q2" in out
        assert "verdict: pass" in out

    def test_json_output_parses(self, capsys):
        assert main(["joubert-enum", "--q", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert doc["config"]["command"] == "joubert-enum"
        assert doc["checks"][0]["witness"]["count"] == 2

    def test_usage_errors_exit_2(self):
        for argv in (["curve", "--q", "3"],
                     ["joubert-search", "--q", "12"],
                     ["obstruction", "--p", "4", "--m", "1"],
                     ["obstruction", "--p", "3", "--m", "0"],
                     ["hermite", "--q", "1"],
                     ["hermite"],
                     ["no-such-command"],
                     ["hermite", "--q", "2", "--threads", "0"],
                     ["hermite", "--q", "2", "--budget", "0"],
                     ["joubert-enum", "--q", "6"],
                     ["obstruction", "--p", "2", "--m", "1"],
                     # GF(2^36) is past the vector kernels' degree 32
                     ["curve", "--q", "64"],
                     ["surface", "--q", "64"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    def test_census_script_threads_are_positive(self, capsys, monkeypatch):
        # scripts/census_tables.py parses --threads as the CLI does
        monkeypatch.setattr(sys, "argv", [CENSUS_SCRIPT, "--threads", "-3"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(CENSUS_SCRIPT, run_name="__main__")
        assert exc.value.code == 2
        assert "--threads: -3 must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("max_k, error", [
        # q = 64 needs GF(2^36), past the vector kernels' degree 32
        ("6", "q = 64 needs GF(2^36)"),
        ("0", "0 must be positive"),
        ("-1", "-1 must be positive")])
    def test_census_script_max_k_in_range(self, capsys, monkeypatch, max_k,
                                          error):
        # a usage error before any table, as the CLI's surface --q 64
        monkeypatch.setattr(sys, "argv", [CENSUS_SCRIPT, "--max-k", max_k])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(CENSUS_SCRIPT, run_name="__main__")
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--max-k: {error}" in err

    def test_census_script_tables(self, capsys, monkeypatch):
        # each table by its title, each row's cells without the timing
        monkeypatch.setattr(sys, "argv", [CENSUS_SCRIPT, "--max-k", "2"])
        runpy.run_path(CENSUS_SCRIPT, run_name="__main__")
        tables = {lines[0]: [row.split()[:-1] for row in lines[2:]]
                  for lines in (t.splitlines() for t in
                                capsys.readouterr().out.strip().split("\n\n"))}
        assert tables["qualifying sextics and generators"] == [
            ["2", "2", "12"], ["4", "24", "144"]]
        assert tables["surface classes (trace-zero projective quotient)"] == [
            ["2", "9", "3", "6", "-9"], ["4", "17", "5", "12", "-11"]]

    def test_census_script_sweeps_l0_once_per_q(self, capsys, monkeypatch):
        # the generator table reads the surface census's count
        calls = []
        real = jsearch.count_joubert_generators
        monkeypatch.setattr(jsearch, "count_joubert_generators",
                            lambda q, **kw: calls.append(q) or real(q, **kw))
        monkeypatch.setattr(sys, "argv", [CENSUS_SCRIPT, "--max-k", "2"])
        runpy.run_path(CENSUS_SCRIPT, run_name="__main__")
        assert calls == [2, 4]

    def test_census_script_requires_the_census_identities(self):
        # a curve census with good_points off by q^2 breaks
        # good_points == q^2 * generator_count, and the script exits nonzero
        code = ("import dataclasses, runpy, sys\n"
                "from joubert2 import ascurve\n"
                "real = ascurve.curve_census\n"
                "def planted(q, **kw):\n"
                "    c = real(q, **kw)\n"
                "    return dataclasses.replace(c, good_points=c.good_points"
                " + q * q)\n"
                "ascurve.curve_census = planted\n"
                f"sys.argv = [{CENSUS_SCRIPT!r}, '--max-k', '2']\n"
                f"runpy.run_path({CENSUS_SCRIPT!r}, run_name='__main__')\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert "curve counts differ from the surface census" in proc.stderr

    def test_budget_exit_3(self, capsys):
        assert main(["joubert-enum", "--q", "2", "--budget", "5"]) == 3
        out = capsys.readouterr().out
        assert "SKIP" in out

    def test_budget_reaches_field_construction(self, capsys):
        # q^5 = 2^25 fits the budget; the field GF(2^30) does not
        argv = ["surface", "--q", "32", "--budget", "536870912",
                "--format", "json"]
        assert main(argv) == 3
        (result,) = json.loads(capsys.readouterr().out)["checks"]
        assert result["outcome"] == "skip"
        assert "budget 536870912" in result["witness"]["reason"]

    def test_budget_reaches_scalar_audits(self, capsys):
        # both checks scan fields of order above 1000 (up to 5^6 and 2^18),
        # so a budget of 1000 must skip them
        argv = ["verify-all", "--budget", "1000", "--format", "json"]
        assert main(argv) == 3
        got = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        for cid in ("newton-identities", "trace-square-frobenius"):
            assert got[cid]["outcome"] == "skip"
            assert "budget 1000" in got[cid]["witness"]["reason"]

    @pytest.mark.parametrize("run, outcome", [
        # both witnesses are re-verified in GF(2^30), inside a 2^31 budget
        (lambda: checks.check_generator_search(32, budget=2**31), "pass"),
        (lambda: checks.check_hermite(64, budget=2**31), "pass"),
        # the witness (326) is found and re-verified in GF(2^36) by scalar
        # arithmetic, past the vector kernels' degree 32
        (lambda: checks.check_generator_search(64, budget=2**36), "pass"),
        # GF(2^6) has 64 elements, more than 10
        (lambda: checks.check_charpoly_routes(budget=10), "skip"),
        # GF(8) and GF(16) have more than 5 elements
        (lambda: checks.check_named_polynomials(budget=5), "skip"),
        (lambda: checks.check_obstruction(5, 1, budget=5), "skip"),
    ], ids=["generator-search-q32", "hermite-q64", "generator-search-q64",
            "charpoly-routes",
            "named-polynomials", "obstruction-p5m1"])
    def test_budget_reaches_reverification(self, run, outcome):
        assert run().outcome == outcome

    def test_env_budget_and_override(self, capsys, monkeypatch):
        monkeypatch.setenv("JOUBERT2_BUDGET", "5")
        assert main(["joubert-enum", "--q", "2"]) == 3
        capsys.readouterr()
        assert main(["joubert-enum", "--q", "2", "--budget", "100"]) == 0
        capsys.readouterr()

    def test_bad_env_budget_exit_2(self, monkeypatch):
        monkeypatch.setenv("JOUBERT2_BUDGET", "many")
        with pytest.raises(SystemExit) as exc:
            main(["hermite", "--q", "2"])
        assert exc.value.code == 2

    def test_fail_exit_1(self, capsys, monkeypatch):
        broken = _result("hermite-q2", outcome="fail")
        monkeypatch.setattr(checks, "check_hermite",
                            lambda q, budget, threads: broken)
        assert main(["hermite", "--q", "2"]) == 1
        assert "verdict: fail" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [[], ["-O"]],
                             ids=["python", "python-O"])
    def test_planted_false_claim_exits_1(self, flags):
        # a generator count off by q^2 - q breaks the surface check's class
        # count = element count claim, whatever the interpreter flags
        code = (
            "import dataclasses, sys\n"
            "from joubert2 import cli, jsearch\n"
            "real = jsearch.count_joubert_generators\n"
            "def planted(q, **kw):\n"
            "    rep = real(q, **kw)\n"
            "    return dataclasses.replace(rep, count=rep.count + q * q - q)\n"
            "jsearch.count_joubert_generators = planted\n"
            "argv = ['surface', '--q', '2', '--format', 'json']\n"
            "sys.exit(cli.main(argv))\n")
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        (result,) = json.loads(proc.stdout)["checks"]
        assert result["witness"] == {
            "error": "class count and element count disagree"}

    def test_every_check_is_reachable(self, capsys, monkeypatch):
        reached = []

        def recorder(name):
            def record(*args):
                reached.append(name)
                return _result(f"{name}-{len(reached)}")
            return record

        names = [n for n in vars(checks) if n.startswith("check_")]
        for name in names:
            monkeypatch.setattr(checks, name, recorder(name))
        # every gate open, so each row of the command table runs
        argvs = [["joubert-search", "--q", "2"],
                 ["joubert-enum", "--q", "2"],
                 ["hermite", "--q", "2"],
                 ["surface", "--q", "2"],
                 ["obstruction", "--p", "3", "--m", "1", "--brute-force"],
                 ["curve", "--q", "2"],
                 ["verify-all"]]
        assert {argv[0] for argv in argvs} == set(COMMANDS)
        for argv in argvs:
            assert main(argv) == 0, argv
        capsys.readouterr()
        assert sorted(set(names) - set(reached)) == []

    def test_verify_all_runs_exactly_the_registry(self, capsys, monkeypatch):
        calls = []

        def recorder(name):
            def record(*args):
                calls.append((name, args))
                return _result(f"{name}-{len(calls)}")
            return record

        for name in [n for n in vars(checks) if n.startswith("check_")]:
            monkeypatch.setattr(checks, name, recorder(name))
        monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
        assert main(["verify-all"]) == 0
        capsys.readouterr()
        assert calls == [(name, (*args, None, 1))
                         for name, args in checks.REGISTRY]
        assert len(calls) == 23

    def test_kernel_limit_is_a_domain_error(self):
        # GF(2^36) is past the vector kernels' degree 32: a code limit, so
        # the call raises at once instead of reporting a false claim
        for check in (checks.check_curve, checks.check_surface,
                      checks.ascurve.curve_census, checks.cubic.surface_census):
            t0 = time.perf_counter()
            with pytest.raises(DomainError, match="degree at most 32"):
                check(64, budget=2**36)
            assert time.perf_counter() - t0 < 0.5, check

    def test_unexpected_exception_is_a_fail(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(checks.cubic, "surface_census", broken)
        res = checks.check_surface(2)
        assert res.outcome == "fail"
        assert res.witness == {"error": "KeyError: 'boom'"}
        assert "KeyError" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        assert main(["surface", "--q", "2", "--format", "json",
                     "--out", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        parsed = parse_json(path.read_text())
        assert parsed.verdict == "pass"
        assert parsed.config["q"] == 2

    def test_out_unwritable(self, tmp_path, capsys):
        path = tmp_path / "no" / "such" / "dir" / "m.json"
        assert main(["surface", "--q", "2", "--format", "json",
                     "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot write" in err
        assert str(path) in err

    def test_out_failed_write_keeps_previous_file(self, tmp_path, capsys,
                                                  monkeypatch):
        path = tmp_path / "manifest.json"
        path.write_text("previous manifest")

        class FullDisk:
            """A file whose disk fills after half of the first write."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "open",
                            lambda *a, **kw: FullDisk(open(*a, **kw)),
                            raising=False)
        assert main(["surface", "--q", "2", "--format", "json",
                     "--out", str(path)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert path.read_text() == "previous manifest"
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_single_command_determinism(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["obstruction", "--p", "3", "--m", "1",
                         "--format", "json"]) == 0
            outs.append(strip_timing(capsys.readouterr().out))
        assert outs[0] == outs[1]

    def test_threads_do_not_change_manifest(self, capsys):
        outs = []
        for t in ("1", "3"):
            assert main(["curve", "--q", "4", "--format", "json",
                         "--threads", t]) == 0
            outs.append(strip_timing(capsys.readouterr().out))
        assert outs[0] == outs[1]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "joubert2", "joubert-enum", "--q", "2",
             "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["checks"][0]["witness"]["count"] == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

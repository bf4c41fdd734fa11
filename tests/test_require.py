"""Verifications cannot be stripped by -O.

Every module checks its claims with `errors.require`, which raises
CheckFailed; an `ast` scan keeps `assert` statements out of the package and
the scripts, and a `python -O` run shows the checks still fire.  A second
scan keeps `is_*` predicates from being read without a call, which would
make the claim always true.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from joubert2.errors import CheckFailed, require

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "joubert2").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])


def _assert_lines(tree: ast.Module) -> list[int]:
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert _assert_lines(ast.parse(path.read_text(), filename=str(path))) == []


def test_scan_catches_an_assert():
    assert _assert_lines(ast.parse("x = 1\nassert x\n")) == [2]


def _uncalled_predicates(tree: ast.Module) -> list[tuple[int, str]]:
    # a bound predicate such as `f.is_monic` is always truthy, so a claim
    # that reads it without calling it can never fail
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    return sorted((n.lineno, n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)
                  and n.attr.startswith("is_") and id(n) not in called)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_uncalled_predicates(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _uncalled_predicates(tree) == []


def test_scan_catches_an_uncalled_predicate():
    tree = ast.parse("for f in polys:\n"
                     "    require(f.degree == 6 and f.is_monic, 'x')\n"
                     "    require(f.is_monic(), 'y')\n")
    assert _uncalled_predicates(tree) == [(2, "is_monic")]


def test_require_raises_check_failed():
    require(True, "unused")
    with pytest.raises(CheckFailed, match="claim is false"):
        require(False, "claim is false")
    assert issubclass(CheckFailed, AssertionError)


def test_witness_check_survives_optimize():
    # 1 lies in GF(2), so it cannot be a Joubert generator of GF(2^6)/GF(2)
    code = (
        "import sys\n"
        "from joubert2 import jsearch, make_ext\n"
        "from joubert2.errors import CheckFailed\n"
        "ext = make_ext(2, 1, 6)\n"
        "try:\n"
        "    jsearch._verify_joubert_witness(ext.big.element(1), ext)\n"
        "except CheckFailed:\n"
        "    print(sys.flags.optimize, 'raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["1", "raised"], proc.stderr

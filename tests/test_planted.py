"""Every plant of the check tables in one `python -O` process.

Each table lives next to its in-process tests: `CURVE_PLANTS`
(test_ascurve), `SURFACE_PLANTS` (test_cubic), the enum plants
(test_jsearch), `BRUTE_PLANTS` (test_obstruct), `NEWTON_PLANTS`
(test_sigma) and `CHARPOLY_PLANTS` (test_fpoly).  Under `-O` every check
must still pass unplanted, and every plant must still turn its check's
outcome into `fail` with the same error: `errors.require` is not an
assert, so the interpreter flag strips none of the verification.  The
process runs once per session; each table's own `*_under_optimize` test
asserts its check's lines of that run.
"""

import functools
import subprocess
import sys
from pathlib import Path

import pytest

from joubert2 import checks
from test_ascurve import CURVE_PLANTS
from test_cubic import SURFACE_PLANTS
from test_fpoly import CHARPOLY_PLANTS
from test_jsearch import ENUM_PLANT_ERRORS, _plant
from test_obstruct import BRUTE_PLANTS
from test_sigma import NEWTON_PLANTS

TESTS = Path(__file__).resolve().parent


def _rows() -> list:
    """(check name, args, plant, error) for every plant, in table order:
    plant(setattr) applies it, and the check must report error."""
    rows = [(check, (q,), plant, error)
            for check, table in (("check_curve", CURVE_PLANTS),
                                 ("check_surface", SURFACE_PLANTS))
            for plant, errors in table.values()
            for q, error in errors.items()]
    rows += [("check_generator_enum", (q,),
              lambda patch, name=name: _plant(patch, name), error)
             for (name, q), error in ENUM_PLANT_ERRORS.items()]
    rows += [("check_obstruction_brute", (3, 1), plant, error)
             for plant, error in BRUTE_PLANTS.values()]
    rows += [("check_newton_identities", (), plant,
              "sigma left the base field") for plant in NEWTON_PLANTS.values()]
    rows += [("check_charpoly_routes", (), plant, "char_poly routes disagree")
             for plant in CHARPOLY_PLANTS.values()]
    return rows


def _unplanted(rows: list) -> list:
    """Each (check name, args) of rows once, in order of first use."""
    return list(dict.fromkeys((c, a) for c, a, _, _ in rows))


def _label(check: str, args: tuple) -> str:
    return " ".join([check, *map(str, args)])


def main() -> None:
    """Print each check's outcome unplanted, then its outcome and error
    under each plant, then sys.flags.optimize."""
    rows = _rows()
    for check, args in _unplanted(rows):
        print(_label(check, args), getattr(checks, check)(*args).outcome)
    for check, args, plant, _ in rows:
        with pytest.MonkeyPatch.context() as mp:
            plant(mp.setattr)
            r = getattr(checks, check)(*args)
        print(_label(check, args), r.outcome, r.witness.get("error"))
    print(sys.flags.optimize)


@functools.cache
def _optimized_run() -> tuple:
    """(stdout lines, stderr) of main() in one `python -O` process."""
    code = (f"import sys\nsys.path.insert(0, {str(TESTS)!r})\n"
            "import test_planted\ntest_planted.main()\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=600)
    return proc.stdout.splitlines(), proc.stderr


def assert_plants_fail_under_optimize(*only: str) -> None:
    """Assert the lines of the checks named in only (all when empty) in
    the `python -O` run, and that the run had sys.flags.optimize = 1."""
    rows = [r for r in _rows() if not only or r[0] in only]
    lines, stderr = _optimized_run()
    assert lines[-1:] == ["1"], stderr
    assert [ln for ln in lines[:-1] if not only or ln.split()[0] in only] == (
        [f"{_label(c, a)} pass" for c, a in _unplanted(rows)]
        + [f"{_label(c, a)} fail {error}" for c, a, _, error in rows]), stderr


def test_plants_fail_under_optimize():
    assert_plants_fail_under_optimize()

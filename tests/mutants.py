"""Mutation check: every mutant below must make its pytest selection fail.

Run it from anywhere with ``python tests/mutants.py``.  It copies src/,
tests/ and pyproject.toml into a temporary directory and runs each selection
there once unmutated, which must pass.  It then applies one mutant at a time
to the copy, runs the mutant's selection under ``pytest -x`` and restores the
file.  It exits 1 when a mutant survives, or when a mutant's old text is not
found exactly once in its file; a stale mutant is rewritten, not dropped.

Each mutant is (file under src/prymsplit, exact old text, new text, pytest
selection).  A change to a kernel adds the mutations its tests catch.  The
script uses only the standard library, and its name keeps pytest from
collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ONCE = ("tests/test_prym.py::TestSplit::test_validate_and_split_compute_a_fg_and_s_once",)
TWIST = ("tests/test_properties.py::test_quadratic_twist_identities",)
COUNTING = ("tests/test_counting.py",)

MUTANTS = [
    # A and its determinant recomputed on every read
    ("prym.py", "    @cached_property\n    def coefficient_matrix",
     "    @property\n    def coefficient_matrix", ONCE),
    ("linalg.py", "    @cached_property\n    def det",
     "    @property\n    def det", ONCE),
    # the plane kernel's row lookup rotated without log g's base
    ("counting.py", "(tf + tg - 2 * th) % qm1", "(tf - 2 * th) % qm1", TWIST),
    # the roots of the quadratic prefixes (f, g or h itself) never recounted
    ("counting.py", "for p in ([b, a], [c, b, a])", "for p in ([b, a],)", TWIST),
    # the row at x = infinity off by one log
    ("counting.py", "else lfs[0] + lgs[0], ops)", "else lfs[0] + lgs[0] + 1, ops)", TWIST),
    # log h for log(-h) in the quadratic w^2 - h w + c of a recounted row
    ("counting.py", "[lc, lh if lh < 0 else lh + ops.half, 0]", "[lc, lh, 0]", COUNTING),
    # a row of M swapped with a tail row of the Macaulay layout
    ("resultants.py", "_NON_REDUCED = tuple(",
     "_MULTIPLES = (_MULTIPLES[40],) + _MULTIPLES[1:40] + (_MULTIPLES[0],) + _MULTIPLES[41:]\n"
     "_NON_REDUCED = tuple(", ("tests/test_resultants.py::TestMacaulayReference",)),
    # the elimination's determinant without the sign of its pivot permutation
    ("linalg.py", "            det = field.neg(det)\n", "            pass\n",
     ("tests/test_linalg.py",)),
    # a multiplication by y + g^ld in pow_linear that keeps only the shift by y
    ("counting.py", "                if ld >= 0:\n                    self.add_scaled(shifted, 0, ld, a)\n",
     "", COUNTING),
    # pow_linear squaring once more for the top bit of e, which it starts from
    ("counting.py", "bin(e)[3:]", "bin(e)[2:]", COUNTING),
    # a zero power multiplied by y + g^ld, which leaves [-1] in place of []
    ("counting.py", 'if bit == "1" and a:', 'if bit == "1":',
     ("tests/test_counting.py::TestRowSolver",)),
    # every cover orbit row weighted as a single point
    ("counting.py", "_weighted_total(sizes, base_rows, m), _weighted_total(sizes, cover_rows, m)",
     "_weighted_total(sizes, base_rows, 1), _weighted_total(sizes, cover_rows, 1)", COUNTING),
    # the row-table halves not swapped for an odd log h base
    ("counting.py", "return (odd, even) if th & 1 else (even, odd)", "return (even, odd)", COUNTING),
    # count_weighted's x with F(x) = 0 read as no point in place of one
    ("counting.py", '* ((field.q - 1) // 2) + b"\\x01"', '* ((field.q - 1) // 2) + b"\\x00"', COUNTING),
    # count_weighted's 1 + chi table not swapped for an odd log base t
    ("counting.py", '(b"\\x00\\x02" if t & 1 else b"\\x02\\x00")', 'b"\\x02\\x00"', COUNTING),
    # the Frobenius orbits by size in discovery order, not ascending
    ("counting.py", "for size in sorted(by_size):", "for size in by_size:", COUNTING),
    # pencil_sextic's determinant without its minus sign
    ("prym.py", "return -Matrix3(OPERATORS, m).det", "return Matrix3(OPERATORS, m).det",
     ("tests/test_prym.py::TestPencil",)),
    # a validation report that passes despite its first failure
    ("prym.py", "return not self.failures\n", "return not self.failures[1:]\n",
     ("tests/test_prym.py::TestValidate::test_rejecting_inputs_fail_their_named_check",)),
    # each class's subtraction by the field's add (UniPoly's is followed by
    # __neg__, BinaryForm's by __mul__)
    ("poly.py", "self.field.sub)\n\n    def __neg__", "self.field.add)\n\n    def __neg__",
     ("tests/test_poly.py::test_arithmetic_and_eval",)),
    ("poly.py", "self.field.sub)\n\n    def __mul__", "self.field.add)\n\n    def __mul__",
     ("tests/test_prym.py::TestGenusOneModel",)),
    ("ternary.py", "self._combine(other, self.field.sub)", "self._combine(other, self.field.add)",
     ("tests/test_ternary.py",)),
    # BinaryForm.partial with its axes swapped
    ("poly.py", "(self.n - i, i)[axis]", "(i, self.n - i)[axis]",
     ("tests/test_poly.py::test_euler_identity_for_partials",)),
    # criterion 7 counting y^2 = F, so no corruption is detected
    ("selftest.py", "poly = poly + UniPoly(poly.field, [poly.field.one])", "pass",
     ("tests/test_acceptance.py::test_criterion_7_negative_controls",)),
    # field equality blind to the modulus: two F_{p^k} under different moduli
    ("fields.py", "and other.p == self.p and other.modulus == self.modulus",
     "and other.p == self.p", COUNTING),
    # a / b taken as b / a
    ("fields.py", "return self.mul(a, self.inv(b))", "return self.mul(self.inv(a), b)",
     ("tests/test_resultants.py",)),
    # squarefreeness tested against the z-partial in place of f'
    ("poly.py", "self.partial(0).dehomogenize()", "self.partial(1).dehomogenize()",
     ("tests/test_poly.py::TestSquarefree",)),
    # a finite-field element's coefficients cut to its lowest digit
    ("fields.py", "tuple(_packed_digits(a, self.p, self.k))", "tuple(_packed_digits(a, self.p, 1))",
     ("tests/test_fields.py",)),
    # main exiting 0 whatever the command's verdict
    ("cli.py", "        return code\n", "        return EXIT_PASS\n", ("tests/test_cli.py",)),
    # documents with unknown keys accepted
    ("cli.py", "        if key not in keys:\n", "        if False:\n", ("tests/test_cli.py",)),
    # every report's verdict "pass"
    ("cli.py", 'return "pass" if passed else "fail"', 'return "pass"',
     ("tests/test_cli.py::TestFailPaths",)),
    # Q's subtraction by Fraction's +
    ("fields.py", "sub = staticmethod(operator.sub)", "sub = staticmethod(operator.add)",
     ("tests/test_poly.py",)),
    # the product of two L-polynomials taken with + in place of *
    ("poly.py", "sub=operator.sub, mul=operator.mul)", "sub=operator.sub, mul=operator.add)",
     ("tests/test_zeta.py::TestWeilPolynomial",)),
    # verify_bruin reading the base's counts as the cover's
    ("zeta.py", "records[1:2 * depth:2]", "records[0:2 * depth:2]", ("tests/test_zeta.py",)),
    # an extension-field element packed one base-p digit too high
    ("fields.py", "self.p**i for", "self.p**(i + 1) for", ("tests/test_fields.py",)),
    # a selftest criterion that raises ends the run in place of failing
    ("selftest.py", "except PrymError as exc:", "except () as exc:",
     ("tests/test_cli.py::TestFailPaths::test_selftest_reports_a_raising_criterion_and_goes_on",)),
    # a repeated monomial in a quartic document kept as its last entry
    ("cli.py", "        if (i, j, k) in coeffs:\n", "        if False:\n",
     ("tests/test_cli.py::TestParsing::test_repeated_key_or_monomial_rejected",)),
]


def run_pytest(copy: Path, selection) -> int:
    # no bytecode: a restored file can keep the size and mtime second of a stale .pyc
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    return subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        for selection in dict.fromkeys(m[3] for m in MUTANTS):
            code = run_pytest(copy, selection)
            print(f"{'passes' if code == 0 else 'FAILS'} unmutated: {' '.join(selection)}")
            bad += code != 0
        if bad:
            return 1
        for name, old, new, selection in MUTANTS:
            path = copy / "src" / "prymsplit" / name
            text = path.read_text()
            label = f"{name}: {old.strip()!r} -> {new.strip()!r}"
            if text.count(old) != 1:
                print(f"STALE    {label}: old text found {text.count(old)} times")
                bad += 1
                continue
            start = time.perf_counter()
            path.write_text(text.replace(old, new))
            try:
                code = run_pytest(copy, selection)
            finally:
                path.write_text(text)
            # 1 is pytest's "tests failed"; a collection or usage error is no kill
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR({code})")
            print(f"{verdict:8} {label} ({time.perf_counter() - start:.1f} s)")
            bad += code != 1
    print(f"{len(MUTANTS)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

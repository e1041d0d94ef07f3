"""quartic_disc_nonzero against the exact discriminant, and the decisions
that use it.

The certificate decides disc != 0 by one rank: in the field itself for a
finite field, modulo l = 2^30 - 35 over the rationals, falling back to the
exact rank over Q when the rank mod l is short or l divides a denominator.
No decision path computes the discriminant's value.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from prymsplit import (
    QQ,
    BiellipticQuartic,
    BinaryForm,
    RejectedInputError,
    TernaryForm,
    bruin_cover,
    build_extension,
    cli,
    deform,
    disc_ternary_quartic,
    prym,
    quartic_disc_nonzero,
    random_validated_curve,
    resultants,
    split,
    validate,
)
from prymsplit import poly as prym_poly
from prymsplit.fields import PrimeField
from prymsplit.prym import _pencil_targets
from helpers import random_ternary_form

ELL = resultants._CERT_FIELD.p
KINDS = ("random", "f=g", "s-double-root", "fg-repeated-root")


def _curve(field, rng, kind, height=1000, den=1000):
    """A bielliptic quartic of the named kind; every kind but "random" is
    singular by construction (f*g or s = h^2 - 4fg has a repeated root).

    A rational entry has a numerator up to `height` and a denominator up to
    `den`; a small denominator keeps the exact discriminant cheap enough to
    compare against."""
    F = field

    def d():
        if F.kind == "rationals":
            return Fraction(rng.randint(-height, height), rng.randint(1, den))
        return F.random_element(rng)

    f, g, h = [d(), d(), d()], [d(), d(), d()], [d(), d(), d()]
    if kind == "f=g":
        g = list(f)
    elif kind == "s-double-root":
        # s(0, 1) = h2^2 - 4 f2 g2 = 0 and ds/dx(0, 1) = 2 h1 h2 - 4 (f1 g2 + f2 g1) = 0
        t = d()
        f[2], g[2], h[2] = t, t, F.add(t, t)
        h[1] = F.add(f[1], g[1])
    elif kind == "fg-repeated-root":
        # f = (x - r z)(x - u z), g = c (x - r z)(x - v z)
        r, u, v, c = d(), d(), d(), d()
        f = [F.one, F.neg(F.add(r, u)), F.mul(r, u)]
        g = [c, F.neg(F.mul(c, F.add(r, v))), F.mul(c, F.mul(r, v))]
    forms = [BinaryForm(F, 2, coeffs) for coeffs in (f, g, h)]
    if forms[0].is_zero() or forms[1].is_zero():
        return _curve(field, rng, kind, height, den)
    return BiellipticQuartic(F, *forms)


def _exact_report(curve, disc_nonzero, monkeypatch):
    """validate's report with the cross-check fed disc != 0 as the exact
    discriminant decided it."""
    with monkeypatch.context() as m:
        m.setattr(prym, "quartic_disc_nonzero", lambda form: disc_nonzero)
        return validate(curve)


def _fallback_spy(monkeypatch):
    """Record the Macaulay rows of every rank taken over Q."""
    calls = []
    exact = resultants._shares_projective_zero

    def spy(rows, field):
        if field is QQ:
            calls.append(rows)
        return exact(rows, field)

    monkeypatch.setattr(resultants, "_shares_projective_zero", spy)
    return calls


FIELDS = {
    "F7": (build_extension(7), None),
    "F3^2": (build_extension(3, 2), None),
    "QQ-1e3": (QQ, 10**3),
    "QQ-1e60": (QQ, 10**60),
    "F17": (build_extension(17), None),
    "F23": (build_extension(23), None),
    "F31": (build_extension(31), None),
    "F17^2": (build_extension(17, 2), None),
}


@pytest.mark.parametrize("name", list(FIELDS))
def test_agrees_with_exact_discriminant(name, monkeypatch):
    field, height = FIELDS[name]
    rng = random.Random(sum(map(ord, name)))
    rounds = 1 if height == 10**60 else 3
    seen = set()
    for kind in KINDS:
        for _ in range(rounds):
            curve = _curve(field, rng, kind, height)
            form = curve.plane_quartic()
            nonzero = disc_ternary_quartic(form) != field.zero
            assert quartic_disc_nonzero(form) == nonzero, (kind, curve)
            assert validate(curve) == _exact_report(curve, nonzero, monkeypatch), (kind, curve)
            seen.add(nonzero)
            if kind != "random":
                assert not nonzero, (kind, curve)
    if field.kind == "finite":
        for _ in range(4):
            form = random_ternary_form(field, rng, 4)
            assert quartic_disc_nonzero(form) == (disc_ternary_quartic(form) != field.zero)
    assert seen == {True, False}


def test_rational_certificate_skips_the_exact_rank(monkeypatch):
    calls = _fallback_spy(monkeypatch)
    rng = random.Random(3)
    for _ in range(6):
        curve = _curve(QQ, rng, "random")
        assert quartic_disc_nonzero(curve.plane_quartic())
    assert calls == []


@pytest.mark.parametrize("p", [3, 5, 7])
def test_short_rank_mod_small_prime_falls_back(p, monkeypatch):
    monkeypatch.setattr(resultants, "_CERT_FIELD", PrimeField(p))
    calls = _fallback_spy(monkeypatch)
    rng = random.Random(p)
    short_rank = 0
    for trial in range(20):
        kind = KINDS[trial % 2]  # smooth, then f = g
        curve = _curve(QQ, rng, kind, den=1)
        form = curve.plane_quartic()
        before = len(calls)
        got = quartic_disc_nonzero(form)
        fell_back = len(calls) > before
        nonzero = resultants.disc_ternary_quartic(form) != 0
        assert got == nonzero, (kind, curve)
        assert validate(curve) == _exact_report(curve, nonzero, monkeypatch)
        # smooth over Q, p divides no denominator, yet singular mod p
        short_rank += fell_back and got and resultants._reduce_mod_cert(form) is not None
    assert short_rank >= 1


def test_certificate_prime_is_the_largest_below_2_to_the_30():
    assert sympy.isprime(ELL) and ELL < 2**30 < sympy.nextprime(ELL)


def test_smooth_over_q_but_singular_mod_ell_takes_one_exact_rank(monkeypatch):
    # G has a node at (0:0:1); G + l z^4 is smooth over Q and reduces to G mod l
    coeffs = {(4, 0, 0): 1, (0, 4, 0): 1, (2, 0, 2): 1, (0, 2, 2): -1, (1, 1, 2): 3}
    node = TernaryForm.from_ints(QQ, 4, coeffs)
    form = TernaryForm.from_ints(QQ, 4, {**coeffs, (0, 0, 4): ELL})
    assert disc_ternary_quartic(node) == 0 and disc_ternary_quartic(form) != 0
    assert resultants._has_singular_point(resultants._reduce_mod_cert(form))
    calls = _fallback_spy(monkeypatch)
    assert quartic_disc_nonzero(form) is True
    assert len(calls) == 1


def test_denominator_divisible_by_ell_falls_back(monkeypatch):
    doc = {"f": [f"1/{ELL}", 1, 0], "g": [1, 1, 1], "h": [1, 0, -1]}
    curve = BiellipticQuartic(QQ, *(BinaryForm(QQ, 2, [Fraction(v) for v in doc[k]])
                                    for k in ("f", "g", "h")))
    form = curve.plane_quartic()
    assert resultants._reduce_mod_cert(form) is None
    nonzero = resultants.disc_ternary_quartic(form) != 0
    calls = _fallback_spy(monkeypatch)
    assert quartic_disc_nonzero(form) == nonzero
    assert len(calls) == 1
    assert validate(curve) == _exact_report(curve, nonzero, monkeypatch)
    assert cli.main(["validate", "--input", json.dumps(doc)]) == 0


def test_certificate_field_never_builds_log_tables(monkeypatch):
    real = PrimeField._build_log_tables

    def guard(self):
        if self.p == ELL:
            raise AssertionError("log tables of F_l were built")
        return real(self)

    monkeypatch.setattr(PrimeField, "_build_log_tables", guard)
    docs = (
        {"f": [0, 1, 0], "g": [1, "1/2", 1], "h": [1, 0, -1]},
        {"f": ["123456789012345678901234567890/7", 1, 0], "g": [1, 1, 1], "h": [1, 0, -1]},
    )
    for doc in docs:
        for command in ("validate", "split", "verify"):
            assert cli.main([command, "--input", json.dumps(doc)]) == 0, command
    rng = random.Random(9)
    curve = _curve(QQ, rng, "random")
    assert validate(curve).passed
    split(curve)


def _validate_in_subprocess(doc, tmp_path):
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(doc))
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "prymsplit.cli", "validate", "--input", str(path)],
        timeout=20, capture_output=True, env={**os.environ, "PYTHONPATH": src},
    )


def test_smooth_4000_digit_document_validates_in_a_subprocess(tmp_path):
    # the exact discriminant of this document takes well over a minute
    doc = {"f": ["9" * 4000 + "/7", 1, 0], "g": [1, 1, 1], "h": [1, 0, -1]}
    proc = _validate_in_subprocess(doc, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_singular_4000_digit_document_is_rejected_in_a_subprocess(tmp_path):
    # f = g: the rank mod l is short, so the exact rank over Q decides; the
    # exact discriminant of this document takes well over a minute
    tall = ["9" * 4000 + "/7", 1, 0]
    proc = _validate_in_subprocess({"f": tall, "g": tall, "h": [1, 0, -1]}, tmp_path)
    assert proc.returncode == 3, proc.stderr


def test_decisions_never_compute_the_discriminant_value(monkeypatch):
    def tripwire(rows, field):
        raise AssertionError("a decision path computed a Macaulay value")

    monkeypatch.setattr(resultants, "_macaulay_quotient", tripwire)
    rng = random.Random(12)
    for field in (QQ, build_extension(3), build_extension(7), build_extension(23),
                  build_extension(3, 2)):
        for kind in KINDS:
            validate(_curve(field, rng, kind))
        if field.kind == "finite":
            curve = random_validated_curve(field, rng)
            for eps in (0, 1, 2):
                deform(curve, field.from_int(eps))
    ell_den = {"f": [f"1/{ELL}", 1, 0], "g": [1, 1, 1], "h": [1, 0, -1]}
    assert cli.main(["validate", "--input", json.dumps(ell_den)]) == 0
    assert bruin_cover(*_pencil_targets(QQ)).base_smooth


@pytest.mark.parametrize("p", [None, 5, 7], ids=["QQ", "F5", "F7"])
def test_failed_cross_check_fails_the_gate(p, monkeypatch, capsys):
    demo = {"f": [0, 1, 0], "g": [1, 1, 1], "h": [1, 0, -1]}
    field = QQ if p is None else build_extension(p)
    doc = demo if p is None else {"p": p, **demo}
    curve = BiellipticQuartic.from_ints(field, **demo)
    assert validate(curve).passed
    right = prym.quartic_disc_nonzero
    monkeypatch.setattr(prym, "quartic_disc_nonzero", lambda form: not right(form))
    report = validate(curve)
    assert report.disc_cross_check is False
    assert not report.passed
    with pytest.raises(RejectedInputError, match="disagrees with the squarefree checks"):
        prym.require_valid(curve)
    assert cli.main(["validate", "--input", json.dumps(doc)]) == 3
    assert "validate: fail" in capsys.readouterr().out



class TestSquarefreeCertificate:
    """BinaryForm.is_squarefree over Q: a reduction mod l that is squarefree
    at the same formal degree answers True, and every other case runs the
    exact gcd over Q."""

    @staticmethod
    def exact(form, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(resultants, "squarefree_mod_cert", lambda F: False)
            return form.is_squarefree()

    @staticmethod
    def gcds_over_q(monkeypatch):
        calls = []
        real = prym_poly.poly_gcd

        def spy(a, b):
            if a.field == QQ:
                calls.append(a)
            return real(a, b)

        monkeypatch.setattr(prym_poly, "poly_gcd", spy)
        return calls

    def test_agrees_with_the_exact_gcd_on_random_forms(self, monkeypatch):
        rng = random.Random(41)
        seen = set()
        for trial in range(240):
            n = rng.choice((2, 3, 4, 6))
            roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            if trial % 3 == 0:  # a repeated root
                roots[1] = roots[0]
            # prod (x - r z), with leading zeros: a root at infinity, simple or double
            coeffs = [Fraction(1)]
            for r in roots[: n - trial % 4 % 3]:
                coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            coeffs = [0] * (n + 1 - len(coeffs)) + coeffs
            scale = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            form = BinaryForm(QQ, n, [scale * c for c in coeffs])
            expected = self.exact(form, monkeypatch)
            assert form.is_squarefree() == expected, form
            seen.add((expected, coeffs[0] == 0))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_certified_forms_skip_the_gcd_over_q(self, monkeypatch):
        calls = self.gcds_over_q(monkeypatch)
        form = BinaryForm(QQ, 4, [Fraction(3, 7), 1, Fraction(-5, 2), 0, 11])
        assert form.is_squarefree()
        assert calls == []

    def test_squarefree_over_q_but_not_mod_ell(self, monkeypatch):
        form = BinaryForm.from_ints(QQ, 2, [1, -ELL, 0])  # x (x - l z)
        assert not resultants.squarefree_mod_cert(form)
        calls = self.gcds_over_q(monkeypatch)
        assert form.is_squarefree()
        assert len(calls) == 1

    def test_ell_in_a_denominator(self, monkeypatch):
        form = BinaryForm(QQ, 2, [Fraction(1, ELL), 1, 0])  # x (x / l + z)
        assert not resultants.squarefree_mod_cert(form)
        calls = self.gcds_over_q(monkeypatch)
        assert form.is_squarefree()
        assert not BinaryForm(QQ, 2, [Fraction(1, ELL), 0, 0]).is_squarefree()  # x^2 / l
        assert len(calls) == 2

    def test_every_coefficient_a_multiple_of_ell(self, monkeypatch):
        calls = self.gcds_over_q(monkeypatch)
        for coeffs, expected in (([ELL, -ELL, 0], True),  # l x (x - z)
                                 ([ELL, -2 * ELL, ELL], False),  # l (x - z)^2
                                 ([0, ELL, 3 * ELL], True)):  # l z (x + 3z)
            form = BinaryForm.from_ints(QQ, 2, coeffs)
            assert not resultants.squarefree_mod_cert(form)  # reduces to zero
            assert form.is_squarefree() == expected
        assert len(calls) == 3

"""Self-test criteria: every quantitative claim the package stands behind.

Each criterion is a plain check, (passed, detail), under one decorator,
_criterion(index, name), that numbers, names and times it into a
CriterionResult; a new criterion is one decorated function.  run_all runs
the lot and prints one pass/fail line per criterion.  The pytest acceptance
module drives the same functions at full scale, so `prymsplit selftest
--full` and the test suite agree by construction.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .counting import count_weighted
from .errors import InconsistentCountsError, RejectedInputError
from .fields import QQ, build_extension
from .linalg import Matrix3
from .poly import BinaryForm, UniPoly
from .prym import (
    BiellipticQuartic,
    deform,
    pencil_sextic,
    random_validated_curve,
    singular_model,
    split,
    validate,
)
from .resultants import (
    GOLDEN_QUARTIC,
    GOLDEN_QUARTIC_DISC,
    QUARTIC_DISC_NORMALIZER,
    binary_disc_scale,
    disc_ternary_quartic,
    discriminant_binary,
    macaulay_resultant_cubics,
)
from .ternary import TernaryForm
from .zeta import lpoly_from_counts, predicted_counts, verify_bruin, verify_split


# the primes that the split, identity-pool, negative-control and oracle
# criteria draw curves over, and criterion 1's count of diagonal quartics;
# quick and full scale use the same values
PRIMES = (5, 7, 11, 13)
DISC_DEMO_QUARTICS = 10


@dataclass(frozen=True)
class SelftestConfig:
    seed: int = 20260212
    curves_per_prime: int = 100
    identity_instances: int = 1024
    identity_rational: int = 24
    ratio_instances: int = 50
    bruin_fibers: int = 10
    bruin_full_primes: tuple = (3, 5, 7)
    negative_instances: int = 100

    @classmethod
    def quick(cls, seed: int = 20260212):
        return cls(
            seed=seed,
            curves_per_prime=10,
            identity_instances=120,
            identity_rational=6,
            ratio_instances=12,
            bruin_fibers=3,
            bruin_full_primes=(3,),
            negative_instances=20,
        )


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"CRITERION {self.index} [{mark}] {self.name} ({self.seconds:.1f}s): {self.detail}"


def _criterion(index, name):
    """Turn check(cfg) -> (passed, detail) into check(cfg) -> CriterionResult."""
    def decorate(check):
        @functools.wraps(check)
        def timed(cfg: SelftestConfig) -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = check(cfg)
            return CriterionResult(index, name, passed, detail, time.perf_counter() - t0)
        return timed
    return decorate


def _diagonal_quartic(a, b, c):
    return TernaryForm(
        QQ, 4, {(4, 0, 0): Fraction(a), (0, 4, 0): Fraction(b), (0, 0, 4): Fraction(c)}
    )


@_criterion(1, "ternary quartic discriminant golden value")
def criterion_disc_golden(cfg: SelftestConfig):
    """Discriminant golden value and constancy of the Macaulay normalizer."""
    value = disc_ternary_quartic(GOLDEN_QUARTIC)
    if value != GOLDEN_QUARTIC_DISC:
        return False, f"golden quartic gave {value}, wanted {GOLDEN_QUARTIC_DISC}"
    # normalizer constancy, path one: diagonal quartics have the
    # closed-form resultant-of-partials 4^27 (abc)^9, so the ratio of the
    # Macaulay value to it must be the same unit for every instance.
    rng = random.Random(cfg.seed + 1)
    ratios = set()
    for _ in range(DISC_DEMO_QUARTICS):
        a, b, c = (rng.choice([v for v in range(-5, 6) if v]) for _ in range(3))
        form = _diagonal_quartic(a, b, c)
        raw = macaulay_resultant_cubics(form.partial(0), form.partial(1), form.partial(2))
        closed = Fraction(4**27) * Fraction(a * b * c) ** 9
        ratios.add(raw / closed)
        if disc_ternary_quartic(form) != closed / QUARTIC_DISC_NORMALIZER:
            return False, f"calibrated diagonal disc mismatch at ({a},{b},{c})"
    if ratios != {Fraction(1)}:
        return False, f"Macaulay/product-formula ratio not constant: {ratios}"
    # path two: covariance disc(F o T) = det(T)^36 disc(F) on non-diagonal
    # smooth quartics exercises independent Macaulay matrices.
    t = Matrix3.from_ints(QQ, [[1, 2, 0], [0, 1, 1], [1, 0, 3]])
    det_t = t.det
    for a, b, c in ((1, 1, 1), (2, -3, 1)):
        form = _diagonal_quartic(a, b, c)
        moved = form.compose_linear(t.rows)
        if disc_ternary_quartic(moved) != det_t**36 * disc_ternary_quartic(form):
            return False, "discriminant covariance failed"
    return True, (
        f"disc = -2^40 exactly; normalizer {QUARTIC_DISC_NORMALIZER} constant "
        f"across {DISC_DEMO_QUARTICS} quartics and covariant under GL3"
    )


@_criterion(2, "Jacobian splitting verified by zeta factorization")
def criterion_split_factorization(cfg: SelftestConfig):
    """L_C = L_D * L_X exactly for seeded random validated curves."""
    rng = random.Random(cfg.seed + 2)
    total = 0
    for p in PRIMES:
        field = build_extension(p)
        for _ in range(cfg.curves_per_prime):
            curve = random_validated_curve(field, rng)
            result = verify_split(curve)
            if not result.passed:
                return False, f"mismatch over F_{p}: {result.failure}"
            total += 1
    return True, f"{total} curves split with exact L-polynomial factorization"


def _identity_pool(cfg: SelftestConfig):
    rng = random.Random(cfg.seed + 3)
    per_prime = max(1, (cfg.identity_instances - cfg.identity_rational) // len(PRIMES))
    for p in PRIMES:
        field = build_extension(p)
        for _ in range(per_prime):
            yield random_validated_curve(field, rng)
    for _ in range(cfg.identity_rational):
        yield random_validated_curve(QQ, rng)


@_criterion(3, "pencil determinant matches the split polynomial")
def criterion_pencil_identity(cfg: SelftestConfig):
    """4 * pencil determinant = b(b^2 - ac), coefficient for coefficient."""
    n = 0
    for curve in _identity_pool(cfg):
        field = curve.field
        sr = split(curve, skip_validation=True)
        q1, q2, q3 = singular_model(curve)
        four = field.from_int(4)
        if pencil_sextic(q1, q2, q3).scale(four) != sr.sextic:
            return False, f"pencil identity failed over {field}"
        n += 1
    return True, f"identity holds on {n} validated instances"


@_criterion(4, "split polynomial always squarefree")
def criterion_squarefree(cfg: SelftestConfig):
    """b(b^2 - ac) is squarefree of degree 5 or 6 on validated instances."""
    n = 0
    degree5 = 0
    for curve in _identity_pool(cfg):
        sr = split(curve, skip_validation=True)
        if sr.sextic.degree not in (5, 6):
            return False, f"degree {sr.sextic.degree} genus-2 polynomial"
        if sr.sextic.degree == 5:
            degree5 += 1
        if not BinaryForm.homogenize(sr.sextic, 6).is_squarefree():
            return False, f"repeated root over {curve.field}"
        n += 1
    return True, f"squarefree on {n} instances ({degree5} of degree 5)"


@_criterion(5, "discriminant identity ratio equals 4")
def criterion_disc_ratio(cfg: SelftestConfig):
    """Disc(F) det(A)^18 / (g2 (g2 - g1^2/4)^2 Disc(s)) is the constant 4."""
    rng = random.Random(cfg.seed + 4)
    unit = Fraction(binary_disc_scale(6), binary_disc_scale(4))
    ratios = set()
    produced = 0
    while produced < cfg.ratio_instances:
        g2 = Fraction(rng.randint(-9, 9))
        g1 = Fraction(rng.randint(-9, 9))
        h = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        if g2 == 0:
            continue
        curve = BiellipticQuartic(
            QQ,
            BinaryForm(QQ, 2, (Fraction(0), Fraction(1), Fraction(0))),
            BinaryForm(QQ, 2, (g2, g1, Fraction(1))),
            BinaryForm(QQ, 2, tuple(h)),
        )
        if not validate(curve).passed:
            continue
        sr = split(curve, skip_validation=True)
        if sr.sextic.degree != 6:
            continue
        disc_f = discriminant_binary(BinaryForm.homogenize(sr.sextic, 6))
        disc_s = discriminant_binary(curve.branch_quartic)
        denominator = g2 * (g2 - g1 * g1 / 4) ** 2 * disc_s
        ratios.add(disc_f * sr.det**18 / denominator / unit)
        produced += 1
    if ratios != {Fraction(4)}:
        return False, f"calibrated ratios: {sorted(ratios)}"
    return True, (
        f"ratio = 4 on {produced} instances after dividing by the "
        f"degree-6/degree-4 convention unit {unit}"
    )


def _smooth_fiber(field, rng):
    """Draw a validated curve, then a nonzero eps, until deform is verifiable."""
    while True:
        curve = random_validated_curve(field, rng)
        eps = field.random_nonzero(rng)
        cover = deform(curve, eps)
        if cover.verifiable:
            return eps, cover


@_criterion(6, "double-cover Prym identity")
def criterion_bruin(cfg: SelftestConfig):
    """Prym identity for smooth deformation fibers, plus a full degree-10
    certificate over each of cfg.bruin_full_primes."""
    rng = random.Random(cfg.seed + 5)
    field5 = build_extension(5)
    for _ in range(cfg.bruin_fibers):
        eps, cover = _smooth_fiber(field5, rng)
        result = verify_bruin(cover, depth=3)
        if not (result.passed and result.achieved_depth == 3):
            return False, f"depth-3 failure at eps={eps}: {result.failure}"
    for p in cfg.bruin_full_primes:
        _, cover = _smooth_fiber(build_extension(p), rng)
        result = verify_bruin(cover, depth=5)
        if not (result.passed and result.full_certificate):
            return False, f"full-depth failure over F_{p}: {result.failure}"
    primes = ", ".join(f"F_{p}" for p in cfg.bruin_full_primes)
    return True, (
        f"{cfg.bruin_fibers} fibers verified to depth 3 over F_5; full degree-10 "
        f"certificates over {primes}"
    )


def rejecting_inputs(field=QQ):
    """One curve per validation failure mode, each rejected before counting."""
    return {
        "fg not squarefree": BiellipticQuartic.from_ints(
            field, f=[1, 0, 0], g=[0, 0, 1], h=[0, 1, 0]
        ),
        # s = h^2 - 4fg = x (x + z)^2 (x + 4z), with det A != 0 and f*g squarefree
        "branch quartic not squarefree": BiellipticQuartic.from_ints(
            field, f=[0, 1, 0], g=[-2, -2, -1], h=[-1, 1, 0]
        ),
        "singular coefficient matrix": BiellipticQuartic.from_ints(
            field, f=[0, 1, 0], g=[1, 1, 1], h=[0, 1, 0]
        ),
    }


@_criterion(7, "negative controls")
def criterion_negative_controls(cfg: SelftestConfig):
    """Corrupting the split polynomial breaks verification almost surely, and
    every validation-rejecting input is refused before any counting."""
    from unittest.mock import patch

    from . import zeta as zeta_module

    # verify_split counts y^2 = F + 1 in place of the genus-2 factor y^2 = F
    def corrupted_count(poly, genus, field):
        if genus == 2:
            poly = poly + UniPoly(poly.field, [poly.field.one])
        return count_weighted(poly, genus, field)

    rng = random.Random(cfg.seed + 6)
    failures = 0
    with patch.object(zeta_module, "count_weighted", corrupted_count):
        for i in range(cfg.negative_instances):
            p = PRIMES[i % len(PRIMES)]
            curve = random_validated_curve(build_extension(p), rng)
            try:
                detected = not zeta_module.verify_split(curve).passed
            except InconsistentCountsError:
                detected = True
            if detected:
                failures += 1
    needed = (95 * cfg.negative_instances + 99) // 100
    if failures < needed:
        return False, f"only {failures}/{cfg.negative_instances} corruptions detected"

    # the three rejection modes must raise before any counting runs
    def tripwire(*_args, **_kwargs):
        raise AssertionError("counting reached on a rejected input")

    with patch.multiple(zeta_module, count_plane_quartic=tripwire,
                        count_weighted=tripwire, count_bruin_cover=tripwire):
        for name, curve in rejecting_inputs(build_extension(7)).items():
            try:
                zeta_module.verify_split(curve)
            except RejectedInputError:
                continue
            return False, f"input with {name} was not rejected"
    return True, (
        f"{failures}/{cfg.negative_instances} corruptions detected; all "
        "rejection modes refused before counting"
    )


@_criterion(8, "count/L-polynomial oracle invariants")
def criterion_oracle_invariants(cfg: SelftestConfig):
    """Round trips, functional equations and Weil bounds on fresh instances."""
    rng = random.Random(cfg.seed + 7)
    sample = max(8, cfg.curves_per_prime // 3)
    checked = 0
    for p in PRIMES:
        field = build_extension(p)
        for _ in range(sample):
            curve = random_validated_curve(field, rng)
            result = verify_split(curve)
            if not result.passed:
                return False, f"verification failed over F_{p}"
            for lp in (result.l_curve, result.l_genus1, result.l_genus2):
                g = lp.genus
                if lp.coeffs[2 * g] != p**g:
                    return False, "leading coefficient is not q^g"
                for i in range(g + 1):
                    if lp.coeffs[2 * g - i] != p ** (g - i) * lp.coeffs[i]:
                        return False, "functional equation violated"
            for rec, genus in zip(result.counts, (3, 3, 3, 1, 2, 2)):
                if not rec.weil_ok(genus):
                    return False, f"Weil bound violated by {rec}"
            ns = [rec.n for rec in result.counts[:3]]
            rebuilt = lpoly_from_counts(p, ns, 3)
            if any(predicted_counts(rebuilt, m) != ns[m - 1] for m in (1, 2, 3)):
                return False, "predicted_counts round trip failed"
            checked += 1
    return True, f"round trips, functional equations and Weil bounds on {checked} curves"


CRITERIA = (
    criterion_disc_golden,
    criterion_split_factorization,
    criterion_pencil_identity,
    criterion_squarefree,
    criterion_disc_ratio,
    criterion_bruin,
    criterion_negative_controls,
    criterion_oracle_invariants,
)


def run_all(cfg: SelftestConfig, printer=print) -> list:
    results = []
    for criterion in CRITERIA:
        result = criterion(cfg)
        results.append(result)
        printer(result.line())
    return results

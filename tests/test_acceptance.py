"""Acceptance gate: every criterion at full scale, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; `prymsplit selftest --full` executes the identical checks.
"""

from prymsplit.selftest import (
    PRIMES,
    SelftestConfig,
    criterion_bruin,
    criterion_disc_golden,
    criterion_disc_ratio,
    criterion_negative_controls,
    criterion_oracle_invariants,
    criterion_pencil_identity,
    criterion_split_factorization,
    criterion_squarefree,
)

CFG = SelftestConfig()


def _check(result, budget_seconds):
    print(result.line())
    assert result.passed, result.detail
    assert result.seconds < budget_seconds, (
        f"criterion {result.index} took {result.seconds:.1f}s, budget {budget_seconds}s"
    )


def test_criterion_1_disc_golden_value():
    # disc(x1^4 - x2^4 + x3^4) = -2^40 exactly, normalizer demonstrated
    # constant across >= 10 independent smooth quartics; under 10 s
    _check(criterion_disc_golden(CFG), 10)


def test_criterion_2_split_theorem_at_desk_scale():
    # >= 100 seeded random validated curves over each p in {5, 7, 11, 13},
    # exact integer equality L_C = L_D * L_X; under 10 minutes
    assert CFG.curves_per_prime >= 100
    assert PRIMES == (5, 7, 11, 13)
    _check(criterion_split_factorization(CFG), 600)


def test_criterion_3_pencil_identity():
    # 4 * pencil determinant = b(b^2 - ac) on >= 10^3 validated instances;
    # under 30 s
    assert CFG.identity_instances >= 1000
    _check(criterion_pencil_identity(CFG), 30)


def test_criterion_4_squarefree_split_polynomial():
    # b(b^2 - ac) squarefree on >= 10^3 validated instances, zero failures
    assert CFG.identity_instances >= 1000
    _check(criterion_squarefree(CFG), 600)


def test_criterion_5_discriminant_ratio():
    # Disc(F) det(A)^18 / (g2 (g2 - g1^2/4)^2 Disc(h^2-4fg)) is one constant,
    # equal to 4 after the documented convention calibration; under 60 s
    assert CFG.ratio_instances >= 50
    _check(criterion_disc_ratio(CFG), 60)


def test_criterion_6_bruin_verification():
    # >= 10 smooth deformation fibers over p = 5 at depth 3, plus a full
    # degree-10 certificate at each of p = 3, 5 and 7 under the default caps;
    # under 15 minutes
    assert CFG.bruin_fibers >= 10
    assert set(CFG.bruin_full_primes) >= {3, 5, 7}
    _check(criterion_bruin(CFG), 900)


def test_criterion_7_negative_controls():
    # corrupting F by +1 defeats verification on >= 95% of 100 instances,
    # and every validation-rejecting input is refused before counting
    assert CFG.negative_instances >= 100
    _check(criterion_negative_controls(CFG), 600)


def test_criterion_7_cli_exit_codes(tmp_path, monkeypatch):
    # the CLI face of the same criterion: rejecting inputs exit with code 3
    # and never reach a counting kernel
    import json

    import prymsplit.zeta as zeta_module
    from prymsplit import cli

    def tripwire(*a, **k):
        raise AssertionError("counting reached on rejected input")

    monkeypatch.setattr(zeta_module, "count_plane_quartic", tripwire)
    monkeypatch.setattr(zeta_module, "count_weighted", tripwire)
    monkeypatch.setattr(zeta_module, "count_bruin_cover", tripwire)
    rejecting = [
        {"p": 7, "f": [1, 0, 0], "g": [0, 0, 1], "h": [0, 1, 0]},  # fg square
        {"p": 7, "f": [0, 1, 0], "g": [1, 1, 1], "h": [0, 2, 0]},  # det A = 0
        {"p": 3, "f": [1, 0, 1], "g": [1, 0, 1], "h": [1, 0, 1]},  # s = 0
    ]
    for i, doc in enumerate(rejecting):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--input", str(path)]) == 3
    print("CRITERION 7b [PASS] rejecting inputs exit 3 without counting")


def test_criterion_8_oracle_invariants():
    # predicted_counts / lpoly_from_counts round trips, functional equations,
    # a_2g = q^g and Weil bounds on every computed instance
    _check(criterion_oracle_invariants(CFG), 600)

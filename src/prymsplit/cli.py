"""Command-line interface: validate, split, verify, bruin, disc-check, selftest.

Input documents are strict JSON: a curve is
{"p": 7, "k": 1, "f": [0,1,0], "g": [1,1,1], "h": [1,0,-1]} with coefficient
triples ordered (x^2, xz, z^2); drop "p" for a curve over the rationals, whose
entries may be "num/den" strings.  An integer is a JSON integer (not a
boolean) and a rational string is [+-]digits[/digits], nothing else.
Unknown keys are rejected by name.

Every report has one frame: main sets its header (schema, version, command,
seed), the command fills in the rest and returns its exit code and a
one-line text summary, and main emits the report once, as JSON or as the
summary, and to --out.

Exit codes: 0 success/pass, 2 verification failed, 3 rejected input (an
InputError or a usage error), 4 resource cap exceeded, 1 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import (
    DegenerateInputError,
    InputError,
    InvalidFieldError,
    PrymError,
    RejectedInputError,
    ResourceLimitError,
)
from .fields import QQ, ExtensionField, build_extension
from .poly import BinaryForm
from .prym import BiellipticQuartic, deform, require_valid, split, validate
from .resultants import GOLDEN_QUARTIC, GOLDEN_QUARTIC_DISC, disc_ternary_quartic
from .selftest import SelftestConfig, run_all
from .ternary import TernaryForm
from .zeta import (
    DEFAULT_AXIS_CAP,
    check_axis_cap,
    check_bruin_depth,
    reduce_curve,
    verify_bruin,
    verify_split,
    verify_split_rational,
)

SCHEMA = "prymsplit-report/1"

EXIT_PASS = 0
EXIT_INTERNAL = 1
EXIT_VERIFICATION_FAILED = 2
EXIT_REJECTED = 3
EXIT_RESOURCE = 4

_CURVE_KEYS = {"p", "k", "modulus", "f", "g", "h"}
_QUARTIC_KEYS = {"p", "k", "modulus", "quartic"}
# Fraction also takes decimals and exponents: "1e999999999" would build an
# integer of a billion digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class DocumentError(RejectedInputError):
    pass


def _is_int(value) -> bool:
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_field(doc: dict):
    """The document's field.  Every bad field exits 3, and an F_{p^k} above
    the default axis cap exits 4 before any of its tables is built."""
    if "p" not in doc:
        if "k" in doc or "modulus" in doc:
            raise DocumentError('keys "k"/"modulus" need "p"')
        return QQ
    p = doc["p"]
    if not _is_int(p):
        raise DocumentError('key "p" must be an integer')
    k = doc.get("k", 1)
    if not _is_int(k) or k < 1:
        raise DocumentError('key "k" must be a positive integer')
    modulus = doc.get("modulus")
    if "modulus" in doc:
        if k == 1:
            raise DocumentError('key "modulus" needs "k" > 1')
        if not (isinstance(modulus, list) and len(modulus) == k + 1
                and all(_is_int(c) for c in modulus)):
            raise DocumentError(f'key "modulus" must be a list of k + 1 = {k + 1} integers')
    try:
        base = build_extension(p)  # rejects a p that is not an odd prime; no tables
        if k == 1:
            return base
        check_axis_cap(p, k)
        if modulus is not None:
            return ExtensionField(p, k, modulus=modulus)
        return build_extension(p, k)
    except InvalidFieldError as exc:
        raise DocumentError(f"invalid field: {exc}") from exc


def _parse_element(field, value, where: str):
    if field.kind == "rationals":
        if _is_int(value):
            return Fraction(value)
        if isinstance(value, str) and _RATIONAL.fullmatch(value):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise DocumentError(f'bad rational "{value}" in {where}') from exc
        raise DocumentError(f"entries of {where} must be integers or num/den strings")
    if _is_int(value):
        return field.from_int(value)
    if isinstance(value, list) and field.k > 1:
        if len(value) > field.k or not all(_is_int(v) for v in value):
            raise DocumentError(f"coefficient vector in {where} needs <= k integers")
        return field.from_coeffs(value)
    raise DocumentError(f"entries of {where} must be integers")


def _element_obj(field, value):
    if field.kind == "rationals":
        return str(value)
    if field.k == 1:
        return value
    return list(field.coeffs(value))


def _check_document(doc, keys, what: str) -> None:
    """doc is a JSON object with no key outside keys; what names it in errors."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} document must be a JSON object")
    for key in doc:
        if key not in keys:
            raise DocumentError(f'unknown key "{key}" in {what} document')


def parse_curve_document(doc) -> BiellipticQuartic:
    _check_document(doc, _CURVE_KEYS, "curve")
    for key in ("f", "g", "h"):
        if key not in doc:
            raise DocumentError(f'missing key "{key}" in curve document')
        if not isinstance(doc[key], list) or len(doc[key]) != 3:
            raise DocumentError(f'key "{key}" must be a list of 3 coefficients')
    field = _parse_field(doc)
    forms = {}
    try:
        for key in ("f", "g", "h"):
            coeffs = [_parse_element(field, v, f'"{key}"') for v in doc[key]]
            forms[key] = BinaryForm(field, 2, coeffs)
        return BiellipticQuartic(field, forms["f"], forms["g"], forms["h"])
    except DegenerateInputError as exc:
        raise DocumentError(str(exc)) from exc


def parse_quartic_document(doc) -> TernaryForm:
    _check_document(doc, _QUARTIC_KEYS, "quartic")
    if "quartic" not in doc:
        raise DocumentError('missing key "quartic"')
    if not isinstance(doc["quartic"], list):
        raise DocumentError('key "quartic" must be a list of [i, j, k, coeff] entries')
    field = _parse_field(doc)
    coeffs = {}
    for entry in doc["quartic"]:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise DocumentError('entries of "quartic" must be [i, j, k, coeff]')
        i, j, k, value = entry
        if not all(_is_int(e) and e >= 0 for e in (i, j, k)) or i + j + k != 4:
            raise DocumentError(f"monomial ({i},{j},{k}) is not of degree 4")
        coeffs[(i, j, k)] = _parse_element(field, value, '"quartic"')
    form = TernaryForm(field, 4, coeffs)
    if form.is_zero():
        raise DocumentError("quartic document describes the zero form")
    return form


def _curve_doc(curve: BiellipticQuartic) -> dict:
    field = curve.field
    doc = {}
    if field.kind == "finite":
        doc["p"] = field.p
        if field.k > 1:
            doc["k"] = field.k
            doc["modulus"] = list(field.modulus)
    for key, form in (("f", curve.f), ("g", curve.g), ("h", curve.h)):
        doc[key] = _poly_obj(field, form)
    return doc


def _poly_obj(field, poly):
    """The coefficients of a UniPoly or a BinaryForm, in their stored order."""
    return [_element_obj(field, c) for c in poly.coeffs]


def _matrix_obj(field, matrix):
    return [[_element_obj(field, e) for e in row] for row in matrix.rows]


def _lpoly_obj(lp):
    return {"q": lp.q, "genus": lp.genus, "coeffs": list(lp.coeffs)}


def _count_obj(rec):
    return {"model": rec.model, "q": rec.q, "m": rec.m, "n": rec.n,
            "rows": rec.rows, "seconds": round(rec.seconds, 6)}


def _split_obj(curve, sr) -> dict:
    field = curve.field
    return {
        "A": _matrix_obj(field, sr.matrix),
        "det_A": _element_obj(field, sr.det),
        "A_inv": _matrix_obj(field, sr.inverse),
        "a": _poly_obj(field, sr.a),
        "b": _poly_obj(field, sr.b),
        "c": _poly_obj(field, sr.c),
        "F": _poly_obj(field, sr.sextic),
        "s": _poly_obj(field, sr.genus_one),
        "genus2_model": "y^2 = F(x) in P(1,3,1)",
        "genus1_model": "Y^2 = s(x,z) in P(1,2,1)",
    }


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


def _emit(report: dict, args, summary: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        tmp = args.out + ".tmp"
        opened = False
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                opened = True
                fh.write(text + "\n")
            os.replace(tmp, args.out)
        except OSError as exc:
            if opened:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
            raise DocumentError(f"cannot write {args.out}: {exc}") from exc
    if args.format == "json":
        print(text)
    else:
        print(summary)
        if args.out:
            print(f"report written to {args.out}")


def _load_input(args) -> dict:
    if not args.input:
        raise DocumentError("--input PATH is required for this command")
    if args.input.lstrip().startswith("{"):  # inline document
        try:
            return json.loads(args.input)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise DocumentError(f"malformed inline JSON: {exc}") from exc
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {args.input}: {exc}") from exc
    except ValueError as exc:  # after UnicodeDecodeError, itself a ValueError
        raise DocumentError(f"malformed JSON in {args.input}: {exc}") from exc


def _curve_from_args(args, report) -> BiellipticQuartic:
    """Parse the curve document, honoring a --p field override, and record
    the curve as the report's input."""
    curve = parse_curve_document(_load_input(args))
    if args.p is not None:
        if curve.field.kind == "rationals":
            curve = reduce_curve(curve, args.p)
        elif curve.field.p != args.p:
            raise DocumentError(
                f"--p {args.p} conflicts with the document's p = {curve.field.p}"
            )
    report["input"] = _curve_doc(curve)
    return curve


def _cmd_validate(args, report):
    curve = _curve_from_args(args, report)
    report_data = validate(curve)
    report["checks"] = {
        "det_nonzero": report_data.det_nonzero,
        "fg_squarefree": report_data.fg_squarefree,
        "branch_squarefree": report_data.branch_squarefree,
        "disc_cross_check": report_data.disc_cross_check,
    }
    report["det_A"] = _element_obj(curve.field, report_data.det)
    report["verdict"] = _verdict(report_data.passed)
    report["failures"] = report_data.failures
    summary = f"validate: {report['verdict']}"
    if report_data.failures:
        summary += f" ({'; '.join(report_data.failures)})"
    return EXIT_PASS if report_data.passed else EXIT_REJECTED, summary


def _cmd_split(args, report):
    curve = _curve_from_args(args, report)
    sr = split(curve, skip_validation=args.skip_validation)
    report["split"] = _split_obj(curve, sr)
    return EXIT_PASS, f"split: F = {sr.sextic!r}, genus-2 model y^2 = F in P(1,3,1)"


def _cmd_verify(args, report):
    curve = _curve_from_args(args, report)
    if curve.field.kind == "rationals":
        results = verify_split_rational(curve, axis_cap=args.cap_axis)
    else:
        results = [verify_split(curve, axis_cap=args.cap_axis)]
    subreports = []
    for res in results:
        subreports.append({
            "p": res.p,
            "verdict": _verdict(res.passed),
            "L_C": _lpoly_obj(res.l_curve),
            "L_D": _lpoly_obj(res.l_genus1),
            "L_X": _lpoly_obj(res.l_genus2),
            "L_D_times_L_X": _lpoly_obj(res.l_product),
            "counts": [_count_obj(r) for r in res.counts],
            "failure": res.failure,
            "split": _split_obj(res.split_result.curve, res.split_result),
        })
    passed = all(r.passed for r in results)
    report["verifications"] = subreports
    report["verdict"] = _verdict(passed)
    sizes = ", ".join(str(r.l_curve.q) for r in results)
    return (EXIT_PASS if passed else EXIT_VERIFICATION_FAILED,
            f"verify: {report['verdict']} (q = {sizes})")


def _cmd_bruin(args, report):
    check_bruin_depth(args.depth)
    curve = _curve_from_args(args, report)
    field = curve.field
    if field.kind != "finite":
        raise DocumentError("bruin verification needs a finite base field")
    if args.epsilon is None:
        eps = field.random_nonzero(random.Random(args.seed))
    else:
        eps = field.from_int(args.epsilon)
    require_valid(curve)
    cover = deform(curve, eps)
    result = verify_bruin(cover, depth=args.depth, axis_cap=args.cap_axis)
    report["epsilon"] = _element_obj(field, eps)
    report["depth"] = args.depth
    report["achieved_depth"] = result.achieved_depth
    report["full_certificate"] = result.full_certificate
    report["L_Z"] = _lpoly_obj(result.l_base)
    report["L_H"] = _lpoly_obj(result.l_hyper)
    report["predicted_cover_counts"] = list(result.predicted)
    report["actual_cover_counts"] = list(result.actual)
    report["counts"] = [_count_obj(r) for r in result.counts]
    report["verdict"] = _verdict(result.passed)
    report["failure"] = result.failure
    summary = f"bruin: {report['verdict']} at depth {result.achieved_depth}"
    if result.full_certificate:
        summary += " (full degree-10 certificate)"
    return EXIT_PASS if result.passed else EXIT_VERIFICATION_FAILED, summary


def _cmd_disc_check(args, report):
    if args.input:
        form = parse_quartic_document(_load_input(args))
        value = disc_ternary_quartic(form)
        report["input"] = {"quartic": [[*m, _element_obj(form.field, c)]
                                       for m, c in sorted(form.coeffs.items())]}
        report["discriminant"] = _element_obj(form.field, value)
        report["singular"] = value == form.field.zero
        report["verdict"] = "pass"
        return EXIT_PASS, f"disc-check: discriminant = {report['discriminant']}"
    # no input: the golden value must be exactly -2^40
    value = disc_ternary_quartic(GOLDEN_QUARTIC)
    expected = GOLDEN_QUARTIC_DISC
    report["input"] = {"quartic": "x1^4 - x2^4 + x3^4 (golden check)"}
    report["discriminant"] = str(value)
    report["expected"] = str(expected)
    ok = value == expected
    report["verdict"] = _verdict(ok)
    return (EXIT_PASS if ok else EXIT_VERIFICATION_FAILED,
            f"disc-check: {value} (expected {expected}) -> {report['verdict']}")


def _cmd_selftest(args, report):
    cfg = SelftestConfig(seed=args.seed) if args.full else SelftestConfig.quick(args.seed)
    t0 = time.perf_counter()
    printer = print if args.format == "text" else functools.partial(print, file=sys.stderr)
    results = run_all(cfg, printer)
    passed = all(r.passed for r in results)
    report["full"] = bool(args.full)
    report["criteria"] = [
        {"index": r.index, "name": r.name, "passed": r.passed,
         "detail": r.detail, "seconds": round(r.seconds, 3)}
        for r in results
    ]
    report["verdict"] = _verdict(passed)
    return (EXIT_PASS if passed else EXIT_VERIFICATION_FAILED,
            f"selftest: {report['verdict']} ({time.perf_counter() - t0:.1f}s)")


class _Parser(argparse.ArgumentParser):
    """Exits 3 (rejected input) on a usage error; argparse's own 2 means
    "verification failed" in this CLI's exit codes."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_REJECTED, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prymsplit",
        description="Split the Jacobian of a bielliptic plane quartic and "
                    "verify the decomposition by exact point counting.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def report_options(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for bruin's default epsilon and selftest's "
                            "draws (default %(default)s); no other result depends on it")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", help="write the JSON report to this path (atomic)")

    def input_option(p):
        p.add_argument("--input",
                       help="path to a JSON input document, or an inline JSON object")

    def curve_options(p):
        report_options(p)
        input_option(p)
        p.add_argument("--p", type=int, default=None,
                       help="field prime: reduces a rational document mod p, "
                            "or asserts the document's p")

    def cap_axis(p):
        p.add_argument("--cap-axis", type=int, default=DEFAULT_AXIS_CAP,
                       dest="cap_axis", help="largest counting field size")

    p_validate = sub.add_parser("validate", help="run the smoothness/invertibility checks")
    curve_options(p_validate)
    p_validate.set_defaults(fn=_cmd_validate)

    p_split = sub.add_parser("split", help="compute the genus-1 and genus-2 factors")
    curve_options(p_split)
    p_split.add_argument("--skip-validation", action="store_true",
                         help="formula-only mode for degenerate inputs")
    p_split.set_defaults(fn=_cmd_split)

    p_verify = sub.add_parser("verify", help="check L_C = L_D * L_X by point counting")
    curve_options(p_verify)
    cap_axis(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_bruin = sub.add_parser("bruin", help="verify the double-cover Prym identity "
                                           "on a deformation fiber")
    curve_options(p_bruin)
    cap_axis(p_bruin)
    p_bruin.add_argument("--epsilon", type=int, default=None,
                         help="deformation parameter (default: seeded random nonzero)")
    p_bruin.add_argument("--depth", type=int, default=3,
                         help="cover-count depth, 1..5 (5 = full certificate)")
    p_bruin.set_defaults(fn=_cmd_bruin)

    p_disc = sub.add_parser("disc-check", help="ternary quartic discriminant "
                                               "(golden -2^40 check without --input)")
    report_options(p_disc)
    input_option(p_disc)
    p_disc.set_defaults(fn=_cmd_disc_check)

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    report_options(p_self)
    p_self.add_argument("--full", action="store_true",
                        help="full-scale run (the pytest acceptance scale)")
    # the acceptance suite's seed, so that --full runs its exact checks
    p_self.set_defaults(fn=_cmd_selftest, seed=SelftestConfig.seed)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; every parse_args call starts from
    a fresh namespace, so nothing carries over between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    report = {"schema": SCHEMA, "version": __version__, "command": args.command,
              "seed": args.seed}
    try:
        code, summary = args.fn(args, report)
        _emit(report, args, summary)  # an unwritable --out exits 3 below
        return code
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InputError as exc:
        print(f"rejected input: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except PrymError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort mapping
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

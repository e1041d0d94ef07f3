"""The three seeded workloads: corpus generation, one op, its output check and
the deterministic part of its output, plus the split_max_p probe.

Every call into prymsplit goes through a module attribute at call time
(``zeta.verify_split``, ``prym.deform``, ...), so that the tracer's rebinding
of those attributes is seen.  Corpora come from the benchmark's own
``random.Random(seed)``; the package is used only to filter out curves that
fail validation, so a corpus depends on the seed and on mathematical facts,
not on how the package samples.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from prymsplit import cli, fields, prym, zeta
from prymsplit.errors import DegenerateInputError, RejectedInputError, ResourceLimitError

SPLIT_P = 23  # largest pool prime whose verify_split finishes under the default caps
BRUIN_P = 3  # only prime where a depth-5 certificate takes well under a second
BRUIN_EPS = 2  # eps = 1 deforms every curve onto the same target x^4 - y^4 + z^4
BRUIN_DEPTH = 5  # the full degree-10 certificate
RATIONAL_HEIGHT = 1000  # Fraction cost grows with coefficient height


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple  # (p, k) of every field an op touches; built cold in set-up
    corpus_size: int
    corpus: Callable  # (rng, size) -> list of op inputs
    op: Callable  # input -> output; the timed call
    check: Callable  # (input, output) -> bool
    outcome: Callable  # (input, output) -> JSON-able deterministic content


def warm(field_list) -> None:
    """Build each field the way the verifiers ask for it, and its chi/sqrt tables."""
    for p, k in field_list:
        field = fields.build_extension(p, k, 0)
        field.sqrt_table
        field.chi_table


def validated_curve(field, rng):
    """Uniform coefficient triples over F_p until one passes prym.validate."""
    p = field.p
    while True:
        f, g, h = ([rng.randrange(p) for _ in range(3)] for _ in range(3))
        try:
            curve = prym.BiellipticQuartic.from_ints(field, f, g, h)
        except DegenerateInputError:
            continue
        if prym.validate(curve).passed:
            return curve


def _lpoly(lp) -> list:
    return list(lp.coeffs)


# --- split-p23: L_C = L_D * L_X by exhaustive counts over F_23 ----------------

def _split_corpus(rng, size) -> list:
    field = fields.build_extension(SPLIT_P, 1, 0)
    return [validated_curve(field, rng) for _ in range(size)]


def _split_op(curve):
    return zeta.verify_split(curve)


def _split_check(curve, res) -> bool:
    return res.passed is True


def _split_outcome(curve, res) -> dict:
    return {
        "counts": sorted([r.m, r.n] for r in res.counts),
        "L_C": _lpoly(res.l_curve),
        "L_D": _lpoly(res.l_genus1),
        "L_X": _lpoly(res.l_genus2),
        "sextic": list(res.split_result.sextic.coeffs),
    }


# --- bruin-p3-full: validate + deform + depth-5 verify_bruin over F_3 ----------

def _bruin_corpus(rng, size) -> list:
    field = fields.build_extension(BRUIN_P, 1, 0)
    eps = field.from_int(BRUIN_EPS)
    out = []
    while len(out) < size:
        curve = validated_curve(field, rng)
        if prym.deform(curve, eps).verifiable:
            out.append(curve)
    return out


def _bruin_op(curve):
    """What `prymsplit bruin --epsilon 2 --depth 5` does, without the report."""
    report = prym.validate(curve)
    if not report.passed:
        raise RejectedInputError("curve fails validation", failures=report.failures)
    cover = prym.deform(curve, curve.field.from_int(BRUIN_EPS))
    return cover, zeta.verify_bruin(cover, depth=BRUIN_DEPTH)


def _bruin_check(curve, out) -> bool:
    _, res = out
    return res.passed is True and res.full_certificate is True


def _bruin_outcome(curve, out) -> dict:
    cover, res = out
    return {
        "counts": sorted([r.m, r.n] for r in res.counts),
        "L_Z": _lpoly(res.l_base),
        "L_H": _lpoly(res.l_hyper),
        "predicted": list(res.predicted),
        "actual": list(res.actual),
        "sextic": list(cover.sextic.coeffs),
    }


# --- rational-split: `prymsplit split --format json` over Q, in process -------

def _rational_entry(rng):
    """An integer or a "num/den" string, numerator and denominator of height ~10^3."""
    num = rng.randint(-RATIONAL_HEIGHT, RATIONAL_HEIGHT)
    if rng.random() < 0.5:
        return num
    return f"{num}/{rng.randint(1, RATIONAL_HEIGHT)}"


def _rational_corpus(rng, size) -> list:
    out = []
    while len(out) < size:
        doc = {key: [_rational_entry(rng) for _ in range(3)] for key in ("f", "g", "h")}
        try:
            curve = cli.parse_curve_document(doc)
        except RejectedInputError:
            continue
        if prym.validate(curve).passed:
            out.append((doc, json.dumps(doc)))
    return out


def _rational_op(item):
    _, text = item
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["split", "--input", text, "--format", "json"])
    return code, stdout.getvalue()


def _trim(poly: list) -> list:
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    return poly


def _pmul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _psub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _fractions(values) -> list:
    return [Fraction(v) for v in values]


def _rational_check(item, out) -> bool:
    """Exit 0, A = rows (f, h, g), A * A^-1 = I, a, b, c are the columns of
    A^-1 with doubled middle entries, F = b(b^2 - ac) and s = h^2 - 4fg."""
    doc, _ = item
    code, text = out
    if code != 0:
        return False
    sp = json.loads(text)["split"]
    f, g, h = (_fractions(doc[key]) for key in ("f", "g", "h"))
    a_mat = [_fractions(row) for row in sp["A"]]
    inv = [_fractions(row) for row in sp["A_inv"]]
    if a_mat != [f, h, g]:
        return False
    for i in range(3):
        for j in range(3):
            if sum(a_mat[i][k] * inv[k][j] for k in range(3)) != (1 if i == j else 0):
                return False
    a, b, c = (
        [inv[0][j], 2 * inv[1][j], inv[2][j]] for j in range(3)
    )
    if [_trim(_fractions(sp[key])) for key in ("a", "b", "c")] != [_trim(a), _trim(b), _trim(c)]:
        return False
    sextic = _pmul(b, _psub(_pmul(b, b), _pmul(a, c)))
    if _trim(_fractions(sp["F"])) != _trim(sextic):
        return False
    s = _psub(_pmul(h, h), [4 * v for v in _pmul(f, g)])
    return _trim(_fractions(sp["s"])) == _trim(s)


def _rational_outcome(item, out) -> dict:
    sp = json.loads(out[1])["split"]
    return {key: [str(v) for v in _trim(_fractions(sp[key]))] for key in ("a", "b", "c", "F", "s")}


SPLIT = Workload("split-p23", tuple((SPLIT_P, k) for k in (1, 2, 3)), 48,
                 _split_corpus, _split_op, _split_check, _split_outcome)
BRUIN = Workload("bruin-p3-full", tuple((BRUIN_P, k) for k in range(1, BRUIN_DEPTH + 1)), 64,
                 _bruin_corpus, _bruin_op, _bruin_check, _bruin_outcome)
RATIONAL = Workload("rational-split", (), 64,
                    _rational_corpus, _rational_op, _rational_check, _rational_outcome)
WORKLOADS = {w.name: w for w in (SPLIT, BRUIN, RATIONAL)}


def split_max_p(rng):
    """(largest pool prime at which verify_split passes under the default caps,
    whether every probed prime passed), probing upward until a cap refuses."""
    best = None
    for p in zeta._PRIME_POOL:
        curve = validated_curve(fields.build_extension(p, 1, 0), rng)
        try:
            res = zeta.verify_split(curve)
        except ResourceLimitError:
            break
        if not res.passed:
            return best, False
        best = p
    return best, True

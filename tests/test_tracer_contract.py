"""The benchmark's tracer binds counting.count_plane_quartic and
counting.count_bruin_cover by name in zeta and reads the counting field from
their positional arguments 1 and 3; a rename or a moved argument would only
show in the benchmark's traced run otherwise."""

import importlib.util
import random
from pathlib import Path

import prymsplit.counting as counting_module
import prymsplit.zeta as zeta_module
from prymsplit import build_extension, deform, random_validated_curve

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(run):
    """(run(), its spans), traced by the benchmark's tracer."""
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        result = run()
    finally:
        tracer.uninstall()
    return result, tracer.spans


def test_traced_verify_split_records_the_plane_quartic_fields():
    curve = random_validated_curve(build_extension(7), random.Random(1))
    result, spans = traced(lambda: zeta_module.verify_split(curve))
    assert result.passed
    infos = [span[5] for span in spans if span[0] == "counting.count_plane_quartic"]
    assert infos == [{"k": 1, "q": 7}, {"k": 2, "q": 49}, {"k": 3, "q": 343}]
    assert zeta_module.count_plane_quartic is counting_module.count_plane_quartic


def test_traced_verify_bruin_records_the_cover_fields():
    # the bruin-p3-full op: a cover over F_3 with eps = 2, to depth 5
    field, rng = build_extension(3), random.Random(1)
    cover = None
    while cover is None or not cover.verifiable:
        cover = deform(random_validated_curve(field, rng), field.from_int(2))
    result, spans = traced(lambda: zeta_module.verify_bruin(cover, depth=5))
    assert result.full_certificate
    infos = [span[5] for span in spans if span[0] == "counting.count_bruin_cover"]
    assert infos == [{"k": m, "q": 3**m} for m in range(1, 6)]
    assert zeta_module.count_bruin_cover is counting_module.count_bruin_cover

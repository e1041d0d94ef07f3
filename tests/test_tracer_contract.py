"""The benchmark's tracer binds counting.count_plane_quartic by name in zeta
and reads the counting field from its positional argument 1; a rename or a
moved argument would only show in the benchmark's traced run otherwise."""

import importlib.util
import random
from pathlib import Path

import prymsplit.counting as counting_module
import prymsplit.zeta as zeta_module
from prymsplit import build_extension, random_validated_curve

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_verify_split_records_the_plane_quartic_fields():
    curve = random_validated_curve(build_extension(7), random.Random(1))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert zeta_module.verify_split(curve).passed
    finally:
        tracer.uninstall()
    infos = [span[5] for span in tracer.spans if span[0] == "counting.count_plane_quartic"]
    assert infos == [{"k": 1, "q": 7}, {"k": 2, "q": 49}, {"k": 3, "q": 343}]
    assert zeta_module.count_plane_quartic is counting_module.count_plane_quartic

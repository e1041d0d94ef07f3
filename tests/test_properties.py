"""Property tests: counts on generated inputs against brute-force enumeration.

derandomize=True fixes the examples for a given hypothesis version, so a run
of the suite is deterministic, and database=None keeps it from writing
replay files.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from prymsplit import TernaryForm, build_extension, count_plane_quartic
from helpers import brute_plane_points

# every odd field up to F_27: (p, k)
ODD_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1),
              (23, 1), (5, 2), (3, 3)]


@st.composite
def even_quartics(draw):
    """A nonzero quartic with no odd power of y over a drawn odd field."""
    field = build_extension(*draw(st.sampled_from(ODD_FIELDS)))
    coeffs = {(i, j, 4 - i - j): draw(st.integers(0, field.q - 1))
              for j in (0, 2, 4) for i in range(5 - j)}
    if not any(coeffs.values()):
        coeffs[(0, 4, 0)] = 1
    return field, TernaryForm(field, 4, coeffs)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(even_quartics())
def test_even_quartic_count_matches_brute_force(case):
    field, form = case
    assert count_plane_quartic(form, field).n == brute_plane_points(form, field)

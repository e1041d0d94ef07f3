"""prymsplit: split the Jacobian of a bielliptic plane quartic.

Given y^4 - h(x,z) y^2 + f(x,z) g(x,z) = 0 over a field of odd or zero
characteristic, produce the genus-1 quotient Y^2 = h^2 - 4fg and the genus-2
curve y^2 = b(b^2 - ac) whose Jacobians multiply to the curve's own, and
verify the decomposition exactly over finite fields through zeta-function
factorization.
"""

from .counting import (
    CountRecord,
    count_bruin_cover,
    count_plane_quartic,
    count_weighted,
)
from .errors import (
    DegenerateInputError,
    InconsistentCountsError,
    InputError,
    InvalidFieldError,
    InvalidParameterError,
    ModelError,
    PrymError,
    RejectedInputError,
    ResourceLimitError,
    ResultantIndeterminateError,
    SingularMatrixError,
    UndefinedResultantError,
    UnsupportedFieldError,
)
from .fields import (
    QQ,
    ExtensionField,
    PrimeField,
    RationalField,
    build_extension,
)
from .linalg import Matrix3
from .poly import NEG_INF, BinaryForm, UniPoly, poly_gcd
from .prym import (
    BiellipticQuartic,
    BruinCover,
    SplitResult,
    ValidationReport,
    bruin_cover,
    deform,
    pencil_sextic,
    random_curve,
    random_validated_curve,
    singular_model,
    split,
    validate,
)
from .resultants import (
    QUARTIC_DISC_NORMALIZER,
    binary_disc_scale,
    disc_ternary_quartic,
    discriminant_binary,
    macaulay_resultant_cubics,
    quartic_disc_nonzero,
    resultant_forms,
)
from .ternary import TernaryForm, cover_quartic, quadric, quadric_coefficients
from .zeta import (
    BruinVerification,
    SplitVerification,
    WeilPolynomial,
    good_primes,
    lpoly_from_counts,
    predicted_counts,
    reduce_curve,
    verify_bruin,
    verify_split,
    verify_split_rational,
)

__version__ = "1.0.0"

"""curvecoh: exact cohomology of line bundles on desk-scale curves.

A curve is presented by its affine complement (a graded algebra of
sections regular away from a point at infinity, embedded into a Laurent
field) and the formal neighborhood of that point (a filtered Laurent
ring). Cohomology of the twisting sheaves O(n) is the limit/colimit of
the gluing square, computed by exact linear algebra over the rationals
or Gaussian rationals. On top of that sit the graded section ring, a
degree-zero extraction pipeline for two-periodic presentations, and the
Harbater ring of integer Laurent series with certified convergence.

All values are immutable and all arithmetic is exact; independent
computations can run concurrently without coordination. The built-in
curves are shared values whose caches only ever gain equal entries.
"""

from .cohomology import (
    CohomologyResult,
    compute,
    curve_from_parts,
    euler_characteristic,
    graded_pieces,
    h0,
    h1,
    p1_formal_embedding,
    twistor_formal_embedding,
)
from .errors import (
    ComputationError,
    CutoffTooSmall,
    DivisionByZero,
    EmbeddingNotRingMap,
    IndeterminateTop,
    NotAUnit,
    NotDivisible,
    NotInSpan,
    NotMemberError,
    NotSimpleRoot,
    NotStabilized,
    PoleAtPoint,
    PrecisionExhausted,
    RadiusNotCertified,
    ResultTooLarge,
    ZeroBott,
    ZeroInverse,
)
from .harbater import (
    CertifiedSeries,
    RadiusCertificate,
    RationalFn,
    divide_exact,
    evaluate,
    kernel_generator,
    local_completion,
    membership,
    radius_lower_bound,
)
from .periodic import (
    FilteredRingModel,
    TwoPeriodicPresentation,
    hfp_degree_zero,
    nygaard_fil,
    pipeline_trace,
    rebase_round_trip,
    tate_degree_zero,
    trivial_action_model,
)
from .presentation import (
    AffinePresentation,
    load_presentation,
    p1_presentation,
    twistor_presentation,
)
from .scalars import (
    FieldPair,
    GAUSSIAN_I,
    GAUSSIAN_ONE,
    GAUSSIAN_PAIR,
    GaussianRational,
    PAdic,
    REAL_IN_GAUSSIAN,
    TruncatedPowerSeries,
    gaussian_tps,
    parse_gaussian,
    rational_tps,
    theta,
)
from .section_ring import (
    SectionRing,
    build_section_ring,
    degree_one_generation,
    hilbert_function,
)
from .series import (
    LaurentWindow,
    MINUS_INFINITY,
    fil_member,
    gaussian_window,
    pole_order,
)

__version__ = "0.1.0"

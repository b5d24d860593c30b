"""koszulkit: exact commutative algebra for quadratic algebras.

Groebner bases and ideal arithmetic, graded minimal free resolutions and
Betti tables, Hilbert series, quotient-ring resolutions and Koszulness
tests, and the structure classifier for ideals generated by four quadrics.
"""

from .field import GF, QQ, Field, FieldError, field_by_name
from .ring import (
    DEGLEX,
    DEGREVLEX,
    LinearChange,
    MonomialOrder,
    Polynomial,
    RingContext,
    elimination_order,
)
from .parse import parse_ideal_file, parse_poly, parse_polys, parse_ring
from .groebner import (
    GroebnerBasis,
    GroebnerError,
    Ideal,
    buchberger,
    colon,
    eliminate,
    g_quadratic_search,
    ideal_equal,
    intersect,
    is_quadratic_gb,
    is_subideal,
    minimal_quadric_generators,
    normal_form,
    verify_basis,
)
from .hilbert import HilbertData, hilbert_from_monomials, hilbert_of_quotient, is_regular_sequence_mod
from .modules import FreeModule, PolyMatrix, syzygy_matrix
from .resolution import (
    BettiTable,
    FreeComplex,
    ann_ext,
    buchsbaum_eisenbud_check,
    lift_chain_map,
    mapping_cone,
    minimal_resolution,
    minimalize_complex,
    shift_complex,
)
from .quotient import (
    QuotientRing,
    TruncatedResolution,
    first_syzygy_criterion,
    froberg_consistency,
    is_koszul_up_to,
    resolve_over_quotient,
)
from .classify import (
    ClassificationError,
    ClassificationReport,
    classify,
    find_generalized_zero,
    lg_quadratic_certificate,
    linear_syzygy_matrix,
    match_form_2iv,
)
from .forms import FORMS, KNOWN_HEIGHT2_TABLES, generate_ideal
from .appendix import make_instance, run_battery, run_characteristic

__version__ = "0.1.0"

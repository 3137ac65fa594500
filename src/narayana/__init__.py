"""Exact arithmetic for Narayana polynomials, Catalan numbers, and the
identities connecting them to Legendre polynomials, with combinatorial
certificates via weighted lattice paths and plane trees."""

from .exact_core import (
    IndeterminateMismatchError,
    PolySeries,
    QPolynomial,
    SeriesPreconditionError,
    binomial,
    finite_difference_check,
)
from .sequences import (
    assoc_narayana_poly,
    catalan,
    catalan_half,
    fibonacci,
    legendre_poly,
    lucas,
    narayana_number,
    narayana_poly,
    pell,
    recurrence_seq,
)
from .identities import (
    IDENTITY_TAGS,
    CheckResult,
    binomial_inverse,
    catalan_parity_scan,
    check_identity,
    f_poly,
    identity_min_n,
    integral_representation_check,
    left_inversion,
    left_inversion_forward,
    legendre_inverse,
    lemma_difference_argument,
)
from .series import (
    catalan_series,
    lagrange_coefficient_check,
    legendre_gf_check,
    omega_closed_form_check,
    omega_composition_check,
    omega_series,
)
from .combinat import (
    DecoratedDyckElement,
    EnumerationCapError,
    FixedElementError,
    InvolutionReport,
    WeightedDyckPath,
    dbar_involution_check,
    enumerate_dyck,
    enumerate_family_D,
    enumerate_family_P,
    enumerate_family_Q,
    family_D_weight,
    family_P_weight,
    family_Q_weight,
    fixed_set_P,
    fixed_set_Q,
    flatten,
    involution_verify,
    path_weight,
    phi,
    psi,
    serialize_path,
    serialize_tree,
    tree_weight,
)

__version__ = "0.1.0"

"""Exact-arithmetic toolkit for cells of totally nonnegative unipotent
matrices: Bruhat combinatorics, rational Gaussian (LDU) calculus, cell
parametrization and identification, fiber projections, a gradient-like
fiber flow, link sampling, and a link retraction — all at desk scale.
"""

from .cells import CellPoint, cell_of, is_tnn, lusztig_point
from .errors import (
    CellMismatch,
    FlowError,
    InternalInvariantError,
    InvalidArgument,
    MaxStepsExceeded,
    NonPositiveParameter,
    NonPositiveTau,
    NotComparable,
    NotInG0,
    NotInG0u,
    NotUnipotentUpper,
    PreconditionError,
    RankTooLarge,
    Singular,
    StepUnderflow,
    StratumEscape,
    TnnStrataError,
    UndecidableRank,
    ZNotInYgeqV,
)
from .fiber import FiberFrame, conj_d, factor_u, pi_u, recover_shift, rho
from .flow import (
    FiberIntegrator,
    FlowState,
    LinkCensus,
    LinkSample,
    SignReport,
    cell_of_float,
    conj_d_float,
    default_base,
    flow,
    link_census,
    link_point,
    link_sample,
    pi_n,
    psi,
    random_cell_point,
    retraction,
    sign_lemma_check,
    str_of,
)
from .perms import (
    BruhatInterval,
    Permutation,
    ReducedWord,
    all_permutations,
    all_reduced_words,
    bruhat_leq,
    bruhat_less,
    interval,
    mobius,
    reduced_word,
    word_product,
)
from .ratmat import (
    RatMatrix,
    all_minors_nonnegative,
    conj_by_perm,
    det,
    gauss_decompose,
    gauss_minus,
    gauss_plus,
    is_in_G0,
    is_in_G0_u,
    is_in_N,
    minor,
    perm_matrix,
    rank,
)
from .verify import RunConfig, VerificationReport, run_suite

__version__ = "0.1.0"

"""Finite-depth dyadic product-space toolkit.

Haar analysis on [0,1)^2, product paraproducts, exact product BMO / LMO
norms via ratio maximisation, dyadic-shift iterated commutators, and the
Monte-Carlo averaged-shift realisation of the Hilbert transform.
"""

from .core import (
    DyadicInterval,
    DyadicRect,
    GenerationIndex,
    GridFunction2D,
    HaarSpectrum2D,
    PrefixTable,
    ProjectionSelector,
    apply_projection,
    haar_forward_2d,
    haar_inverse_2d,
    rect_mean,
    square_function,
)
from .paraproducts import (
    DELTA,
    PI,
    PI_01,
    PI_10,
    NinePartTag,
    Signature,
    nine_part_apply,
    nine_part_sum,
    paraproduct,
    sigma1_k,
    sigma_k,
)
from .linop import DenseOperator, assemble, commutator, operator_norm
from .norms import (
    bmo_d_norm_sq,
    bmo_d_norm_sq_bruteforce,
    bmo_rect_norm_sq,
    extremal_bmo_function,
    h1_norm,
    lmo_beta_char_norm,
    lmo_char_norm,
    lmo_d_norm,
    lmo_directional_norm,
)
from .shifts import (
    AmbientEmbedding,
    commutator_part_norm_report,
    iterated_commutator_apply,
    rr_commutator_on_basis,
    shift_apply,
)
from .hilbert import (
    RandomDyadicGrid,
    StepFunction1D,
    analytic_hilbert_step,
    grid_shift_apply,
    mc_hilbert,
    sample_grid,
    sampled_continuous_bmo,
)

__version__ = "0.1.0"

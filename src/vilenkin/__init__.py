"""Numerical harmonic analysis on bounded Vilenkin groups.

Exact group arithmetic at a fixed truncation level, Vilenkin characters and
Dirichlet kernels, a fast mixed-radix transform, negative-order Cesaro means
of quadratic partial sums, dyadic moduli of continuity, and a verification
harness that evaluates both sides of the library's target inequalities as
exact finite sums.
"""

from .errors import InvalidElementError, ResolutionExceededError
from .group import (
    GroupContext,
    GroupElement,
    IndexExpansion,
    add,
    cell_enumerate,
    cell_id,
    in_interval,
    index_compose,
    index_expand,
    negate,
    norm_map,
    sub,
)
from .kernels import (
    cesaro_numbers,
    character_table,
    dirichlet,
    dirichlet_table,
    psi,
    psi_values,
    rademacher,
)
from .transform import (
    SampledFunction1D,
    SampledFunction2D,
    SpectralGrid1D,
    SpectralGrid2D,
    fvt_forward,
    fvt_forward_2d,
    fvt_inverse,
    fvt_inverse_2d,
    marginal_partial_sum,
    partial_sum_rect,
)
from .approx import (
    ModulusReport,
    cesaro_mean,
    cesaro_weights,
    lp_norm,
    modulus,
)
from .verify import (
    FunctionFamily,
    RatioReport,
    TailDecomposition,
    eq23_report,
    lemma1_report,
    lemma4_report,
    lemma5_report,
    tail_decompose,
    theorem_reports,
)

__version__ = "0.1.0"

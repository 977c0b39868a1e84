"""Spectral solver and ellipticity toolkit for fully nonlinear second-order elliptic systems.

Solves F(., D^2 u) = f on a periodic grid: the constant-coefficient linear
anchor by frequency-wise symbol inversion, the nonlinear system by
near-operator contraction under a sampled ellipticity certificate, and
perturbed systems by an outer nearness iteration.  Counterexample analyses
and manufactured-solution harnesses make the underlying estimates executable.
"""

from .campanato import (
    IterationTrace,
    SolveConfig,
    campanato_solve,
    uniqueness_constant,
    verify_comparison,
)
from .certify import (
    EllipticityCertificate,
    SamplerConfig,
    def1_from_def2,
    def2_from_def1,
    example1_alpha,
    example1_certificate,
    fit_k_condition,
    lemma1_check,
    verify_k_condition,
)
from .counterexamples import example2_analysis, example3_analysis
from .errors import (
    DegenerateSymbolError,
    DivergenceError,
    EstimateBreachError,
    EvaluationError,
    InputError,
    NearEllipticError,
    NearnessConditionError,
)
from .fields import (
    GridSpec,
    HessianPairs,
    NormReport,
    VectorField,
    l2_norm,
    random_band_limited,
    spectral_hessian,
    w22star_norms,
)
from .linear import (
    LinearSolveResult,
    apply_operator,
    hessian_estimate_check,
    solve_linear,
)
from .nonlinearity import (
    CustomPerturbation,
    NonlinearitySpec,
    NormComboPerturbation,
    SinePerturbation,
    evaluate_F,
    evaluate_field,
)
from .stability import (
    NuFGEstimate,
    StabilityReport,
    nu_F_lower_bound,
    nu_FG_estimate,
    solve_via_nearness,
)
from .tensors import (
    EllipticityConstant,
    SymTensor4,
    SymbolMatrix,
    bilinear_form,
    contract_hessian,
    ellipticity_constant,
    example2_tensor,
    hermitian_form,
    identity_tensor,
    random_rank_one_positive,
    symbol_inverse,
    symbol_matrix,
)

__version__ = "0.1.0"

"""Exact computations in projective modules over two-dimensional
noncommutative tori.

The package implements, in closed form over polynomial-Gaussian vectors:
the torus algebra and its derivations (:mod:`nctorus.algebra`), the basic
modules with their commuting endomorphism actions, a left module being
the module at the opposite angle (:mod:`nctorus.modules`),
constant-curvature connections and their holomorphic Gaussian vectors
(:mod:`nctorus.connections`), certified
theta-series evaluation (:mod:`nctorus.theta`), and the bilinear tensor
product of a right and a left module together with its theta-series
closed form and structure constants (:mod:`nctorus.tensor`).  The
:mod:`nctorus.cli` module exposes everything as the ``nctorus`` command.
"""

from .algebra import (
    TorusElement,
    bezout,
    derivation,
    element,
    involution,
    monomial,
    mul,
    trace,
    unit,
)
from .connections import (
    ComplexStructure,
    curvature_constant,
    dbar_residual,
    holomorphic_basis,
    leibniz_defect,
    nabla1,
    nabla2,
)
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidS,
    InvalidSigma,
    NCTorusError,
    NoHolomorphicVectors,
    NonConvergent,
    NonFiniteParameter,
    NotCoprime,
    SeriesOverflow,
    SignAssumptionViolated,
    TableTooLarge,
)
from .gaussians import (
    PolyGaussTerm,
    PolyGaussVector,
    evaluate,
    gaussian,
    vector,
    zero,
)
from .modules import (
    ModuleTag,
    act_element,
    act_U1,
    act_U2,
    act_Z1,
    act_Z2,
    module_tag,
)
from .tensor import (
    DirectSeries,
    ProductClosedForm,
    ProductParams,
    StructureConstants,
    crt_q0,
    holomorphic_factors,
    product_basis,
    product_params,
    structure_constants,
    tensor_direct,
    tensor_gaussian_closed,
    verify_identities,
)
from .theta import theta, theta_truncated, truncation_radius

__version__ = "0.1.0"

__all__ = [
    "ComplexStructure",
    "DegenerateDenominator",
    "DimensionMismatch",
    "DirectSeries",
    "IndexOutOfRange",
    "InvalidS",
    "InvalidSigma",
    "ModuleTag",
    "NCTorusError",
    "NoHolomorphicVectors",
    "NonConvergent",
    "NonFiniteParameter",
    "NotCoprime",
    "PolyGaussTerm",
    "PolyGaussVector",
    "ProductClosedForm",
    "ProductParams",
    "SeriesOverflow",
    "SignAssumptionViolated",
    "StructureConstants",
    "TableTooLarge",
    "TorusElement",
    "act_U1",
    "act_U2",
    "act_Z1",
    "act_Z2",
    "act_element",
    "bezout",
    "crt_q0",
    "curvature_constant",
    "dbar_residual",
    "derivation",
    "element",
    "evaluate",
    "gaussian",
    "holomorphic_basis",
    "holomorphic_factors",
    "involution",
    "leibniz_defect",
    "module_tag",
    "monomial",
    "mul",
    "nabla1",
    "nabla2",
    "product_basis",
    "product_params",
    "structure_constants",
    "tensor_direct",
    "tensor_gaussian_closed",
    "theta",
    "theta_truncated",
    "trace",
    "truncation_radius",
    "unit",
    "vector",
    "verify_identities",
    "zero",
]

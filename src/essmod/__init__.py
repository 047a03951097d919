"""essmod: essentiality deciders and witness constructions for right
ideals, Hilbert-module submodules, and continuous fields of Hilbert spaces.
"""

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    RightIdeal,
    closed_subideal,
    ideal_support_projection,
    is_essential_right_ideal,
)
from .fields import (
    FieldAnalysis,
    FieldModuleSpec,
    FieldPiece,
    SubspaceField,
    analyze_field,
    commutative_limit_identity,
    essential_witness,
    inductive_witness_section,
    is_essential_field,
    non_essential_witness,
    residual_set,
)
from .modules import (
    ModuleElement,
    Submodule,
    ideal_of_submodule,
    inner_product,
    is_essential_submodule,
    reformulation_probe,
    submodule_of_ideal,
    theta,
)
from .sections import PiecewiseSection, bump, pointwise_inner, unit_bump
from .subsets import Interval, SymbolicSubset

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraShape",
    "FieldAnalysis",
    "FieldModuleSpec",
    "FieldPiece",
    "Interval",
    "ModuleElement",
    "PiecewiseSection",
    "RightIdeal",
    "Submodule",
    "SubspaceField",
    "SymbolicSubset",
    "analyze_field",
    "bump",
    "closed_subideal",
    "commutative_limit_identity",
    "essential_witness",
    "ideal_of_submodule",
    "ideal_support_projection",
    "inductive_witness_section",
    "inner_product",
    "is_essential_field",
    "is_essential_right_ideal",
    "is_essential_submodule",
    "non_essential_witness",
    "pointwise_inner",
    "reformulation_probe",
    "residual_set",
    "submodule_of_ideal",
    "theta",
    "unit_bump",
]

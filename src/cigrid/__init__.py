"""Exact determinantal ideals of conditional-independence models and
hypergraphs, their matroids, and sampling-based verification at desk scale."""

from .cimodel import CIStatement, DiscreteModel, ModelVar, ProbTensor, ci_ideal, flatten
from .hypergraph import GridSpec, Hypergraph, grid_hypergraph, grid_matrix, hypergraph_ideal, in_variety
from .ideals import BudgetExceeded, Ideal, buchberger, eliminate, intersect, normal_form
from .matroid import (
    PolyMap,
    algebraic_matroid,
    arrangement_signature,
    is_circuit_family,
    matroid_from_matrix,
    realize_grid_matroid,
)
from .poly import DEGREVLEX, LEX, MonomialOrder, PolyRing, Polynomial, Var, generic_matrix, minor
from .report import WitnessReport
from .sampling import GenericityError
from .secrig import Framework, rigidity_matrix, secant_dimension

__version__ = "0.1.0"

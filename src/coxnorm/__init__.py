"""coxnorm: exact finite Coxeter groups and parabolic normalizer decompositions.

Build a root system with ``build_root_system("E7")``, list its shapes with
``shapes(rs)``, and compute the structured normalizer decomposition
N = (P x Q) : ((A x B) : C) of any parabolic with ``decompose(rs, shape)``.
"""

from .labels import CoxeterLabel, parse_label
from .rootsys import build_root_system, inner_product, reflection_in_root
from .groups import GroupElement, generate, identity, relative_length
from .parabolic import (ReflectionSubgroup, Shape, fixed_space,
                        parabolic_closure, pointwise_stabilizer, shape_catalog,
                        shape_of, shapes, standard_parabolic)
from .galois import (orthogonal_closure, orthogonal_complement,
                     parabolic_concepts, shape_closure_graph)
from .normalizer import (Decomposition, decompose, goursat_sections,
                         howlett_complement, normalizer, verify_theorem13)
from .involutions import (fixed_parabolic, involution_class_representatives,
                          mark_involution_shapes, section8_checks)

__all__ = [
    "CoxeterLabel", "parse_label", "build_root_system", "inner_product",
    "reflection_in_root", "GroupElement", "generate", "identity",
    "relative_length",
    "ReflectionSubgroup", "Shape", "fixed_space",
    "parabolic_closure", "pointwise_stabilizer", "shape_catalog", "shape_of",
    "shapes", "standard_parabolic", "orthogonal_closure",
    "orthogonal_complement", "parabolic_concepts", "shape_closure_graph",
    "Decomposition", "decompose", "goursat_sections", "howlett_complement",
    "normalizer", "verify_theorem13", "fixed_parabolic",
    "involution_class_representatives", "mark_involution_shapes",
    "section8_checks",
]

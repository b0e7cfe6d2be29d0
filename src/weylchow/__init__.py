"""weylchow: exact Schubert calculus and discrete splitting invariants.

Modules:
  rootdata  - Cartan/root/weight data in Bourbaki numbering
  weyl      - Weyl group elements, coset tables, Hasse diagrams
  schubert  - Chow rings of G/P in the Schubert basis
  steenrod  - mod-2 Steenrod operations via Bott-Samelson resolutions
  motive    - motivic decompositions and correspondence arithmetic
  titsjinv  - Tits indices, automata, Kac data and J-invariant identities
  cli       - batch command line over everything
"""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    InternalComputationError,
    ResourceLimitError,
    UsageError,
    WeylchowError,
)
from .rootdata import DynkinType, RootSystem, build_root_system, root_subsystem, weyl_degrees
from .weyl import CosetTable, WeylElement, coset_reps, hasse_diagram, longest_element
from .schubert import (
    ChowClass,
    char_map,
    chern_tangent,
    divided_difference,
    dual,
    duality_product,
    invariant_generators,
    multiply,
    pieri_multiply,
    poincare_polynomial,
    preimage,
    pullback_to_flags,
)
from .polynomial import Polynomial
from .steenrod import BottSamelsonRing, bs_pushforward, steenrod_on_bs, steenrod_total
from .motive import (
    Correspondence,
    compose,
    decompose,
    idempotent_power,
    projector_rank,
    refine_rost,
    singleton_components,
)
from .titsjinv import (
    Automaton,
    HigherIndexSet,
    JProfile,
    KacEntry,
    TitsIndex,
    anisotropic_kernel,
    automaton,
    deglex_leq,
    forced_zero_indices,
    height,
    higher_index_table,
    is_generically_split,
    kac_entry,
    predicted_rational_poincare,
    profile_factor,
)

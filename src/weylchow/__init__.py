"""weylchow: exact Schubert calculus and discrete splitting invariants.

Modules:
  rootdata   - Cartan/root/weight data in Bourbaki numbering
  weyl       - Weyl group elements, coset tables, Bruhat order
  schubert   - Chow rings of G/P in the Schubert basis
  polynomial - polynomials in the fundamental weights, invariant generators
  steenrod   - mod-2 Steenrod operations (Bott-Samelson resolutions, fixed points)
  motive     - motivic decompositions and correspondence arithmetic
  titsjinv   - Tits indices, automata, Kac data and J-invariant identities
  cli        - batch command line over everything

`import weylchow` loads only the error classes.  Every other public name
below is resolved on first access (PEP 562) from the module that defines
it, so a process, such as one CLI subcommand, imports only what it uses.
"""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    InternalComputationError,
    ResourceLimitError,
    UsageError,
    WeylchowError,
)

#: public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("rootdata", ("DynkinType", "RootSystem", "build_root_system", "root_subsystem",
                      "weyl_degrees")),
        ("weyl", ("CosetTable", "WeylElement", "coset_reps", "hasse_edges",
                  "longest_element", "poincare_polynomial")),
        ("schubert", ("ChowClass", "chern_tangent", "dual", "duality_product",
                      "invariant_generators", "multiply", "pullback_to_flags")),
        ("polynomial", ("Polynomial",)),
        ("steenrod", ("BottSamelsonRing", "bs_pushforward", "steenrod_total")),
        ("motive", ("Correspondence", "compose", "decompose", "idempotent_power",
                    "projector_rank", "refine_rost", "singleton_components")),
        ("titsjinv", ("Automaton", "HigherIndexSet", "JProfile", "KacEntry", "TitsIndex",
                      "anisotropic_kernel", "automaton", "deglex_leq", "forced_zero_indices",
                      "height", "higher_index_table", "is_generically_split", "kac_entry",
                      "predicted_rational_poincare", "profile_factor")),
    )
    for name in names
}

__all__ = [
    "CalibrationError",
    "InternalComputationError",
    "ResourceLimitError",
    "UsageError",
    "WeylchowError",
    *_EXPORTS,
]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

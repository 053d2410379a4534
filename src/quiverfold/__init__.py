"""Folding quivers with admissible automorphisms into symmetrisable Cartan
data, and exhaustive desk-scale verification of the dimension-vector
counting theorems over small finite fields.

Importing the package loads none of its submodules.  Every re-exported name
is resolved on first access through the module ``__getattr__`` below, so a
submodule (and numpy, which only ``catalog`` needs) loads with its first use.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the names it defines that the package re-exports
_EXPORTED_BY = {
    "errors": """
        BadParameter BudgetExceeded CharacteristicWarning CrossCheckFailed
        DanglingEndpoint DegreeTooLarge DuplicateId EndRingTooLarge
        FieldMismatch HomSpaceTooLarge Incompatible LatticeMismatch NoNullRoot
        NotAdmissible NotFixed NotPermutation NotPrime NotSink
        NotSource NotSubfield NotUnfoldable OrbitPartitionBroken
        QuiverFoldError SpaceMismatch TwistPeriodBroken UnknownVertex
        VertexLoop ZeroVector
    """,
    "quiver": """
        Arrow Automorphism Quiver act_on_dimension_vector
        validate_automorphism validate_quiver
    """,
    "cartan": """
        CartanLattice FoldData ValuedEdge ValuedQuiver bilinear_gamma
        bilinear_q euler_form f_inverse f_map fold make_valued_quiver
        quiver_lattice root_length sigma
    """,
    "roots": """
        Classification RootRecord RootSet SigmaImageReport apply_reflections
        classify defect folded_lattice h_map null_root positive_roots_up_to
        reflect s_fold sigma_root_image
    """,
    "skew": "ArrowOrigin DoubleSkewReport SkewQuiver double_skew_check skew unfold",
    "gf": """
        Embedding FiniteField field_from_spec frobenius make_field
        parse_field_spec solve_univariate subfield_embedding
    """,
    "reps": """
        HomBasis Representation decompose direct_sum direct_sum_list end_ring
        ext_dim hom_space ii_orbit_sum is_indecomposable is_isomorphic
        make_representation reflection_functor s_fold_functor
        simple_representation twist_auto twist_frobenius zero_representation
    """,
    "fixtures": """
        build_a3_flip build_counterexample build_dtilde4 regular_simple
        tube_parameter_action tube_rep
    """,
    "serialize": """
        catalog_to_dict fold_to_dict json_dumps quiver_from_dict
        quiver_to_dict rep_from_dict rep_to_dict skew_to_dict valued_from_dict
        valued_to_dict
    """,
    "catalog": """
        IsoClassCatalog StateSpace auto_period clear_catalog_store
        frobenius_period indecomposable_classes isoclasses twist_annotations
    """,
    "theorems": """
        DimensionRecord IIClass TheoremReport ii_classes multiset_crosscheck
        species_count verify_kac verify_main_theorem verify_species_theorem
    """,
}
# re-exported name -> submodule that defines it
_EXPORTS = {
    name: module for module, names in _EXPORTED_BY.items() for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTED_BY)


def __getattr__(name: str):
    # a re-exported name wins over a submodule of the same name (``skew``)
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value  # bound, so later reads skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})


class _Package(types.ModuleType):
    """The package module.  Importing a submodule binds it on its package;
    where a re-exported name is spelt the same (``quiverfold.skew``), that
    binding is dropped, so the name keeps resolving to the function."""

    def __setattr__(self, name: str, value) -> None:
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

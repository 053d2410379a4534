"""Folding quivers with admissible automorphisms into symmetrisable Cartan
data, and exhaustive desk-scale verification of the dimension-vector
counting theorems over small finite fields.

The names re-exported from ``catalog`` and ``theorems`` are resolved on
first access, so importing the package does not load numpy; it is loaded
with the first catalog.
"""

import importlib

from .errors import (
    BadParameter,
    BudgetExceeded,
    CharacteristicWarning,
    CrossCheckFailed,
    DanglingEndpoint,
    DegreeTooLarge,
    DuplicateId,
    EndRingTooLarge,
    FieldMismatch,
    HomSpaceTooLarge,
    Incompatible,
    LatticeMismatch,
    NoNullRoot,
    NotAdmissible,
    NotFixed,
    NotPermutation,
    NotPrime,
    NotSink,
    NotSource,
    NotSubfield,
    NotUnfoldable,
    OrbitPartitionBroken,
    QuiverFoldError,
    SpaceMismatch,
    TwistPeriodBroken,
    UnknownVertex,
    VertexLoop,
    ZeroVector,
)
from .quiver import (
    Arrow,
    Automorphism,
    OrbitStructure,
    Quiver,
    act_on_dimension_vector,
    orbit_structure,
    validate_automorphism,
    validate_quiver,
)
from .cartan import (
    FoldData,
    SymmetricGCM,
    ValuedEdge,
    ValuedQuiver,
    bilinear_gamma,
    bilinear_q,
    euler_form,
    f_inverse,
    f_map,
    fold,
    make_valued_quiver,
    root_length,
    sigma,
    symmetric_gcm,
)
from .roots import (
    CartanLattice,
    Classification,
    RootRecord,
    RootSet,
    SigmaImageReport,
    apply_reflections,
    classify,
    defect,
    folded_lattice,
    h_map,
    null_root,
    positive_roots_up_to,
    quiver_lattice,
    reflect,
    s_fold,
    sigma_root_image,
)
from .skew import (
    ArrowOrigin,
    DoubleSkewReport,
    SkewQuiver,
    double_skew_check,
    skew,
    unfold,
)
from .gf import (
    Embedding,
    FiniteField,
    field_from_spec,
    frobenius,
    make_field,
    parse_field_spec,
    solve_univariate,
    subfield_embedding,
)
from .reps import (
    HomBasis,
    Representation,
    decompose,
    direct_sum,
    direct_sum_list,
    end_ring,
    ext_dim,
    hom_space,
    ii_orbit_sum,
    is_indecomposable,
    is_isomorphic,
    make_representation,
    reflection_functor,
    s_fold_functor,
    simple_representation,
    twist_auto,
    twist_frobenius,
    zero_representation,
)
from .fixtures import (
    build_a3_flip,
    build_counterexample,
    build_dtilde4,
    regular_simple,
    tube_parameter_action,
    tube_rep,
)
from .serialize import (
    catalog_to_dict,
    fold_to_dict,
    json_dumps,
    quiver_from_dict,
    quiver_to_dict,
    rep_from_dict,
    rep_to_dict,
    skew_to_dict,
    valued_from_dict,
    valued_to_dict,
)

__version__ = "0.1.0"

# name -> submodule that defines it, for the names that need numpy
_LAZY = {
    **dict.fromkeys(
        (
            "IsoClassCatalog",
            "StateSpace",
            "auto_period",
            "clear_catalog_store",
            "frobenius_period",
            "indecomposable_classes",
            "isoclasses",
            "twist_annotations",
        ),
        "catalog",
    ),
    **dict.fromkeys(
        (
            "DimensionRecord",
            "IIClass",
            "TheoremReport",
            "ii_classes",
            "multiset_crosscheck",
            "species_count",
            "verify_kac",
            "verify_main_theorem",
            "verify_species_theorem",
        ),
        "theorems",
    ),
}


def __getattr__(name: str):
    if name in _LAZY.values():  # qf.catalog and qf.theorems themselves
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})

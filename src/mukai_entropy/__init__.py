"""Exact Mukai-lattice arithmetic for autoequivalence dynamics on K3 surfaces.

The package computes the numerical shadow of derived-category dynamics:
integer quadratic-form arithmetic on the algebraic Mukai lattice, the
isometries induced by spherical twists and line-bundle tensors, exact
characteristic polynomials with certified spectral radii, categorical
entropy curves of spherical twists, and the entropy-versus-radius gap of
the twist-tensor family, together with an orthogonal-class search.

Names resolve on first use: `import mukai_entropy` loads no submodule, and
the first access to a public name, or to a submodule such as
`mukai_entropy.spectral`, imports its home module (PEP 562), so a caller
compiles and runs only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# home module of every public name
_EXPORTS = {
    "errors": (
        "CertificationError",
        "InvarianceError",
        "LatticeInputError",
        "SearchExhaustedError",
    ),
    "lattice": (
        "K3LatticeModel",
        "MukaiVector",
        "Signature",
        "doubled_square_is_nonsquare",
        "euler_pairing",
        "is_spherical_class",
        "line_bundle_vector",
        "model_from_dict",
        "model_to_dict",
        "mukai_pairing",
        "orthogonal_complement_basis",
        "pairing_matrix",
        "rank_one_model",
        "signature_of",
        "square",
        "structure_sheaf_vector",
        "vector_from_dict",
        "vector_to_dict",
    ),
    "isometries": (
        "Isometry",
        "compose",
        "fixes_pointwise",
        "identity_action",
        "inverse",
        "isometry_from_dict",
        "isometry_to_dict",
        "polarized_sublattice_basis",
        "power",
        "restrict_to_sublattice",
        "shift_action",
        "spherical_twist_action",
        "tensor_line_bundle_action",
        "twist_tensor_action",
    ),
    "spectral": (
        "CertifiedRadius",
        "CharPoly",
        "QuadraticSurd",
        "char_poly",
        "radius_closed_form",
        "spectral_radius",
    ),
    "entropy": (
        "EntropyCurve",
        "ExtRecursionTable",
        "GapReport",
        "entropy_lower_bound_from_radius",
        "ext_recursion_table",
        "ext_top_dim",
        "gy_gap",
        "h0_line_bundle",
        "hom_growth_lower_bound",
        "iterated_chi",
        "reference_growth_bound",
        "twist_entropy_curve",
    ),
    "orthosearch": (
        "Rank2Form",
        "SignatureReport",
        "find_positive_orthogonal",
        "rank2_form",
        "rank2_isotropy_free",
        "search_report",
        "signature_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})

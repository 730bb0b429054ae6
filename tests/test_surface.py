"""The public surface: removing a name or a knob must show up in review."""
import inspect

import freespec

PUBLIC = [
    "FreespecError", "InputError", "NumericalError", "__version__", "arveson_in_hull",
    "as_tuple", "column_dilation", "commutant", "decompose_irreducibles", "dilation_oracle",
    "direct_sum", "eval_hom", "eval_monic", "gallery", "hull_membership", "inclusion",
    "is_absolute_extreme", "is_arveson", "is_euclidean_extreme", "is_free_simplex",
    "is_irreducible", "matrix_extreme_status", "membership", "minimal_defining", "read_tuple",
    "reference_simplex", "scale_to_boundary", "simplex_normal_form", "solve_affine_psd",
    "spectrahedrop_membership", "tuple_from_json", "tuple_to_json", "unitarily_equivalent",
    "write_tuple",
]

SIGNATURES = {
    "arveson_in_hull":
        "(omega, x, tol: 'float' = 1e-08, delta: 'float' = 0.01) -> 'HullBoundaryReport'",
    "hull_membership": "(omega, x, tol: 'float' = 1e-08) -> 'HullMembershipReport'",
    "minimal_defining": "(a, tol: 'float' = 1e-08, seed=0) -> 'MinimalDefiningReport'",
}


def test_public_names():
    assert sorted(freespec.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(freespec, name), name


def test_pinned_signatures():
    for name, sig in SIGNATURES.items():
        assert str(inspect.signature(getattr(freespec, name))) == sig, name

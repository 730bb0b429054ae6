"""Extreme points of free spectrahedra and matrix convex sets via dilations.

The public surface re-exports the main entry points; the modules group as

* :mod:`freespec.linalg` / :mod:`freespec.pencil` — Hermitian tuples, monic
  pencils, membership, JSON I/O,
* :mod:`freespec.extreme` — Euclidean / Arveson / absolute extreme point
  tests with verified witnesses, plus an independent dilation oracle,
* :mod:`freespec.structure` — commutants, irreducible decomposition, unitary
  equivalence, minimal defining tuples, free simplices,
* :mod:`freespec.feasibility` — hull membership, inclusion, the exact
  Arveson boundary of finitely generated hulls, projected spectrahedra,
* :mod:`freespec.gallery` — worked models and their special-purpose tests.
"""

from .errors import FreespecError, InputError, NumericalError
from .pencil import (
    as_tuple,
    direct_sum,
    eval_hom,
    eval_monic,
    membership,
    read_tuple,
    scale_to_boundary,
    tuple_from_json,
    tuple_to_json,
    write_tuple,
)
from .extreme import (
    column_dilation,
    dilation_oracle,
    is_absolute_extreme,
    is_arveson,
    is_euclidean_extreme,
    is_irreducible,
    matrix_extreme_status,
)
from .structure import (
    commutant,
    decompose_irreducibles,
    is_free_simplex,
    minimal_defining,
    reference_simplex,
    simplex_normal_form,
    unitarily_equivalent,
)
from .feasibility import (
    arveson_in_hull,
    hull_membership,
    inclusion,
    solve_affine_psd,
    spectrahedrop_membership,
)
from . import gallery

__version__ = "0.1.0"

__all__ = [
    "FreespecError",
    "InputError",
    "NumericalError",
    "as_tuple",
    "direct_sum",
    "eval_hom",
    "eval_monic",
    "membership",
    "read_tuple",
    "scale_to_boundary",
    "tuple_from_json",
    "tuple_to_json",
    "write_tuple",
    "column_dilation",
    "dilation_oracle",
    "is_absolute_extreme",
    "is_arveson",
    "is_euclidean_extreme",
    "is_irreducible",
    "matrix_extreme_status",
    "commutant",
    "decompose_irreducibles",
    "is_free_simplex",
    "minimal_defining",
    "reference_simplex",
    "simplex_normal_form",
    "unitarily_equivalent",
    "arveson_in_hull",
    "hull_membership",
    "inclusion",
    "solve_affine_psd",
    "spectrahedrop_membership",
    "gallery",
    "__version__",
]

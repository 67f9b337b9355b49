"""quasicat: exact computation with finite simplicial sets and finite categories.

Simplicial sets are finite, dimension-bounded, and stored in Eilenberg-Zilber
normal form; categories come with explicit composition tables.  On top of the
two representations sit path category presentations with exact hom-sets for
loop-free complexes, nerves, quasi-category certification with cores and
homotopy categories, a decidable nerve-equivalence criterion for functors,
and constructive inner-anodyne certificates with an independent replay
verifier.
"""

from .anodyne import (
    AnodyneCertificate,
    CertStep,
    LatticePath,
    facet_certificate,
    find_descending_segment,
    prism_certificate,
    shuffle_leq,
    shuffles,
)
from .cat import (
    FiniteCategory,
    FiniteFunctor,
    Groupoid,
    is_equivalence_of_categories,
    iso_subgroupoid,
    nerve,
)
from .equivalence import nerve_equivalence_criterion
from .pathcat import (
    HomSetTable,
    NotLoopFreeError,
    PresentedCategory,
    bounded_hom_classes,
    counit_check,
    hom_sets,
    is_loop_free,
    path_category,
    product_comparison,
)
from .quasi import (
    CertReport,
    HornMap,
    QuasiIsoWitness,
    certify_quasi_category,
    core,
    enumerate_horns,
    find_filler,
    ho_category,
    quasi_iso_edges,
    saturation_step,
    tau0,
)
from .simplicial import (
    SimplexExpr,
    SimplicialMap,
    SimplicialSet,
    build_standard,
    iso_check,
    product,
    standard_simplex,
)
from .verify import verify_certificate

__version__ = "0.1.0"

__all__ = [
    "AnodyneCertificate",
    "CertReport",
    "CertStep",
    "FiniteCategory",
    "FiniteFunctor",
    "Groupoid",
    "HomSetTable",
    "HornMap",
    "LatticePath",
    "NotLoopFreeError",
    "PresentedCategory",
    "QuasiIsoWitness",
    "SimplexExpr",
    "SimplicialMap",
    "SimplicialSet",
    "bounded_hom_classes",
    "build_standard",
    "certify_quasi_category",
    "core",
    "counit_check",
    "enumerate_horns",
    "facet_certificate",
    "find_descending_segment",
    "find_filler",
    "ho_category",
    "hom_sets",
    "is_equivalence_of_categories",
    "is_loop_free",
    "iso_check",
    "iso_subgroupoid",
    "nerve",
    "nerve_equivalence_criterion",
    "path_category",
    "prism_certificate",
    "product",
    "product_comparison",
    "quasi_iso_edges",
    "saturation_step",
    "shuffle_leq",
    "shuffles",
    "standard_simplex",
    "tau0",
    "verify_certificate",
]

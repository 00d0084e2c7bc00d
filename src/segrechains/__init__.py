"""Exact-arithmetic Segre-chain geometry of real-analytic CR-generic manifolds.

The package models a CR-generic manifold in graph form over the Gaussian
rationals, builds the concatenated flow maps of its complexified CR pair,
and computes the derived invariants: generic-rank profiles, Segre type and
multitype, minimality, bracket-generation ladders, Levi nondegeneracy, and
general vector-field orbit dimensions.
"""

__version__ = "0.1.0"

from .scalars import GaussianRational
from .series import Series, SeriesMap, VarSpace
from .exprs import format_series, parse_series
from .ranks import exact_rank, generic_rank
from .manifold import (
    Basepoint,
    CRManifold,
    ambient_space,
    graph_from_real,
    new_manifold,
    segre_leaf,
    tangent_fields,
    vector_fields,
)
from .chains import (
    ChainMap,
    check_reparam,
    flow,
    gamma,
    psi,
    sigma_image,
    v_map,
)
from .invariants import (
    RankProfile,
    SegreInvariants,
    hypersurface_minimality,
    psi_rank_checks,
    rank_profile,
    segre_invariants,
    witness_point,
)
from .lie import (
    HormanderData,
    TangentVectorField,
    bracket,
    crosscheck_totals,
    e1_determinant,
    holomorphic_nondegeneracy,
    hormander_numbers,
    levi_type,
)
from .orbit import (
    OrbitResult,
    VFSystem,
    coordinate_space,
    cr_pair_system,
    formal_flow,
    greedy_multitype,
    lie_span_dimension,
    orbit_dimension,
)
from .manifests import Manifest, load_manifest, parse_manifest
from .corpus import corpus, corpus_manifolds, load_entry

"""Validated-numerics toolkit for covering relations of reversible maps.

Interval arithmetic on lo/hi arrays, each bound computed in
round-to-nearest and widened once by an a-priori error radius; affine
h-sets; rigorous verification of covering and backcovering relations; and a
bundled campaign certifying chaos and infinitely many symmetric periodic
orbits for a four-dimensional reversible map. Every bad input raises
DomainError; SingularMatrixError is a failed residual test, a verification
failure.
"""

from .interval import (
    DomainError,
    IMatrix,
    SingularMatrixError,
    det_sign,
    imat_inverse,
)
from .hset import (
    HSet,
    LinearReversor,
    coordinate_reflection,
    load_hset,
    save_hset,
    supports_disjoint,
    sym_image,
    transpose,
)
from .dynamics import (
    MapSystem,
    linear_map_system,
    map_by_name,
    reversible_quadratic_map,
)
from .covering import (
    CoveringCertificate,
    DegreeData,
    VerifyConfig,
    check_entry_condition,
    check_exit_condition,
    compute_degree,
    verify_backcover,
    verify_cover,
)
from .campaign import (
    CampaignConfig,
    CoveringGraph,
    ProofReport,
    SymmetricOrbitCertificate,
    build_proof_data,
    block_transitions,
    emit_symmetric_orbit_certificate,
    enumerate_words,
    fix_disk_check,
    run_campaign,
    symmetric_closure,
)

__version__ = "0.1.0"

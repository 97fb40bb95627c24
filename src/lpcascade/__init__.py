"""Exact epsilon-range similarity search for dense high-dimensional vectors.

Cascades of per-block 1-Lipschitz projections (block means or fitted
principal directions) filter candidates coarse-to-fine under any l_p norm;
survivors are verified against the original vectors, so results always
equal a brute-force scan.
"""

from .data import (
    BenchRow,
    DataSet,
    SyntheticSpec,
    generate,
    load_csv,
    load_fvecs,
    read_report,
    write_fvecs,
    write_report,
)
from .norms import (
    L1,
    L2,
    L4,
    LINF,
    NormOrder,
    as_norm_order,
    check_norm_equivalence,
    lp_distance,
    lp_norm,
)
from .oracle import CalibrationSpec, brute_force_range, calibrate_epsilon
from .projection import (
    ADAPTIVE,
    ORTHOGONAL,
    BlockPartition,
    PrincipalComponent,
    ProjectionLevel,
    first_principal_component,
    fit_adaptive_level,
    orthogonal_level,
    project_level,
    project_rows,
    q_mapping_norm,
)
from .reference import REFERENCE_TABLES, ReferenceRow, match_reference, reference_rows
from .tree import (
    DimensionSchedule,
    QueryReport,
    SubspaceIndex,
    build_index,
    estimate_cost,
    fit_const,
    load_index,
    range_query,
    save_index,
)

__version__ = "0.1.0"

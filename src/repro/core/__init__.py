"""HCL core: the paper's contribution plus the static HCL substrate."""

from .auditor import AuditFinding, AuditTickReport, IndexAuditor
from .batch import BatchResult, EdgeUpdate, apply_batch, batch_reconfigure
from .batchquery import query_batch
from .cache import CachedQueryEngine, CacheStats
from .build import build_hcl, build_hcl_parallel
from .directed import (
    DirectedDynamicHCL,
    DirectedHCLIndex,
    build_directed_hcl,
    downgrade_landmark_directed,
    upgrade_landmark_directed,
)
from .downgrade import DowngradeStats, downgrade_landmark
from .dynhcl import DynamicHCL, LandmarkUpdate, UpdateRecord
from .epoch import PlanEpoch, PlanRegistry
from .highway import Highway
from .index import HCLIndex, IndexStats
from .invariants import (
    CoverViolation,
    HighwayViolation,
    assert_canonical,
    canonical_index,
    check_cover_property,
    check_highway_exact,
    check_minimality,
    find_cover_violations,
    find_highway_violations,
    sample_vertex_pairs,
)
from .labeling import Labeling
from .metrics import (
    IndexQualityReport,
    coverage_histogram,
    landmark_coverage_counts,
    quality_report,
    uncovered_vertices,
)
from .multicategory import MultiCategoryHCL
from .plan import QueryPlan, SearchWorkspace
from .planvec import VectorBackend, default_backend, numpy_available
from .paths import (
    highway_path,
    label_path,
    landmark_constrained_path,
    shortest_path,
)
from .serialization import (
    load_checkpoint,
    load_index_binary,
    load_index_json,
    save_checkpoint,
    save_index_binary,
    save_index_json,
)
from .transaction import IndexTransaction, UndoJournal
from .wal import WalRecord, WalScan, WriteAheadLog, scan_wal
from .selection import (
    select_by_approx_betweenness,
    select_by_degree,
    select_landmarks,
    select_random,
)
from .topology import (
    FullyDynamicHCL,
    TopologyStats,
    delete_edge,
    insert_edge,
    set_edge_weight,
)
from .upgrade import UpgradeStats, upgrade_landmark

__all__ = [
    "Highway",
    "Labeling",
    "HCLIndex",
    "IndexStats",
    "QueryPlan",
    "SearchWorkspace",
    "VectorBackend",
    "default_backend",
    "numpy_available",
    "PlanEpoch",
    "PlanRegistry",
    "build_hcl",
    "build_hcl_parallel",
    "query_batch",
    "upgrade_landmark",
    "UpgradeStats",
    "downgrade_landmark",
    "DowngradeStats",
    "DynamicHCL",
    "LandmarkUpdate",
    "UpdateRecord",
    "select_by_degree",
    "select_by_approx_betweenness",
    "select_random",
    "select_landmarks",
    "assert_canonical",
    "canonical_index",
    "check_cover_property",
    "check_highway_exact",
    "check_minimality",
    "find_cover_violations",
    "find_highway_violations",
    "sample_vertex_pairs",
    "CoverViolation",
    "HighwayViolation",
    "IndexAuditor",
    "AuditFinding",
    "AuditTickReport",
    "apply_batch",
    "batch_reconfigure",
    "BatchResult",
    "EdgeUpdate",
    "CachedQueryEngine",
    "CacheStats",
    "save_index_json",
    "load_index_json",
    "save_index_binary",
    "load_index_binary",
    "save_checkpoint",
    "load_checkpoint",
    "IndexTransaction",
    "UndoJournal",
    "WriteAheadLog",
    "WalRecord",
    "WalScan",
    "scan_wal",
    "IndexQualityReport",
    "coverage_histogram",
    "landmark_coverage_counts",
    "quality_report",
    "uncovered_vertices",
    "MultiCategoryHCL",
    "DirectedHCLIndex",
    "DirectedDynamicHCL",
    "build_directed_hcl",
    "upgrade_landmark_directed",
    "downgrade_landmark_directed",
    "label_path",
    "highway_path",
    "landmark_constrained_path",
    "shortest_path",
    "FullyDynamicHCL",
    "TopologyStats",
    "insert_edge",
    "delete_edge",
    "set_edge_weight",
]

"""Exact and differentiable Euler characteristic curves on dense grids.

The exact path computes integer curves of 2D/3D scalar fields through
per-pixel coefficients and a single histogram sweep; a brute-force cell
counting oracle provides the ground truth it is tested against; the soft
path smooths the threshold indicator into a sigmoid with an optional
learnable direction and supplies analytic gradients for field values,
thresholds and direction.
"""

from .bench import (
    BenchReport,
    BenchRow,
    ChecksumMismatch,
    curve_checksum,
    run_benchmark,
    write_report_csv,
    write_report_json,
)
from .coefficients import (
    COEFF_RANGE,
    CoefficientGrid,
    compute_coefficients,
    read_coefficients,
    write_coefficients,
)
from .grid import (
    CorruptionError,
    EulerCurve,
    FormatError,
    ScalarGrid,
    ThresholdSet,
    read_curve,
    read_grid,
    uniform_thresholds,
    write_curve,
    write_grid,
)
from .hard import (
    Chunked,
    FullSweep,
    compute_ecc,
    parse_strategy,
)
from .oracle import CellCounts, count_cells, oracle_ecc, sublevel_mask
from .soft import (
    SoftEccParams,
    SoftGradients,
    effective_field,
    gradient_check,
    reparametrize_direction,
    reparametrize_direction_jvp,
    soft_ecc,
    soft_ecc_backward,
)
from .synthetic import SyntheticSpec, generate_grid

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "BenchRow",
    "CellCounts",
    "ChecksumMismatch",
    "Chunked",
    "COEFF_RANGE",
    "CoefficientGrid",
    "CorruptionError",
    "EulerCurve",
    "FormatError",
    "FullSweep",
    "ScalarGrid",
    "SoftEccParams",
    "SoftGradients",
    "SyntheticSpec",
    "ThresholdSet",
    "compute_coefficients",
    "compute_ecc",
    "count_cells",
    "curve_checksum",
    "effective_field",
    "generate_grid",
    "gradient_check",
    "oracle_ecc",
    "parse_strategy",
    "read_coefficients",
    "read_curve",
    "read_grid",
    "reparametrize_direction",
    "reparametrize_direction_jvp",
    "run_benchmark",
    "soft_ecc",
    "soft_ecc_backward",
    "sublevel_mask",
    "uniform_thresholds",
    "write_coefficients",
    "write_curve",
    "write_grid",
    "write_report_csv",
    "write_report_json",
]

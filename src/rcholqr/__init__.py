"""Tall-skinny QR via CholeskyQR2, with sketched variants and bound checks."""

from .bounds import (
    CHOLQR2,
    MR,
    SR,
    SketchParams,
    build_bound_report,
)
from .bench import (
    ExperimentConfig,
    emit_csv,
    emit_json,
    run_experiment,
)
from .errors import (
    CholeskyBreakdown,
    ParamError,
    RcholqrError,
)
from .generators import GeneratorSpec, generate
from .qr import (
    cholesky_qr2,
    factorize,
    mr_cholesky_qr2,
    sr_cholesky_qr2,
)
from .sparse import (
    read_matrix_market,
    write_matrix_market,
)

__version__ = "0.1.0"

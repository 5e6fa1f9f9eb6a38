from .core import (
    AnchorSet,
    Coding,
    InsufficientDataError,
    LccConfig,
    LccError,
    init_anchors,
    lcc_objective,
    learn_anchors,
    solve_coding,
    solve_codings,
)
from .sampling import (
    SamplerConfig,
    SamplingError,
    interpolate,
    knn,
    neighbor_table,
    sample_coding,
    sample_coding_pair,
    sample_codings,
)

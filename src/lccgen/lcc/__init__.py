from .core import (
    AnchorSet,
    Coding,
    DegenerateCodingError,
    InsufficientDataError,
    LccConfig,
    LccError,
    init_anchors,
    lcc_objective,
    learn_anchors,
    localization_measure,
    reconstruct,
    solve_coding,
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

"""Local coordinate coding for generative models."""


# defined ahead of the submodule imports, whose errors derive from it
class LccgenError(Exception):
    """Base of every error the package raises; the CLI catches it once."""


from .lcc import (
    AnchorSet,
    Coding,
    LccConfig,
    SamplerConfig,
    interpolate,
    learn_anchors,
    sample_coding,
    solve_coding,
)
from .rng import Rng

__version__ = "0.1.0"

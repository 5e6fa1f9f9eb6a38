"""Local coordinate coding for generative models."""


class LccgenError(Exception):
    """Base of every error the package raises; the CLI catches it once."""

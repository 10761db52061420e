"""Package version (kept standalone so nothing heavy imports at setup)."""

__version__ = "1.2.0"

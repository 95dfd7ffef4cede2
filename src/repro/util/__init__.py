"""Small shared utilities (formatting, RNG)."""

from repro.util.fmt import format_table
from repro.util.rng import Xorshift64

__all__ = ["format_table", "Xorshift64"]

"""Small shared utilities: unit helpers, stats, text tables."""

from repro.util.units import (
    KiB,
    MiB,
    GiB,
    SECTOR_SIZE,
    format_bytes,
    format_duration,
    format_throughput,
)
from repro.util.stats import Summary, summarize, shannon_entropy, chi_square_uniform
from repro.util.table import render_table

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "SECTOR_SIZE",
    "format_bytes",
    "format_duration",
    "format_throughput",
    "Summary",
    "summarize",
    "shannon_entropy",
    "chi_square_uniform",
    "render_table",
]

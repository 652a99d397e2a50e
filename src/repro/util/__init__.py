"""Shared utilities: units, seeded randomness, empirical distributions.

Everything stochastic in the simulator draws from an explicitly passed
:class:`random.Random` so that experiments are reproducible bit-for-bit.
"""

from repro.util.units import (
    KBPS,
    MBPS,
    GBPS,
    BYTE,
    KB,
    MB,
    bits_to_bytes,
    bytes_to_bits,
    format_bitrate,
    format_bytes,
    format_duration,
)
from repro.util.rng import SeedSequence, child_rng, make_rng
from repro.util.sampling import (
    bounded_lognormal,
    bounded_pareto,
    diurnal_weight,
    WeightedTable,
    weighted_choice,
)
from repro.util.empirical import Ecdf, FiveNumberSummary, ecdf, five_number_summary

__all__ = [
    "KBPS",
    "MBPS",
    "GBPS",
    "BYTE",
    "KB",
    "MB",
    "bits_to_bytes",
    "bytes_to_bits",
    "format_bitrate",
    "format_bytes",
    "format_duration",
    "SeedSequence",
    "child_rng",
    "make_rng",
    "bounded_lognormal",
    "bounded_pareto",
    "diurnal_weight",
    "WeightedTable",
    "weighted_choice",
    "Ecdf",
    "FiveNumberSummary",
    "ecdf",
    "five_number_summary",
]

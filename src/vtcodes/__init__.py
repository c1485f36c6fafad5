"""Nonlinear block codes built from position-weighted checksum congruences.

A word x of length n over the alphabet {0, ..., q-1} belongs to the code
when its plain symbol sum matches a fixed residue modulo
(d-1)*(q-1) + 1 and its j-th position-weighted checksums
sum(i**j * x_i) match fixed residues modulo a prime for j up to d-2.
Every choice of residues yields minimum distance at least d, the cosets
partition the whole cube, and the best coset beats the size of comparable
linear codes over wide length ranges.

The subpackages split along those lines: ``core`` defines the code family
and membership, ``erasure`` and ``errors`` decode, ``bounds`` evaluates
size and redundancy guarantees, ``oracle`` brute-force-verifies small
instances, and ``cli`` wraps it all for the command line.
"""

from .bounds import (
    BoundRow,
    LengthBound,
    LinearBaseline,
    admissible_prime_lengths,
    code_size_lower_bound,
    generate_table,
    improvement_interval_defect0,
    improvement_interval_defect1,
    prime_length_report,
    redundancy_display,
    redundancy_upper_bound,
)
from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    ERASURE_MARK,
    BudgetExceededError,
    CodeSpec,
    best_offset_search,
    checksum,
    enumerate_codewords,
    format_offset,
    format_word,
    is_codeword,
    parse_offset,
    parse_word,
    syndrome_profile,
    validate_offset,
)
from .erasure import InconsistentWordError, decode_erasures
from .errors import (
    ErrorVector,
    KeyEquationState,
    UncorrectableError,
    berlekamp_massey,
    compute_error_syndrome,
    decode_errors,
    locate_and_evaluate,
)
from .oracle import (
    VerificationReport,
    coset_partition,
    decode_check_sweep,
    distance_sweep,
    exhaustive_decode_check,
    partition_check,
)

__version__ = "0.1.0"

__all__ = [
    "BoundRow",
    "BudgetExceededError",
    "CodeSpec",
    "DEFAULT_ENUMERATION_BUDGET",
    "ERASURE_MARK",
    "ErrorVector",
    "InconsistentWordError",
    "KeyEquationState",
    "LengthBound",
    "LinearBaseline",
    "UncorrectableError",
    "VerificationReport",
    "admissible_prime_lengths",
    "berlekamp_massey",
    "best_offset_search",
    "checksum",
    "code_size_lower_bound",
    "compute_error_syndrome",
    "coset_partition",
    "decode_check_sweep",
    "decode_erasures",
    "decode_errors",
    "distance_sweep",
    "enumerate_codewords",
    "exhaustive_decode_check",
    "format_offset",
    "format_word",
    "generate_table",
    "improvement_interval_defect0",
    "improvement_interval_defect1",
    "is_codeword",
    "locate_and_evaluate",
    "parse_offset",
    "parse_word",
    "partition_check",
    "prime_length_report",
    "redundancy_display",
    "redundancy_upper_bound",
    "syndrome_profile",
    "validate_offset",
]

"""Cyclic convolution engines with exact operation counting.

The package provides three interchangeable engines for length-n cyclic
convolution — the schoolbook form, a reduced-multiplication form built for
prime lengths and nested over the prime-power parts of composite ones, and
a polynomial residue (CRT) form — plus a prime-length DFT that rides on
top of them.  Every engine can run with an
:class:`~primeconv.counting.OpTally` attached, in which case each scalar
multiplication and addition performed on runtime data is counted exactly.
"""

from .counting import OpTally, Scalar
from .core import (
    Signal,
    as_signal,
    direct_cyclic_convolution,
    direct_predicted_counts,
    is_prime,
    max_relative_error,
    next_prime,
    prime_factors,
)
from .fast import (
    FastPlan,
    fast_cyclic_convolution,
    multiplication_lower_bound,
    plan_create,
    predicted_counts,
)
from .nesting import NestedPlan, block_lengths
from .polycrt import (
    TwoFactorPlan,
    poly_mul,
    two_factor_plan,
    two_factor_predicted_counts,
    winograd_two_factor_convolution,
)
from .transforms import (
    ConvolutionEngine,
    DftPlan,
    cyclic_convolution,
    dft_plan,
    find_primitive_root,
    linear_convolution,
    naive_dft,
    padded_length,
    rader_dft,
    schoolbook_linear_convolution,
)

__version__ = "0.1.0"

__all__ = [
    "ConvolutionEngine",
    "DftPlan",
    "FastPlan",
    "NestedPlan",
    "OpTally",
    "Scalar",
    "Signal",
    "TwoFactorPlan",
    "__version__",
    "as_signal",
    "block_lengths",
    "cyclic_convolution",
    "dft_plan",
    "direct_cyclic_convolution",
    "direct_predicted_counts",
    "fast_cyclic_convolution",
    "find_primitive_root",
    "is_prime",
    "linear_convolution",
    "max_relative_error",
    "multiplication_lower_bound",
    "naive_dft",
    "next_prime",
    "padded_length",
    "plan_create",
    "poly_mul",
    "predicted_counts",
    "prime_factors",
    "rader_dft",
    "schoolbook_linear_convolution",
    "two_factor_plan",
    "two_factor_predicted_counts",
    "winograd_two_factor_convolution",
]

"""Cyclic convolution engines with exact operation counting.

The package provides three interchangeable engines for length-n cyclic
convolution — the schoolbook form, a reduced-multiplication form built for
prime lengths and nested over the prime-power parts of composite ones, and
a polynomial residue (CRT) form — plus a prime-length DFT that rides on
top of them.  Every engine can run with an
:class:`~primeconv.counting.OpTally` attached, in which case each scalar
multiplication and addition performed on runtime data is counted exactly.

The root exports the engine protocol (:class:`ConvolutionEngine`), the
transforms built on it and the oracles they are checked against.  Each
engine's plans, builders, runners and counts stay in its own module:
``primeconv.fast``, ``primeconv.polycrt``, ``primeconv.nesting`` and
``primeconv.core``.
"""

from .counting import OpTally, Scalar
from .core import Signal, direct_cyclic_convolution, max_relative_error
from .transforms import (
    ConvolutionEngine,
    DftPlan,
    cyclic_convolution,
    dft_plan,
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
    "OpTally",
    "Scalar",
    "Signal",
    "__version__",
    "cyclic_convolution",
    "dft_plan",
    "direct_cyclic_convolution",
    "linear_convolution",
    "max_relative_error",
    "naive_dft",
    "padded_length",
    "rader_dft",
    "schoolbook_linear_convolution",
]

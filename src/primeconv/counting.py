"""Exact operation tallies for the engines' scalar arithmetic.

Engines in this package run their data paths as loops with inline
arithmetic, no Python call per scalar operation, and charge an ``OpTally``
once per loop with the exact number of data-dependent multiplications and
additions that loop performed.  The test suite checks those charges
against per-operation reference loops, bit for bit and count for count.
The unit of account is one scalar field operation: a complex multiply
counts as one multiplication, and a subtraction counts as one addition.
Work that depends only on the fixed convolution kernel (plan construction,
recombination constants, twiddle tables) is precomputation and is never
charged; see docs/counting_model.md for the exact boundary and for the
audit that checks the charges.
"""

from dataclasses import dataclass

Scalar = float | complex


@dataclass
class OpTally:
    """Mutable counter for scalar multiplications and additions.

    A tally is owned by a single execution at a time; counts only grow
    while an execution runs, and reset() is meant for reuse in between.
    """

    mults: int = 0
    adds: int = 0

    def reset(self) -> None:
        self.mults = 0
        self.adds = 0

    @property
    def counts(self) -> tuple[int, int]:
        return (self.mults, self.adds)

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

Scalar = float | complex


class OpTally:
    """Mutable counter for scalar multiplications and additions.

    A tally is owned by a single execution at a time; counts only grow
    while an execution runs.
    Equality compares both counts between tallies only; a tally is mutable,
    so it is unhashable.  A plain slotted class rather than a dataclass:
    the dataclass machinery costs every ``import primeconv`` several
    milliseconds of imports and generated code.
    """

    __slots__ = ("mults", "adds")

    def __init__(self, mults: int = 0, adds: int = 0) -> None:
        self.mults = mults
        self.adds = adds

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(mults={self.mults!r}, adds={self.adds!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.mults, self.adds) == (other.mults, other.adds)

    __hash__ = None

    @property
    def counts(self) -> tuple[int, int]:
        return (self.mults, self.adds)

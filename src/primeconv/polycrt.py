"""Dense polynomial arithmetic and Chinese-remainder reconstruction.

Coefficients are floats or complex numbers, index k holding the
coefficient of x**k.  The residue machinery exists for the factorization

    x^n - 1 = (x - 1) * (x^{n-1} + ... + x + 1)

whose two factors are coprime for every n >= 2 (the second evaluates to n
at x = 1).  Convolving through that split costs 1 + (n-1)^2 general
multiplications: one for the point product at x = 1 and a schoolbook
product of the two degree-(n-2) residues.  Reductions against the
all-ones factor need additions only, and recombination multiplies by
polynomials with rational coefficients fixed by the factorization, so both
sit on the precomputation side of the counting model.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, mul, sub

from .counting import OpTally
from .core import Signal, as_signal, is_prime

# Relative magnitude below which a trailing coefficient does not count
# toward the numerical degree.
DEGREE_RTOL = 1e-12

# Residual allowed when validating modular inverses and reconstructions.
INVERSE_RESIDUAL_TOL = 1e-8


class Polynomial:
    """Immutable dense polynomial over float or complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            coeffs = (0.0,)
        self.coeffs = coeffs

    def degree(self) -> int:
        """Numerical degree: trailing coefficients tiny relative to the
        largest one are treated as zero.  The zero polynomial has degree -1."""
        scale = max(map(abs, self.coeffs))
        if scale == 0.0:
            return -1
        threshold = scale * DEGREE_RTOL
        for k in range(len(self.coeffs) - 1, -1, -1):
            if abs(self.coeffs[k]) > threshold:
                return k
        return -1

    def evaluate(self, x0):
        """Horner evaluation (plain arithmetic)."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x0 + c
        return acc

    def _padded(self, size: int) -> tuple:
        return self.coeffs + (0.0,) * (size - len(self.coeffs))

    def __add__(self, other):
        size = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(map(add, self._padded(size), other._padded(size)))

    def __sub__(self, other):
        size = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(map(sub, self._padded(size), other._padded(size)))

    def __mul__(self, other):
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, av in enumerate(self.coeffs):
            for j, bv in enumerate(other.coeffs):
                out[i + j] += av * bv
        return Polynomial(out)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def coefficient_distance(a: Polynomial, b: Polynomial) -> float:
    """Max absolute coefficient difference, arrays padded to equal length."""
    size = max(len(a.coeffs), len(b.coeffs))
    return max(abs(x - y) for x, y in zip(a._padded(size), b._padded(size)))


def poly_mul(a: Polynomial, b: Polynomial, tally: OpTally | None = None) -> Polynomial:
    """Schoolbook product, tallying every coefficient multiply and add.

    Counts are driven by the stored coefficient arrays: len(a)*len(b)
    multiplications and (len(a)-1)*(len(b)-1) accumulating additions.
    """
    if tally is None:
        tally = OpTally()
    # Slot k sums a[i] * b[k - i] in ascending i, seeded by its first
    # product.  With rb = reversed b, rb[lb - 1 - k + i] == b[k - i], so slot
    # k zips a slice of a against a slice of rb (zip stops at the shorter one).
    ac, rb = a.coeffs, b.coeffs[::-1]
    la, lb = len(ac), len(rb)
    out = []
    for k in range(la + lb - 1):
        lo = max(0, k - lb + 1)
        pairs = zip(ac[lo:k + 1], rb[lb - 1 - k + lo:])
        av, bv = next(pairs)
        acc = av * bv
        for av, bv in pairs:
            acc += av * bv
        out.append(acc)
    tally.mults += la * lb
    tally.adds += (la - 1) * (lb - 1)
    return Polynomial(out)


def poly_divmod(num: Polynomial, den: Polynomial, tally: OpTally | None = None):
    """Long division: returns (quotient, remainder) with num = q*den + r.

    The divisor is normalized to monic once per division (divisor-side
    work, untallied); the elimination steps are tallied.
    """
    dd = den.degree()
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if tally is None:
        tally = OpTally()
    lead = den.coeffs[dd]
    inv_lead = 1.0 / lead
    monic = [c * inv_lead for c in den.coeffs[:dd]]

    rem = list(num.coeffs)
    top = len(rem) - 1
    if top < dd:
        return Polynomial((0.0,)), Polynomial(rem)
    quot = [0.0] * (top - dd + 1)
    for k in range(top - dd, -1, -1):
        q = rem[k + dd]
        quot[k] = q
        rem[k:k + dd] = [r - q * m for r, m in zip(rem[k:k + dd], monic)]
        rem[k + dd] = 0.0  # eliminated exactly against the monic leading one
    steps = len(quot) * dd
    tally.mults += steps
    tally.adds += steps
    quotient = Polynomial(map(mul, quot, repeat(inv_lead)))
    remainder = Polynomial(rem[:dd] if dd > 0 else (0.0,))
    return quotient, remainder


def poly_mod(num: Polynomial, den: Polynomial, tally: OpTally | None = None) -> Polynomial:
    return poly_divmod(num, den, tally)[1]


def poly_mul_mod(a: Polynomial, b: Polynomial, modulus: Polynomial,
                 tally: OpTally | None = None) -> Polynomial:
    """(a * b) mod modulus with full scalar tallies.

    Requires deg(a) and deg(b) below deg(modulus).
    """
    dm = modulus.degree()
    if dm < 1:
        raise ValueError("modulus must have degree >= 1")
    if a.degree() >= dm or b.degree() >= dm:
        raise ValueError(
            f"operand degrees ({a.degree()}, {b.degree()}) must be below the "
            f"modulus degree {dm}"
        )
    if tally is None:
        tally = OpTally()
    return poly_mod(poly_mul(a, b, tally), modulus, tally)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic Euclidean GCD in plain arithmetic (construction-time helper)."""
    r0, r1 = a, b
    while r1.degree() >= 0:
        r0, r1 = r1, poly_mod(r0, r1)
    d = r0.degree()
    if d < 0:
        return Polynomial((0.0,))
    lead = r0.coeffs[d]
    return Polynomial(tuple(c / lead for c in r0.coeffs[: d + 1]))


def extended_euclid_inverse(value: Polynomial, modulus: Polynomial) -> Polynomial:
    """Inverse of ``value`` in the ring of polynomials mod ``modulus``.

    Plain floating-point extended Euclid; raises ValueError when the inputs
    share a nonconstant factor, ArithmeticError when the computed inverse
    fails its residual check.
    """
    if modulus.degree() < 1:
        raise ValueError("modulus must have degree >= 1")
    r0, r1 = modulus, poly_mod(value, modulus)
    t0, t1 = Polynomial((0.0,)), Polynomial((1.0,))
    while r1.degree() > 0:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if r1.degree() < 0:
        raise ValueError("inputs share a nonconstant factor; no inverse exists")
    constant = r1.coeffs[0]
    inverse = poly_mod(t1 * Polynomial((1.0 / constant,)), modulus)
    residual = coefficient_distance(poly_mod(value * inverse, modulus), Polynomial((1.0,)))
    if residual > INVERSE_RESIDUAL_TOL:
        raise ArithmeticError(f"inverse residual {residual:.3e} exceeds {INVERSE_RESIDUAL_TOL:.0e}")
    return inverse


@dataclass(frozen=True)
class ResidueSystem:
    """Pairwise-coprime moduli with precomputed recombination polynomials.

    recombiners[k] is (product / moduli[k]) * its inverse mod moduli[k],
    reduced mod product; reconstruction is then a plain weighted sum.
    """

    moduli: tuple
    product: Polynomial
    recombiners: tuple


def build_residue_system(moduli) -> ResidueSystem:
    """Validate the moduli and precompute everything reconstruction needs."""
    moduli = tuple(m if isinstance(m, Polynomial) else Polynomial(m) for m in moduli)
    if not moduli:
        raise ValueError("need at least one modulus")
    for m in moduli:
        if m.degree() < 1:
            raise ValueError("every modulus must have degree >= 1")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if poly_gcd(moduli[i], moduli[j]).degree() != 0:
                raise ValueError(f"moduli {i} and {j} are not coprime")
    product = moduli[0]
    for m in moduli[1:]:
        product = product * m
    recombiners = []
    scale = max(abs(c) for c in product.coeffs)
    for m in moduli:
        cofactor, residue = poly_divmod(product, m)
        if max(abs(c) for c in residue.coeffs) > 1e-9 * max(1.0, scale):
            raise ArithmeticError("modulus does not divide the product cleanly")
        inverse = extended_euclid_inverse(cofactor, m)
        recombiners.append(poly_mod(cofactor * inverse, product))
    return ResidueSystem(moduli, product, tuple(recombiners))


def crt_reconstruct(residues, system: ResidueSystem) -> Polynomial:
    """Recombine residues into the unique representative mod the product.

    Plain arithmetic: the weights are precomputed rational-coefficient
    polynomials, so reconstruction is untallied by convention.
    """
    residues = tuple(r if isinstance(r, Polynomial) else Polynomial(r) for r in residues)
    if len(residues) != len(system.moduli):
        raise ValueError(
            f"got {len(residues)} residues for {len(system.moduli)} moduli"
        )
    for k, (r, m) in enumerate(zip(residues, system.moduli)):
        if r.degree() >= m.degree():
            raise ValueError(f"residue {k} has degree {r.degree()}, modulus only {m.degree()}")
    acc = Polynomial((0.0,))
    for r, weight in zip(residues, system.recombiners):
        acc = acc + r * weight
    return poly_mod(acc, system.product)


@lru_cache(maxsize=None)
def two_factor_system(n: int) -> ResidueSystem:
    """Residue system for x^n - 1 split as (x - 1) and the all-ones factor."""
    if n < 2:
        raise ValueError(f"need length >= 2, got {n}")
    linear = Polynomial((-1.0, 1.0))
    all_ones = Polynomial((1.0,) * n)
    return build_residue_system((linear, all_ones))


def _reduce_mod_all_ones(coeffs, n: int, tally: OpTally | None = None) -> list:
    """Residue mod x^{n-1} + ... + 1 using additions only.

    First wrap exponents mod n (valid because the modulus divides x^n - 1),
    then eliminate the x^{n-1} term via x^{n-1} = -(x^{n-2} + ... + 1).
    Returns exactly n - 1 coefficients.
    """
    if tally is None:
        tally = OpTally()
    work = list(coeffs[:n])
    for start in range(n, len(coeffs), n):
        wrapped = coeffs[start:start + n]
        work[:len(wrapped)] = map(add, work, wrapped)
    tally.adds += max(0, len(coeffs) - n)
    if len(work) == n:
        work = list(map(sub, work[:n - 1], repeat(work[n - 1])))
        tally.adds += n - 1
    else:
        work = work + [0.0] * (n - 1 - len(work))
    return work


def winograd_two_factor_convolution(kernel, data, tally: OpTally | None = None,
                                    *, require_prime: bool = True) -> Signal:
    """Cyclic convolution through the two-factor residue split.

    Spends exactly 1 + (n-1)^2 tallied multiplications: the point product
    at x = 1 plus the schoolbook product of the all-ones residues.  Kernel
    residues are precomputation; reductions and the data sum are additions.

    The split is valid for every n >= 2, but the operation is published for
    prime lengths; pass require_prime=False to run it elsewhere (the engine
    dispatcher does this when a caller explicitly picks this path).
    """
    b = as_signal(kernel)
    z = as_signal(data)
    n = len(b)
    if len(z) != n:
        raise ValueError(f"kernel length {n} does not match data length {len(z)}")
    if n < 2:
        raise ValueError(f"need length >= 2, got {n}")
    if require_prime and not is_prime(n):
        raise ValueError(
            f"length {n} is composite; pass require_prime=False to run the "
            "two-factor split anyway"
        )
    if tally is None:
        tally = OpTally()

    system = two_factor_system(n)

    kernel_total = sum(b.samples)  # kernel side, precomputed
    point_product = kernel_total * reduce(add, z.samples)
    tally.adds += n - 1
    tally.mults += 1

    kernel_residue = Polynomial(_reduce_mod_all_ones(b.samples, n))
    data_residue = Polynomial(_reduce_mod_all_ones(z.samples, n, tally))
    product = poly_mul(kernel_residue, data_residue, tally)
    ones_residue = Polynomial(_reduce_mod_all_ones(product.coeffs, n, tally))

    result = crt_reconstruct((Polynomial((point_product,)), ones_residue), system)
    coeffs = list(result.coeffs[:n])
    coeffs += [0.0] * (n - len(coeffs))
    return Signal(coeffs)


def two_factor_predicted_counts(n: int) -> tuple[int, int]:
    """(multiplications, additions) the two-factor path tallies at length n."""
    if n < 2:
        raise ValueError(f"need length >= 2, got {n}")
    if n == 2:
        return (2, 2)
    return (1 + (n - 1) ** 2, n * n - 2)

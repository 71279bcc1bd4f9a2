import pytest

from primeconv.counting import OpTally
from reference_engines import counted_add, counted_mul, counted_sub


def test_tally_starts_empty():
    tally = OpTally()
    assert tally.mults == 0
    assert tally.adds == 0
    assert tally.counts == (0, 0)


def test_counted_mul_returns_product_and_charges_one():
    tally = OpTally()
    assert counted_mul(3.0, 4.0, tally) == 12.0
    assert tally.counts == (1, 0)


def test_counted_add_and_sub_both_charge_adds():
    tally = OpTally()
    assert counted_add(3.0, 4.0, tally) == 7.0
    assert counted_sub(3.0, 4.0, tally) == -1.0
    assert tally.counts == (0, 2)


def test_complex_operations_cost_one_unit():
    # The unit of account is one field operation, not one float flop.
    tally = OpTally()
    product = counted_mul(complex(1.0, 2.0), complex(3.0, -1.0), tally)
    total = counted_add(product, complex(0.0, 1.0), tally)
    assert product == complex(5.0, 5.0)
    assert total == complex(5.0, 6.0)
    assert tally.counts == (1, 1)


def test_tally_accumulates_across_calls():
    tally = OpTally()
    acc = 0.0
    for k in range(10):
        acc = counted_add(acc, counted_mul(float(k), 2.0, tally), tally)
    assert acc == 90.0
    assert tally.counts == (10, 10)


def test_tally_value_semantics():
    # What OpTally had as a dataclass, kept by the plain slotted class.
    assert OpTally(1, 2).counts == (1, 2)
    assert OpTally(adds=2).counts == (0, 2)
    assert OpTally(adds=2, mults=1) == OpTally(1, 2)
    assert OpTally(1, 2) != OpTally(2, 1)
    assert OpTally() != (0, 0)
    assert OpTally() != None  # noqa: E711 -- the comparison itself is under test
    assert OpTally().__eq__((0, 0)) is NotImplemented
    assert repr(OpTally(mults=1, adds=2)) == "OpTally(mults=1, adds=2)"
    with pytest.raises(TypeError):
        hash(OpTally())


def test_tally_rejects_unknown_attributes():
    tally = OpTally()
    with pytest.raises(AttributeError):
        tally.mult = 1

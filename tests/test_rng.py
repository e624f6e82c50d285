from fractions import Fraction as F

import pytest

from tverlab import SplitMix64, rat, rat_str


def test_splitmix_reference_stream():
    # first outputs for seed 0 of the standard splitmix64 constants
    rng = SplitMix64(0)
    assert rng.u64() == 0xE220A8397B1DCDAF
    assert rng.u64() == 0x6E789E6AA1B965F4
    assert rng.u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a, b = SplitMix64(42), SplitMix64(42)
    assert [a.u64() for _ in range(20)] == [b.u64() for _ in range(20)]
    assert SplitMix64(1).u64() != SplitMix64(2).u64()


def test_below_and_between_ranges():
    rng = SplitMix64(9)
    seen = set()
    for _ in range(200):
        v = rng.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
    for _ in range(50):
        v = rng.int_between(-3, 3)
        assert -3 <= v <= 3
    with pytest.raises(ValueError):
        rng.below(0)


def test_fraction_and_point_bounds():
    rng = SplitMix64(13)
    for _ in range(100):
        f = rng.fraction(num_bound=9, den_bound=4)
        assert abs(f) <= 9 and 1 <= f.denominator <= 4
    p = rng.rational_point(3)
    assert len(p) == 3 and all(isinstance(c, F) for c in p)


def test_rat_parsing_and_rendering():
    assert rat("3/4") == F(3, 4)
    assert rat("-2") == F(-2)
    assert rat(5) == F(5)
    assert rat(F(1, 3)) == F(1, 3)
    assert rat_str(F(5)) == "5/1"
    assert rat_str(F(-1, 3)) == "-1/3"
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(TypeError):
        rat(0.5)  # floats are never silently accepted
    with pytest.raises(ValueError):  # bad input, not an arithmetic fault
        rat("1/0")

"""read_scaled, the reader of input scalars, against rat followed by
the lcm formula (`oracles.integer_scaled`): the same integers for every
scalar rat reads, and the same exception and message, in the same
row-major order, for every one it rejects, on mixed rows and on rows of
one kind (the "p/q" strings of the one-pass read among them, with
defects that must send them to the scalar-by-scalar read); rat's refusal
of a decimal exponent past 4300 in magnitude.  bareiss_pivot and
bareiss_eliminate against Fraction Gauss-Jordan elimination."""
import contextlib
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tverlab.rationals import Scaled, bareiss_eliminate, bareiss_pivot, rat, read_scaled

from oracles import integer_scaled

numerators = st.integers(-10**9, 10**9)
denominators = st.integers(1, 10**6)
# every scalar here is one rat reads: the plain "p" and "p/q" strings the
# reader parses itself (reducible ones among them), and forms it hands to rat
readable = st.one_of(
    numerators,
    st.fractions(max_denominator=10**6),
    st.builds(lambda p, q: f"{p}/{q}", numerators, denominators),
    st.builds(lambda p, q, k: f"+{p * k}/{q * k}", st.integers(0, 99), denominators, st.integers(1, 12)),
    numerators.map(str),
    st.sampled_from([" 1/2 ", "\t-3", "0.5", "-1e-1", "1_0/20", "007/014", "٣/4"]),
)
digits = st.text("0123456789", min_size=1, max_size=6)
# strings near the plain "p/q" form, and some just off it
near_plain = st.builds(
    lambda pad, sign, p, q, pad2: f"{pad}{sign}{p}{q}{pad2}",
    st.sampled_from(["", "", " ", "\t"]),
    st.sampled_from(["", "", "+", "-", "--", "- "]),
    digits,
    st.one_of(st.just(""), digits.map(lambda q: "/" + q), st.sampled_from(["/", "/-2", "/ 3", ".5", "e-1", "_0"])),
    st.sampled_from(["", "", " ", "\n"]),
)
scalars = st.one_of(
    readable,
    near_plain,
    st.text("0123456789+-/ ._eE٣", max_size=7),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
)


def outcome(read):
    try:
        return tuple(read())
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def read_by_rat(rows):
    return integer_scaled([[rat(c) for c in row] for row in rows])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.lists(readable, min_size=1, max_size=4), max_size=4))
def test_read_scaled_is_rat_then_integer_scaled(rows):
    assert tuple(read_scaled(rows)) == read_by_rat(rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.lists(scalars, max_size=4), max_size=4))
def test_read_scaled_rejects_what_rat_rejects(rows):
    assert outcome(lambda: read_scaled(rows)) == outcome(lambda: read_by_rat(rows))


# one kind of scalar per row set, up to 8 x 8, so that the one-pass read
# of "p/q" strings is reached; defects replace a few of those strings
UNCHECKED = sys.int_info.str_digits_check_threshold
canonical = st.builds(lambda p, q: f"{p}/{q}", numerators, denominators)
reducible = st.builds(lambda p, q, k: f"{p * k}/{q * k}", numerators, denominators, st.integers(2, 60))
zero_denominator = numerators.map(lambda p: f"{p}/0")
signs_and_zeros = st.sampled_from(["+1/2", "+0/5", "01/2", "1/02", "-01/3", "00/1", "-0/7", "+12/008"])
off_form = st.sampled_from([
    " 1/2", "1/2 ", "1 /2", "1.5/2", "1/2.0", "1/+2", "1_0/20", "1/2_0", "٣/4", "1/٣", "1/-2", "1", "-3", "", "/2", "1/",
])
held_separator = st.sampled_from(["1/2,3/4", "1/2,", ",1/2", "1/2/3", "1//2", "-1/2/5"])
digit_runs = st.integers(UNCHECKED - 4, UNCHECKED + 2)
near_the_threshold = st.one_of(
    st.builds(lambda n, q: f"{'7' * n}/{q}", digit_runs, st.sampled_from([1, 3, 77])),
    st.builds(lambda n, p: f"{p}/{'3' * n}", digit_runs, st.sampled_from([0, -1, 5])),
    st.builds(lambda n: f"{'9' * (UNCHECKED - 3 - n)}/{'4' * n}", st.integers(1, 4)),
)
defects = st.one_of(zero_denominator, off_form, held_separator, near_the_threshold)


@st.composite
def row_sets(draw, scalar, defect=None):
    """m rows of k scalars (1 <= m, k <= 8), as lists (JSON's shape) or
    tuples, most often with one drawn position replaced by a defect, so
    that each defect is often the only one."""
    m, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    flat = draw(st.lists(scalar, min_size=m * k, max_size=m * k))
    if defect is not None:
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
            flat[draw(st.integers(0, m * k - 1))] = draw(defect)
    shape = draw(st.sampled_from([list, list, tuple]))
    return [shape(flat[i * k:(i + 1) * k]) for i in range(m)]


@contextlib.contextmanager
def lowest_digit_limit():
    """int's digit limit at its least value, the threshold below which it
    checks none, so that a run of digits just past it is refused."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(UNCHECKED)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# Hypothesis mixes constants from the package's source into its draws, so
# the draws move with any edit there; each defect alone in a row set that
# is otherwise read in one pass is also given as an example.
@example([["6/4", "1 /2"], ["1/3", "2/6"]])
@example([["6/4", "1.5/2"], ["-1/3", "2/6"]])
@example([["6/4", "1/2,3/4"], ["-1/3", "2/6"]])
@example([["6/4", "1/0"], ["-1/3", "2/6"]])
@example([["6/4", f"{'7' * (UNCHECKED + 1)}/3"], ["-1/3", "2/6"]])
@example([["6/4", "1/2"], ("-1/3", "2/6")])
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(row_sets(st.one_of(canonical, canonical, reducible, signs_and_zeros), defects))
def test_p_q_rows_read_in_one_pass_as_rat_reads_them(rows):
    """Rows of "p/q" strings, reducible ones and ones with a sign or
    leading zeros among them: read in one pass they give what rat gives,
    and a zero denominator, a space, a point, "_", a non-ASCII digit, a
    string holding "," or a second "/", one near int's digit limit, or a
    row that is not a list sends them to the scalar-by-scalar read, which
    raises what rat raises."""
    with lowest_digit_limit():
        assert outcome(lambda: read_scaled(rows)) == outcome(lambda: read_by_rat(rows))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(row_sets(st.builds(F, numerators, denominators)))
def test_fraction_rows_read_as_rat_reads_them(rows):
    assert outcome(lambda: read_scaled(rows)) == outcome(lambda: read_by_rat(rows))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(row_sets(st.integers(-10**30, 10**30), st.just(True)))
def test_int_rows_read_as_rat_reads_them(rows):
    """Rows of ints, a True among some of them: a bool is a TypeError."""
    assert outcome(lambda: read_scaled(rows)) == outcome(lambda: read_by_rat(rows))


def test_read_scaled_passes_a_read_value_through():
    read = read_scaled([["1/2", 3], [F(-1, 3), "0"]])
    assert read == Scaled(6, [(3, 18), (-2, 0)])
    assert read_scaled(read) is read


@st.composite
def pivot_runs(draw):
    """A small integer matrix and a sequence of pivot positions in it, some
    of them on a zero entry (skipped) or on a row pivoted before."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)) for _ in range(m)]
    steps = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=8))
    return rows, steps


@example(([[-2, 1, 3], [3, 4, -1], [1, -3, 2]], [(0, 0), (1, 1), (2, 2), (0, 1), (2, 0)]))
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(pivot_runs())
def test_bareiss_pivot_is_gauss_jordan_over_its_denominator(case):
    """After each pivot, every integer row over the returned denominator
    equals the Fraction Gauss-Jordan row (pivot row divided by its pivot,
    the others eliminated), for pivots of either sign.  bareiss_eliminate
    of the rows is the Fraction Gauss-Jordan that pivots each column on
    its first row holding no pivot yet with a nonzero entry there, and
    leaves every other row zero."""
    rows, steps = case

    def gauss_jordan(fracs, i, j):
        head = [v / fracs[i][j] for v in fracs[i]]
        return [
            head if r == i else [a - row[j] * b for a, b in zip(row, head)]
            for r, row in enumerate(fracs)
        ]

    ints = [list(row) for row in rows]
    fracs = [[F(v) for v in row] for row in rows]
    D = 1
    for i, j in steps:
        if not fracs[i][j]:
            continue
        fracs = gauss_jordan(fracs, i, j)
        D = bareiss_pivot(ints, i, j, D)
        assert all(type(v) is int for row in ints for v in row)
        assert [[F(v, D) for v in row] for row in ints] == fracs

    ints = [list(row) for row in rows]
    fracs = [[F(v) for v in row] for row in rows]
    pivots = {}
    for j in range(len(rows[0])):
        i = next((i for i, row in enumerate(fracs) if row[j] and i not in pivots.values()), None)
        if i is not None:
            fracs = gauss_jordan(fracs, i, j)
            pivots[j] = i
    D, found = bareiss_eliminate(ints, len(rows[0]))
    assert found == pivots
    assert [[F(v, D) for v in row] for row in ints] == fracs
    assert not any(v for r, row in enumerate(ints) if r not in pivots.values() for v in row)


def test_rat_refuses_a_decimal_exponent_past_4300_before_building_it():
    """A decimal exponent up to 4300 in magnitude, int's digit limit for a
    digit string, is read; one past it is a ValueError raised at once, where
    Fraction would build 10 to that power."""
    assert rat("1e4300") == 10**4300 and rat(" -2.5E-4_300 ") == F(-25, 10**4301)
    for text in ("1e4301", "1e100000000", "-.5e-100000000", "3E+1_000_000_000"):
        with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
            rat(text)
        with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
            read_scaled([["1/2", text]])

"""read_scaled, the reader of input scalars, against rat followed by
the lcm formula (`oracles.integer_scaled`): the same integers for every
scalar rat reads, and the same exception and message, in the same
row-major order, for every one it rejects.  bareiss_pivot and bareiss_eliminate against Fraction
Gauss-Jordan elimination."""
from fractions import Fraction as F

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

"""read_scaled, the reader of input scalars, against rat followed by
integer_scaled: the same integers for every scalar rat reads, and the same
exception and message, in the same row-major order, for every one it
rejects."""
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from tverlab.rationals import Scaled, integer_scaled, rat, read_scaled

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

"""Tests for truncated parameter series over the two-variable torus algebra."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkscatter.errors import BadConstantTerm
from jkscatter.series import TruncatedSeries

P = ("s", "t")


def mono(cutoff=4, **kw):
    return TruncatedSeries.monomial(P, cutoff, **kw)


def test_truncation_drops_high_degree():
    s = mono(cutoff=2, pexp={"s": 3})
    assert s.is_zero()


def test_addition_and_scaling():
    f = mono(xe=1, pexp={"s": 1}) + mono(xe=1, pexp={"s": 1})
    assert f == mono(xe=1, pexp={"s": 1}).scale(2)


def test_multiplication_truncates():
    f = 1 + mono(cutoff=2, pexp={"s": 1})
    g = f * f * f
    assert g.coefficient(0, 0, {"s": 2}) == 3
    assert g.coefficient(0, 0, {"s": 3}) == 0  # beyond cutoff


def test_shift_is_monomial_multiplication():
    f = 1 + mono(xe=1, pexp={"s": 1})
    assert f.shift(2, -1) == mono(xe=2, ye=-1) + mono(xe=3, ye=-1, pexp={"s": 1})


def test_inverse_of_unit():
    f = 1 + mono(pexp={"s": 1})
    g = f.inverse()
    assert g.coefficient(0, 0, {"s": 2}) == 1
    assert (f * g) == TruncatedSeries.const(P, 4, 1)


def test_inverse_with_monomial_lead():
    f = mono(xe=1) + mono(xe=2, pexp={"t": 1})
    assert (f * f.inverse()) == TruncatedSeries.const(P, 4, 1)


def test_inverse_requires_unit():
    with pytest.raises(BadConstantTerm):
        (mono(pexp={"s": 1})).inverse()


def test_negative_power():
    f = 1 + mono(pexp={"s": 1})
    assert f.power(-2) == f.inverse() * f.inverse()


@pytest.mark.parametrize("e", range(-3, 8))
def test_power_is_repeated_product(e):
    f = 1 + mono(xe=1, pexp={"s": 1}) + mono(ye=-1, pexp={"t": 1}).scale(Q(2, 3))
    want = TruncatedSeries.const(P, 4, 1)
    for _ in range(abs(e)):
        want = want * (f if e > 0 else f.inverse())
    assert f.power(e) == want


def test_log_is_mercator_series():
    f = 1 + mono(pexp={"s": 1}, coeff=Q(1))
    g = f.log()
    assert [g.coefficient(0, 0, {"s": k}) for k in range(1, 5)] == \
        [1, Q(-1, 2), Q(1, 3), Q(-1, 4)]


def test_exp_log_roundtrip():
    g = mono(xe=1, pexp={"s": 1}) + mono(ye=1, pexp={"t": 1}).scale(Q(2, 3))
    assert g.exp().log() == g


def test_exp_rejects_constant_term():
    with pytest.raises(BadConstantTerm):
        (1 + mono(pexp={"s": 1})).exp()


def test_log_rejects_non_one_lead():
    with pytest.raises(BadConstantTerm):
        mono(xe=1).log()


def test_incompatible_rings():
    a = TruncatedSeries.const(("s",), 3, 1)
    b = TruncatedSeries.const(("s", "t"), 3, 1)
    with pytest.raises(ValueError):
        a + b


def test_sorted_terms_deterministic():
    f = mono(xe=1, pexp={"t": 1}) + mono(ye=1, pexp={"s": 1})
    assert f.sorted_terms() == sorted(f.terms.items())
    assert repr(f) == repr(mono(ye=1, pexp={"s": 1}) + mono(xe=1, pexp={"t": 1}))


def test_unknown_parameter_is_named():
    with pytest.raises(ValueError, match="'zz'"):
        mono(pexp={"zz": 1})
    with pytest.raises(ValueError, match="'zz'"):
        mono(pexp={"s": 1}).coefficient(0, 0, {"zz": 1})


def test_floats_are_refused():
    with pytest.raises(TypeError):
        TruncatedSeries.const(P, 4, 0.5)
    with pytest.raises(TypeError):
        mono(pexp={"s": 1}).scale(2.0)


def test_integral_fractions_are_stored_as_int():
    f = TruncatedSeries(P, 4, {(0, 0, (0, 0)): Q(4, 2), (1, 0, (1, 0)): True,
                               (0, 1, (0, 1)): Q(1, 3)})
    assert [type(c) for _k, c in f.sorted_terms()] == [int, Q, int]
    assert repr(f) == "2 + 1/3*t*y + 1*s*x"
    assert type(f.coefficient(0, 0, {})) is Q


# -- products and sums against an all-pairs Fraction reference (test-only oracle)

def reference_product(a, b):
    t = {}
    for (x1, y1, p1), c1 in a.terms.items():
        for (x2, y2, p2), c2 in b.terms.items():
            p = tuple(u + v for u, v in zip(p1, p2))
            if sum(p) <= a.cutoff:
                k = (x1 + x2, y1 + y2, p)
                t[k] = t.get(k, Q(0)) + Q(c1) * Q(c2)
    return {k: c for k, c in t.items() if c}


def reference_sum(a, b):
    t = {k: Q(c) for k, c in a.terms.items()}
    for k, c in b.terms.items():
        t[k] = t.get(k, Q(0)) + Q(c)
    return {k: c for k, c in t.items() if c}


COEFFICIENTS = st.one_of(st.integers(-4, 4),
                         st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def series_pairs(draw):
    n = draw(st.integers(1, 3))
    cutoff = draw(st.integers(1, 5))
    params = tuple(f"p{i}" for i in range(n))
    # a raw key may carry a negative parameter exponent; it multiplies by its total degree
    key = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                    st.tuples(*[st.integers(-1, cutoff)] * n))

    def one():
        return TruncatedSeries(params, cutoff,
                               draw(st.dictionaries(key, COEFFICIENTS, max_size=8)))
    return one(), one()


def assert_canonical(f):
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Q and c.denominator != 1), c
    for xe, ye, p in f.terms:
        assert type(f.coefficient(xe, ye, dict(zip(f.params, p)))) is Q


@settings(max_examples=150, deadline=None)
@given(series_pairs())
def test_product_and_sum_match_fraction_reference(pair):
    a, b = pair
    assert_canonical(a)
    prod, total = a * b, a + b
    assert prod.terms == reference_product(a, b)
    assert total.terms == reference_sum(a, b)
    assert_canonical(prod)
    assert_canonical(total)

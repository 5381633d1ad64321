"""Tests for truncated parameter series over the two-variable torus algebra."""

from fractions import Fraction as Q

import pytest

from jkscatter.errors import BadConstantTerm
from jkscatter.series import TruncatedSeries, series_exp_log

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
    assert series_exp_log(series_exp_log(g, "exp"), "log") == g


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

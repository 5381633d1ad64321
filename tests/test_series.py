"""Tests for truncated parameter series over the two-variable torus algebra."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkscatter.errors import BadConstantTerm
from jkscatter.scattering import Wall, _wall_powers, cross_wall
from jkscatter.series import X_BITS, TruncatedSeries, _mul_acc
from reference import series_exp

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
    assert series_exp(g).log() == g


def test_exp_rejects_constant_term():
    with pytest.raises(BadConstantTerm):
        series_exp(1 + mono(pexp={"s": 1}))


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

def in_box(p, box):
    return box is None or all(e <= b for e, b in zip(p, box))


def reference_product(a, b):
    t = {}
    for (x1, y1, p1), c1 in a.terms.items():
        for (x2, y2, p2), c2 in b.terms.items():
            p = tuple(u + v for u, v in zip(p1, p2))
            if sum(p) <= a.cutoff and in_box(p, a.box):
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


# the packed x field holds [-X_LIMIT, X_LIMIT); y has no bound.  Small
# exponents make terms collide and cancel; wide ones (x up to half the
# field, so that every product of two terms stays inside it) reach the top
# of the x field and y far past it, negative too
X_LIMIT = 2 ** (X_BITS - 2)
SMALL = st.integers(-3, 3)
EXP_X = SMALL | st.integers(-X_LIMIT // 2, X_LIMIT // 2 - 1)
EXP_Y = SMALL | st.integers(-10 ** 30, 10 ** 30)


@st.composite
def ring_series(draw, count=2):
    """count random series of one random ring."""
    n = draw(st.integers(1, 3))
    cutoff = draw(st.integers(1, 5))
    params = tuple(f"p{i}" for i in range(n))
    box = draw(st.none() | st.tuples(*[st.integers(0, cutoff)] * n))
    # a raw key may lie past the cutoff or the box; the constructor drops it
    key = st.tuples(EXP_X, EXP_Y, st.tuples(*[st.integers(0, cutoff)] * n))

    def one():
        return TruncatedSeries(params, cutoff,
                               draw(st.dictionaries(key, COEFFICIENTS, max_size=8)), box)
    return tuple(one() for _ in range(count))


def assert_canonical(f):
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Q and c.denominator != 1), c
    for xe, ye, p in f.terms:
        assert type(f.coefficient(xe, ye, dict(zip(f.params, p)))) is Q


@settings(max_examples=150, deadline=None)
@given(ring_series())
def test_product_and_sum_match_fraction_reference(pair):
    a, b = pair
    assert all(in_box(p, a.box) for _x, _y, p in a.terms)
    assert_canonical(a)
    prod, total = a * b, a + b
    assert prod.terms == reference_product(a, b)
    assert total.terms == reference_sum(a, b)
    assert_canonical(prod)
    assert_canonical(total)


# -- the multiply-accumulate kernel: t += a * b into one dict

def accumulated(acc, pairs):
    """acc + sum of a * b over the pairs, through _mul_acc into one dict
    with no grouping by degree: the guard bits alone drop what leaves the
    ring."""
    t = dict(acc._dict())
    for a, b in pairs:
        _mul_acc(t, a._dict().items(), list(b._dict().items()), acc._ring)
    return acc._like(t)


@settings(max_examples=100, deadline=None)
@given(ring_series(count=7), st.integers(0, 3))
def test_multiply_accumulate_is_one_product_at_a_time(fs, npairs):
    acc, *rest = fs
    pairs = list(zip(rest[0::2], rest[1::2]))[:npairs]
    want = acc
    for a, b in pairs:
        want = want + a * b
    got = accumulated(acc, pairs)
    assert got == want
    assert_canonical(got)


def test_multiply_accumulate_drops_keys_past_the_box():
    s, t = (TruncatedSeries.monomial(P, 4, pexp={v: 1}, box=(1, 2)) for v in "st")
    one = TruncatedSeries.const(P, 4, 1, box=(1, 2))
    pairs = [(s, s), (s, t), (t, t), (t.scale(2), t), (t, t * t)]
    for got in (accumulated(one, pairs), one + s * s + s * t + t * t + t.scale(2) * t + t * (t * t)):
        assert got.sorted_terms() == [((0, 0, (0, 0)), 1), ((0, 0, (0, 2)), 3),
                                      ((0, 0, (1, 1)), 1)]


def test_multiply_accumulate_refuses_an_x_leaving_its_field():
    top = mono(xe=X_LIMIT - 1)
    with pytest.raises(ValueError, match="x field"):
        accumulated(mono(), [(mono(), mono()), (top, mono(xe=1, pexp={"s": 1}))])
    with pytest.raises(ValueError, match="x field"):
        top * (mono() + mono(xe=1, pexp={"s": 1}))


def test_multiply_accumulate_refuses_series_from_another_ring():
    a = mono(xe=1)
    for other in (TruncatedSeries.monomial(P, 3, xe=1),
                  TruncatedSeries.monomial(P, 4, xe=1, box=(1, 1)),
                  TruncatedSeries.monomial(("s",), 4, xe=1)):
        for x, y in ((a, other), (other, a)):
            with pytest.raises(ValueError, match="series from different rings"):
                x * y


def test_x_exponent_outside_its_field_is_refused():
    for x in (X_LIMIT, -X_LIMIT - 1, 10 ** 40):
        with pytest.raises(ValueError, match="x field"):
            mono(xe=x)
    top, bottom = mono(xe=X_LIMIT - 1), mono(xe=-X_LIMIT)
    assert top.terms == {(X_LIMIT - 1, 0, (0, 0)): 1}
    # a product whose x leaves the field raises: it never wraps into y
    with pytest.raises(ValueError, match="x field"):
        top * mono(xe=1)
    with pytest.raises(ValueError, match="x field"):
        bottom * mono(xe=-1, pexp={"s": 1})
    with pytest.raises(ValueError, match="x field"):
        bottom.shift(-1, 0)
    assert (top * bottom).terms == {(-1, 0, (0, 0)): 1}
    assert top.coefficient(X_LIMIT, 0, {}) == 0


def test_y_exponent_has_no_bound():
    big = 10 ** 40
    f = mono(ye=big, pexp={"t": 1}) * mono(ye=big, xe=-2)
    assert f.terms == {(-2, 2 * big, (0, 1)): 1}
    assert (f * mono(ye=-2 * big)).terms == {(-2, 0, (0, 1)): 1}
    assert f.coefficient(-2, 2 * big, {"t": 1}) == 1


def test_terms_is_a_fresh_tuple_keyed_dict():
    f = 1 + mono(xe=-1, ye=2, pexp={"s": 1, "t": 2}, coeff=Q(3, 2))
    t = f.terms
    assert t == {(0, 0, (0, 0)): 1, (-1, 2, (1, 2)): Q(3, 2)}
    assert t is not f.terms
    t.clear()
    t[(5, 5, (1, 1))] = 7
    assert f.terms == {(0, 0, (0, 0)): 1, (-1, 2, (1, 2)): Q(3, 2)}


def test_kept_series_reads_as_the_original():
    # scatter's walls store their keys in an array of machine integers, or
    # in a tuple when a key does not fit in 64 bits
    for f in (1 + mono(xe=1, pexp={"s": 1}, coeff=Q(2, 3)),
              1 + mono(ye=10 ** 30, pexp={"s": 1})):
        kept = f._kept()
        assert kept == f and f == kept and kept.terms == f.terms
        assert repr(kept) == repr(f) and kept.coefficient(0, 0, {}) == 1
        assert kept * kept == f * f and kept + f == f.scale(2)
        assert not kept.is_zero() and TruncatedSeries(P, 4)._kept().is_zero()


# cross_wall against its definition: x -> x f^(-eps b), y -> y f^(eps a) sends
# a term of g to itself times f^n, n = eps <(a, b), (x, y)>; the pairings of
# these directions with exponents in -2..2 lie in -6..6
DIRECTIONS = [(1, 0), (0, 1), (-1, 0), (1, 1), (2, 1), (1, -2), (-1, 1)]
SMALL_COEFFICIENTS = st.one_of(st.integers(-3, 3).filter(bool),
                               st.fractions(min_value=-2, max_value=2, max_denominator=3))


@st.composite
def wall_and_series(draw, box):
    a, b = draw(st.sampled_from(DIRECTIONS))
    # h = f - 1 along multiples of the direction, each term of degree >= 1
    h = draw(st.dictionaries(st.tuples(st.integers(1, 2),
                                       st.tuples(st.integers(0, 2), st.integers(0, 2))
                                       .filter(lambda p: 1 <= sum(p))),
                             SMALL_COEFFICIENTS, max_size=4))
    f = TruncatedSeries(P, 4, {(0, 0, (0, 0)): 1,
                               **{(j * a, j * b, p): c for (j, p), c in h.items()}}, box)
    raw = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                    st.tuples(st.integers(0, 4), st.integers(0, 4))),
                          SMALL_COEFFICIENTS, max_size=6)
    return (Wall((a, b), "ray", f), TruncatedSeries(P, 4, draw(raw), box),
            TruncatedSeries(P, 4, draw(raw), box))


def cross_by_definition(w, g, eps):
    a, b = w.direction
    out = TruncatedSeries(P, 4, box=g.box)
    for (xe, ye, p), c in g.terms.items():
        n = eps * (a * ye - b * xe)
        assert -7 <= n <= 7
        out = out + TruncatedSeries(P, 4, {(xe, ye, p): c}, g.box) * w.function.power(n)
    return out


def graded_powers(f):
    """h, h^2, ... for h = f - 1 up to the last nonzero power, each as its
    packed terms and ends[d], the number of them of degree <= d."""
    h, out = f - 1, []
    while not (hk := h.power(len(out) + 1)).is_zero():
        out.append((hk._dict(), [sum(sum(p) <= d for _x, _y, p in hk.terms)
                                 for d in range(f.cutoff + 1)]))
    return out


def degrees(terms, r):
    return [sum(r.unpack(k)[2]) for k, _c in terms]


@pytest.mark.parametrize("box", [None, (2, 1)])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), eps=st.sampled_from([1, -1]))
def test_cross_wall_is_the_substitution(box, data, eps):
    w, g1, g2 = data.draw(wall_and_series(box))
    assert cross_wall(w, g1, eps) == cross_by_definition(w, g1, eps)
    assert cross_wall(w, g2, eps) == cross_by_definition(w, g2, eps)
    # the powers it reads: each once, its terms sorted by parameter degree
    powers = _wall_powers(w.function, g1._ring)
    assert [(dict(terms), ends) for terms, ends in powers] == graded_powers(w.function)
    assert all(degrees(terms, g1._ring) == sorted(degrees(terms, g1._ring))
               for terms, _ends in powers)


def test_wall_powers_need_a_function_one_mod_parameters():
    for f in (1 + mono(xe=1), mono(pexp={"s": 1}), 1 + mono(ye=1).scale(Q(1, 2))):
        with pytest.raises(BadConstantTerm):
            cross_wall(Wall((1, 0), "ray", f), mono(ye=1))


# -- parameter exponents are >= 0, and a box is a quotient of the ring

def test_negative_parameter_exponent_is_refused():
    # with s^-1 allowed the product was not associative: at cutoff 2,
    # (s^2 * s) * s^-1 = 0 but s^2 * (s * s^-1) = s^2
    with pytest.raises(ValueError, match=r"\(0, 0, \(-1, 0\)\)"):
        TruncatedSeries(P, 2, {(0, 0, (-1, 0)): 1})
    with pytest.raises(ValueError, match="negative"):
        mono(pexp={"t": -2})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2),
                          st.integers(-3, 3)), min_size=3, max_size=9),
       st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_product_is_associative(raw, box):
    a, b, c = (TruncatedSeries(P, 3, {(x, 0, (e1, e2)): k for x, e1, e2, k in raw[i::3]}, box)
               for i in range(3))
    assert (a * b) * c == a * (b * c)


def test_box_drops_terms_over_a_bound():
    f = TruncatedSeries(P, 4, {(0, 0, (2, 0)): 1, (0, 0, (1, 1)): 1, (1, 0, (0, 2)): 3},
                        box=(1, 2))
    assert f.sorted_terms() == [((0, 0, (1, 1)), 1), ((1, 0, (0, 2)), 3)]
    s = TruncatedSeries.monomial(P, 4, pexp={"s": 1}, box=(1, 2))  # s^2 = 0
    assert (1 + s).power(3) == 1 + s.scale(3)
    assert (1 + s).inverse() == 1 + s.scale(-1)


def test_box_is_part_of_the_ring():
    a = TruncatedSeries.const(P, 3, 1, box=(1, 1))
    with pytest.raises(ValueError, match="different rings"):
        a + TruncatedSeries.const(P, 3, 1)
    assert a != TruncatedSeries.const(P, 3, 1)
    with pytest.raises(ValueError, match="bound"):
        TruncatedSeries.const(P, 3, 1, box=(1,))
    with pytest.raises(ValueError, match="bound"):
        TruncatedSeries.const(P, 3, 1, box=(1, -1))


def test_box_commutes_with_log_and_exp():
    full = 1 + mono(xe=1, pexp={"s": 1}) + mono(ye=1, pexp={"t": 1}).scale(Q(1, 2))
    boxed = TruncatedSeries(P, 4, full.terms, box=(2, 1))
    assert boxed.log() == TruncatedSeries(P, 4, full.log().terms, box=(2, 1))
    g = full.log()
    assert series_exp(TruncatedSeries(P, 4, g.terms, box=(2, 1))) == \
        TruncatedSeries(P, 4, series_exp(g).terms, box=(2, 1))

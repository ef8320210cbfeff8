import itertools
import random

import pytest

from pfol.exterior import (
    DiffForm,
    VectorField,
    _sort_sign,
    affine_chart,
    cone_chart,
    euler_field,
    pullback_form,
)
from pfol.geommaps import RationalMap
from pfol.mpoly import MultiPoly, RationalFunction
from pfol.rings import GF, QQ


def random_poly(ring, nvars, rng, deg=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in range(nvars))
        c = ring.random(rng)
        if c:
            terms[e] = c
    return MultiPoly(ring, nvars, terms)


def random_one_form(chart, rng):
    return DiffForm(
        chart,
        1,
        {(i,): random_poly(chart.ring, chart.nvars, rng) for i in range(chart.nvars)},
    )


def random_field(chart, rng):
    return VectorField(
        chart,
        [random_poly(chart.ring, chart.nvars, rng) for _ in range(chart.nvars)],
    )


def test_sort_sign_matches_inversion_count():
    def reference(idx):
        if len(set(idx)) != len(idx):
            return None
        inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
        return tuple(sorted(idx)), (-1) ** inversions

    tuples = [
        idx for q in range(6) for idx in itertools.product(range(5), repeat=q)
    ]
    assert len(tuples) == 3906
    for idx in tuples:
        assert _sort_sign(idx) == reference(idx)


def test_coefficients_are_polynomials_unless_a_denominator_remains():
    chart = affine_chart(GF(5), 2)
    x, y = chart.vars()
    rx, ry = RationalFunction.from_poly(x), RationalFunction.from_poly(y)
    # each object built from MultiPolys and from fractions that cancel
    builds = [
        (
            DiffForm(chart, 1, {(0,): y, (1,): x * y}),
            chart.dx(0) * (rx * ry / rx) + chart.dx(1) * (ry / rx * x * x),
            lambda form: list(form.terms.values()),
        ),
        (
            VectorField(chart, [x, y]),
            VectorField(chart, [rx * rx / rx, 0]) + VectorField(chart, [0, ry / rx]) * x,
            lambda v: v.comps,
        ),
        (
            RationalMap(chart, chart, [x, y**2]),
            RationalMap(chart, chart, [rx * ry / ry, ry / rx * ry * x]),
            lambda phi: phi.comps,
        ),
    ]
    for from_polys, from_fractions, coeffs in builds:
        for c in coeffs(from_polys) + coeffs(from_fractions):
            assert type(c) is MultiPoly
        assert from_polys == from_fractions
        assert hash(tuple(coeffs(from_polys))) == hash(tuple(coeffs(from_fractions)))
    form, field = builds[0][1], builds[1][1]
    assert hash(builds[0][0]) == hash(form)
    assert type(form.pair(field)) is MultiPoly
    assert all(type(c) is MultiPoly for c in form.d().terms.values())
    assert type(field.pth_power().comps[1]) is MultiPoly
    # a real denominator stays a RationalFunction, until it cancels
    polar = chart.dx(0) * (1 / rx)
    assert type(polar.coeff((0,))) is RationalFunction
    assert not polar.is_polynomial
    assert polar.common_denominator() == x
    assert type((form / x).coeff((0,))) is RationalFunction
    assert (form / x).coeff((1,)) == y and type((form / x).coeff((1,))) is MultiPoly
    assert (form / x) * x == form
    assert type(RationalMap(chart, chart, [x, ry / rx]).comps[1]) is RationalFunction


def test_d_squared_zero():
    rng = random.Random(0)
    chart = affine_chart(GF(5), 3)
    for _ in range(20):
        f = random_poly(GF(5), 3, rng, deg=3)
        df = DiffForm(chart, 1, {(i,): f.deriv(i) for i in range(3)})
        assert df.d().is_zero
        alpha = random_one_form(chart, rng)
        assert alpha.d().d().is_zero


def test_d_leibniz():
    rng = random.Random(1)
    chart = affine_chart(GF(7), 3)
    for _ in range(10):
        f = random_poly(GF(7), 3, rng)
        alpha = random_one_form(chart, rng)
        df = DiffForm(chart, 1, {(i,): f.deriv(i) for i in range(3)})
        lhs = (alpha * RationalFunction.from_poly(f)).d()
        rhs = df.wedge(alpha) + alpha.d() * RationalFunction.from_poly(f)
        assert lhs == rhs


def test_wedge_anticommutes():
    rng = random.Random(2)
    chart = affine_chart(GF(5), 4)
    for _ in range(10):
        a = random_one_form(chart, rng)
        b = random_one_form(chart, rng)
        assert a.wedge(b) == -(b.wedge(a))
        assert a.wedge(a).is_zero


def test_contraction_antiderivation():
    rng = random.Random(3)
    chart = affine_chart(GF(5), 3)
    for _ in range(10):
        a = random_one_form(chart, rng)
        b = random_one_form(chart, rng)
        v = random_field(chart, rng)
        lhs = a.wedge(b).contract(v)
        rhs = b * a.pair(v) - a * b.pair(v)
        assert lhs == rhs


def test_lie_bracket_is_derivation():
    rng = random.Random(4)
    chart = affine_chart(GF(7), 3)
    for _ in range(5):
        v = random_field(chart, rng)
        w = random_field(chart, rng)
        f = RationalFunction.from_poly(random_poly(GF(7), 3, rng))
        bracket = v.lie_bracket(w)
        assert bracket.apply(f) == v.apply(w.apply(f)) - w.apply(v.apply(f))


def test_pth_power_is_derivation():
    rng = random.Random(5)
    chart = affine_chart(GF(3), 2)
    for _ in range(10):
        v = random_field(chart, rng)
        f = RationalFunction.from_poly(random_poly(GF(3), 2, rng))
        g = RationalFunction.from_poly(random_poly(GF(3), 2, rng))
        vp = v.pth_power()
        assert vp.apply(f * g) == vp.apply(f) * g + f * vp.apply(g)


def pth_power_reference(v):
    """v^p by iterating v p times on each coordinate over RationalFunction."""
    p = v.chart.ring.characteristic
    return VectorField(
        v.chart, [v.apply_iter(v.chart.var(i), p) for i in range(v.chart.nvars)]
    )


def test_pth_power_matches_iterated_reference():
    rng = random.Random(11)
    for F in (GF(2), GF(3), GF(5), GF(7), GF(3, 2), GF(5, 2), GF(11), GF(13)):
        # at p = 11 and 13 four variables give thousands of terms
        for nvars in (2, 3, 4) if F.characteristic < 11 else (2, 3):
            chart = affine_chart(F, nvars)
            # multilinear components in three or four variables keep the
            # reference fast
            deg = 2 if nvars == 2 else 1
            for trial in range(3):
                comps = [random_poly(F, nvars, rng, deg) for _ in range(nvars)]
                if trial == 0:
                    # a field with zero components
                    comps[rng.randrange(nvars)] = MultiPoly.zero(F, nvars)
                    comps[0] = MultiPoly.zero(F, nvars)
                v = VectorField(chart, comps)
                vp = v.pth_power()
                assert vp == pth_power_reference(v)
                for c in vp.comps:
                    # built by MultiPoly._new: clean tuple keys, no zeros
                    assert all(len(e) == nvars and type(e) is tuple for e in c.terms)
                    assert all(c.terms.values())


def test_pth_power_of_rational_field():
    # (x/y d/dx)^p = x/y^p d/dx: v^k(x) = x/y^k
    for F in (GF(2), GF(3), GF(5, 2)):
        p = F.characteristic
        chart = affine_chart(F, 2)
        x, y = chart.vars()
        v = VectorField(chart, [RationalFunction(x, y), MultiPoly.zero(F, 2)])
        expected = VectorField(
            chart, [RationalFunction(x, y**p), MultiPoly.zero(F, 2)]
        )
        assert v.pth_power() == expected == pth_power_reference(v)


def test_pth_power_needs_positive_characteristic():
    chart = affine_chart(QQ, 2)
    x, y = chart.vars()
    with pytest.raises(ArithmeticError):
        VectorField(chart, [y, x]).pth_power()


def test_pth_power_additive_on_commuting_fields():
    # (v + w)^p = v^p + w^p when [v, w] = 0
    rng = random.Random(6)
    for p in (3, 5):
        chart = affine_chart(GF(p), 2)
        x, y = chart.vars()
        for _ in range(5):
            # fields of the separated form a(x) d/dx and b(y) d/dy commute
            a = random_poly(GF(p), 2, rng, deg=1, nterms=2)
            v = VectorField(chart, [MultiPoly(GF(p), 2,
                {e: c for e, c in a.terms.items() if e[1] == 0}),
                MultiPoly.zero(GF(p), 2)])
            b = random_poly(GF(p), 2, rng, deg=1, nterms=2)
            w = VectorField(chart, [MultiPoly.zero(GF(p), 2),
                MultiPoly(GF(p), 2,
                {e: c for e, c in b.terms.items() if e[0] == 0})])
            assert not v.lie_bracket(w)
            lhs = (v + w).pth_power()
            rhs = v.pth_power() + w.pth_power()
            f = RationalFunction.from_poly(random_poly(GF(p), 2, rng))
            assert lhs.apply(f) == rhs.apply(f)
            assert lhs == rhs


def test_euler_field_pairs_degree():
    chart = cone_chart(GF(5), 2)
    x0, x1, x2 = chart.vars()
    f = x0 * x1**2 + x2**3
    df = DiffForm(chart, 1, {(i,): f.deriv(i) for i in range(3)})
    assert df.pair(euler_field(chart)) == f.scale(GF(5).coerce(3))


def test_saturate_and_content():
    chart = affine_chart(GF(5), 2)
    x, y = chart.vars()
    form = DiffForm(chart, 1, {(0,): x * y, (1,): x * x})
    assert form.content() == x
    sat = form.saturate()
    assert sat.content().is_constant
    assert sat.coeff((0,)) == y


def test_clear_denominators():
    chart = affine_chart(GF(7), 2)
    x, y = chart.vars()
    form = DiffForm(chart, 1, {
        (0,): RationalFunction(MultiPoly.one(GF(7), 2), x),
        (1,): RationalFunction(MultiPoly.one(GF(7), 2), y),
    })
    cleared, den = form.clear_denominators()
    assert cleared.is_polynomial
    assert den == x * y
    assert cleared.coeff((0,)) == y


def test_pullback_functorial():
    rng = random.Random(7)
    F = GF(5)
    a2 = affine_chart(F, 2)
    a3 = affine_chart(F, 3, ("u", "v", "w"))
    # phi: a3 -> a2, psi composed by substitution
    comps = [random_poly(F, 3, rng, deg=2), random_poly(F, 3, rng, deg=2)]
    alpha = random_one_form(a2, rng)
    beta = random_one_form(a2, rng)
    pull = lambda form: pullback_form(form, comps, a3)
    assert pull(alpha.wedge(beta)) == pull(alpha).wedge(pull(beta))
    assert pull(alpha.d()) == pull(alpha).d()


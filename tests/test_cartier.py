import random
from itertools import combinations

import pytest

from pfol.cartier import NotClosedError, cartier_of_product, cartier_transform
from pfol.exterior import DiffForm, affine_chart, cone_chart
from pfol.foliation import (
    cartier_transform_foliation,
    is_p_closed,
    log_foliation,
    p_kernel,
)
from pfol.mpoly import MultiPoly, gcd_multi
from pfol.rings import GF, QQ

from cartier_reference import cartier_reference
from chart_reference import projectivize


def random_poly(ring, nvars, rng, deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in range(nvars))
        c = ring.random(rng)
        if c:
            terms[e] = c
    return MultiPoly(ring, nvars, terms)


def d_of(f):
    chart_nvars = f.nvars
    chart = affine_chart(f.ring, chart_nvars)
    return DiffForm(chart, 1, {(i,): f.deriv(i) for i in range(chart_nvars)})


def test_cartier_of_logarithmic_generator():
    # C(f^(p-1) df) = df
    rng = random.Random(0)
    for p in (3, 5):
        F = GF(p)
        for _ in range(10):
            f = random_poly(F, 2, rng, deg=2, nterms=3)
            if f.is_zero:
                continue
            form = d_of(f) * f ** (p - 1)
            assert cartier_transform(form) == d_of(f)


def test_cartier_kills_exact_forms():
    rng = random.Random(1)
    for p in (3, 5, 7):
        F = GF(p)
        for _ in range(10):
            f = random_poly(F, 3, rng, deg=4)
            assert cartier_transform(d_of(f)).is_zero


def test_cartier_semilinearity():
    # C(g^p alpha) = g C(alpha)
    rng = random.Random(2)
    p = 3
    F = GF(p, 2)
    chart = affine_chart(F, 2)
    for _ in range(10):
        f = random_poly(F, 2, rng, deg=2, nterms=3)
        g = random_poly(F, 2, rng, deg=1, nterms=2)
        closed = d_of(f) * f ** (p - 1)
        lhs = cartier_transform(closed * g**p)
        rhs = cartier_transform(closed) * g
        assert lhs == rhs


def test_cartier_rejects_non_closed():
    chart = affine_chart(GF(3), 2)
    x, y = chart.vars()
    form = DiffForm(chart, 1, {(0,): y, (1,): MultiPoly.zero(GF(3), 2)})
    with pytest.raises(NotClosedError):
        cartier_transform(form)


def test_cartier_golden_value():
    # C(y^(p-1) dy + z^p x^(p-1) dx) = dy + z dx
    for p in (3, 5, 7):
        F = GF(p)
        chart = affine_chart(F, 3)
        x, y, z = chart.vars()
        form = DiffForm(chart, 1, {(1,): y ** (p - 1), (0,): z**p * x ** (p - 1)})
        image = cartier_transform(form)
        expected = DiffForm(chart, 1, {(1,): MultiPoly.one(F, 3), (0,): z})
        assert image == expected
        # the image fails integrability
        assert not image.wedge(image.d()).is_zero


PRUNED_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(3, 2), GF(5, 2)]


def pruned_cases(F, rng):
    """(h, form) pairs on affine and cone charts in 2-4 variables, 1-forms
    and 2-forms.  Each form has a part whose image under C(h^(p-1) .) is
    nonzero (C(h^(p-1) u^p dh) = u dh and C((hg)^(p-1) u^p dh /\\ dg) =
    u dh /\\ dg) plus random terms, and h runs over a random polynomial,
    a monomial and a constant."""
    p = F.characteristic
    for nvars in (2, 3, 4):
        for chart in (affine_chart(F, nvars), cone_chart(F, nvars - 1)):
            xs = chart.vars()
            for h in (
                random_poly(F, nvars, rng, deg=2, nterms=3) + xs[0],
                xs[-1] * xs[0],
                chart.coerce(F.random_nonzero(rng)),
            ):
                g = random_poly(F, nvars, rng, deg=1, nterms=2) + xs[1]
                u = random_poly(F, nvars, rng, deg=1, nterms=2)
                dh = DiffForm(chart, 0, {(): h}).d()
                dg = DiffForm(chart, 0, {(): g}).d()
                noise = {
                    idx: random_poly(F, nvars, rng, deg=p, nterms=3)
                    for q in (1, 2)
                    for idx in combinations(range(nvars), q)
                }
                one_noise = DiffForm(chart, 1, {i: c for i, c in noise.items() if len(i) == 1})
                two_noise = DiffForm(chart, 2, {i: c for i, c in noise.items() if len(i) == 2})
                yield h, dh * u**p + one_noise
                yield h, dh.wedge(dg) * (g ** (p - 1) * u**p) + two_noise
                yield h, one_noise
                yield h, DiffForm(chart, 2, {})


@pytest.mark.parametrize("F", PRUNED_FIELDS, ids=repr)
def test_pruned_cartier_product_matches_the_operator_on_the_full_product(F):
    # C(h^k form) without forming h^k form, against the term-by-term
    # operator applied to the full product; no form needs to be closed,
    # since both routes act monomial by monomial.  eta takes k = p - 1,
    # which is 1 at p = 2
    rng = random.Random(31)
    p = F.characteristic
    nonzero = 0
    for h, form in pruned_cases(F, rng):
        for k in sorted({1, p - 1, p + 1}):
            expected = cartier_reference(form * h**k)
            assert cartier_of_product(h, k, form) == expected
            nonzero += k == p - 1 and not expected.is_zero
    assert nonzero >= 24


@pytest.mark.parametrize("F", PRUNED_FIELDS, ids=repr)
def test_cartier_transform_matches_the_reference(F):
    # closed forms h^(p-1) u^p dh, dg, d(g dh) and (x_0 x_1)^(p-1) u^p
    # dx_0 /\ dx_1 on the charts of the pruned cases
    rng = random.Random(32)
    p = F.characteristic
    nonzero = 0
    for h, form in pruned_cases(F, rng):
        chart = form.chart
        xs = chart.vars()
        g = random_poly(F, chart.nvars, rng, deg=p + 1, nterms=4)
        u = random_poly(F, chart.nvars, rng, deg=1, nterms=2)
        dh = DiffForm(chart, 0, {(): h}).d()
        dg = DiffForm(chart, 0, {(): g}).d()
        area = chart.dx(0).wedge(chart.dx(1))
        for closed in (
            dh * (h ** (p - 1) * u**p),
            dg,
            (dh * g).d(),
            area * ((xs[0] * xs[1]) ** (p - 1) * u**p),
        ):
            assert closed.d().is_zero
            image = cartier_transform(closed)
            assert image == cartier_reference(closed)
            nonzero += not image.is_zero
    assert nonzero >= 80


def test_pruned_cartier_product_rejects_characteristic_zero():
    chart = affine_chart(QQ, 2)
    x, y = chart.vars()
    with pytest.raises(ArithmeticError, match="characteristic p"):
        cartier_of_product(x, 1, chart.dx(0))


def test_cartier_transform_checks_the_characteristic_before_closedness():
    chart = affine_chart(QQ, 2)
    x, y = chart.vars()
    # y dx is not closed, but characteristic zero is reported first
    with pytest.raises(ArithmeticError, match="characteristic p"):
        cartier_transform(chart.dx(0) * y)


def cartier_rational_reference(num, den):
    """C on the closed rational form num / den, as a pair (numerator,
    denominator).  With q = den / gcd(den, content num) the least
    denominator, q^p num / den = q^(p-1) (num / gcd) is a polynomial form,
    and C(num / den) = C(q^p num / den) / q."""
    p = num.chart.ring.characteristic
    g = gcd_multi(den, num.content())
    q = den.exact_div(g)
    reduced = DiffForm(num.chart, num.q, {i: c.exact_div(g) for i, c in num.terms.items()})
    return cartier_transform(reduced * q ** (p - 1)), q


def same_value(a, b):
    """Whether the pairs (numerator, denominator) a and b are one rational form."""
    return a[0] * b[1] == b[0] * a[1]


def clear_and_saturate(num, den):
    """The rational form num / den cleared by the monic least common
    denominator of its reduced coefficients, then saturated."""
    reduced = {}
    lcd = MultiPoly.one(den.ring, den.nvars)
    for idx, c in num.terms.items():
        g = gcd_multi(c, den)
        d = den.exact_div(g)
        reduced[idx] = (c.exact_div(g), d)
        lcd = lcd.exact_div(gcd_multi(lcd, d)) * d
    lcd = lcd.monic()
    cleared = {idx: n * lcd.exact_div(d) for idx, (n, d) in reduced.items()}
    return DiffForm(num.chart, num.q, cleared).saturate()


def rational_route(fol):
    """The saturated Cartier transform and kernel 2-form of a foliation,
    computed from the closed rational form omega / omega(v^p)."""
    eta, q = cartier_rational_reference(fol.form, fol.pcurvature.f)
    return [clear_and_saturate(form, q) for form in (eta, fol.form.wedge(eta))]


def test_cartier_rational_clearing_invariance():
    # the value of C on a rational closed form does not depend on how the
    # denominator is cleared
    p = 5
    F = GF(p)
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    # dx/x + dy/y
    form = (DiffForm(chart, 1, {(0,): y, (1,): x}), x * y)
    base = cartier_rational_reference(*form)
    for extra in ((x + y) ** p, (x + y) * 2, x * y):
        num, den = form[0] * extra, form[1] * extra
        assert same_value(cartier_rational_reference(num, den), base)
        # clearing by den itself, not the least denominator
        assert same_value((cartier_transform(num * den ** (p - 1)), den), base)
    assert same_value(base, form)
    # dlog x is a fixed point
    dlogx = (chart.dx(0), x)
    assert same_value(cartier_rational_reference(*dlogx), dlogx)


def w1_foliation(p, seed):
    """A generic degree-two foliation on P^2 over F_p: each coefficient of
    a dx + b dy sums F.random(rng) x^i y^j over i + j <= 2, a first."""
    F = GF(p)
    rng = random.Random(seed)
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    coeffs = []
    for _ in range(2):
        acc = MultiPoly.zero(F, 2)
        for i in range(3):
            for j in range(3 - i):
                acc = acc + (x**i * y**j).scale(F.random(rng))
        coeffs.append(acc)
    return projectivize(DiffForm(chart, 1, {(0,): coeffs[0], (1,): coeffs[1]}))


def log_foliations(p, rng):
    """Two p-dense log foliations over GF(p^2) on A^3, with components x, y
    and a random affine-linear one, and two on P^3, with components the
    quadric x0 x1 - x2 x3 + x0^2 and x0, x1, x2."""
    F = GF(p, 2)
    chart = affine_chart(F, 3)
    x, y, z = chart.vars()
    cone = cone_chart(F, 3)
    x0, x1, x2, x3 = cone.vars()
    quadric = x0 * x1 - x2 * x3 + x0**2
    affine, projective = [], []
    while len(affine) < 2 or len(projective) < 2:
        lin = MultiPoly.one(F, 3) + x.scale(F.random_nonzero(rng)) + z.scale(
            F.random_nonzero(rng)
        )
        weights = [F.random_nonzero(rng) for _ in range(3)]
        fol = log_foliation([x, y, lin], weights)
        if len(affine) < 2 and not is_p_closed(fol):
            affine.append(fol)
        w = [F.random_nonzero(rng) for _ in range(3)]
        last = -(w[0] * F.coerce(2) + w[1] + w[2])
        if len(projective) < 2 and last:
            fol = log_foliation([quadric, x0, x1, x2], w + [last], projective=True)
            if not is_p_closed(fol):
                projective.append(fol)
    return affine + projective


def test_polynomial_cartier_route_matches_rational_reference():
    # C(f^(p-1) omega), saturated and scaled by 1/lc(f), is exactly the
    # saturated C(omega / f) of the rational route, and so is the kernel
    foliations = [w1_foliation(p, seed) for p in (2, 3) for seed in (1, 2, 3, 4)]
    rng = random.Random(4)
    for p in (3, 5):
        foliations.extend(log_foliations(p, rng))
    for fol in foliations:
        eta, theta = rational_route(fol)
        assert cartier_transform_foliation(fol)[0] == eta
        assert p_kernel(fol).two_form == theta


def test_classify_not_closed():
    chart = affine_chart(GF(5), 2)
    x, y = chart.vars()
    form = DiffForm(chart, 1, {(0,): y})
    assert not form.d().is_zero
    with pytest.raises(NotClosedError):
        cartier_transform(form)


def test_classify_exact():
    # an exact form d f maps to 0
    rng = random.Random(3)
    F = GF(7)
    for _ in range(10):
        f = random_poly(F, 2, rng, deg=4)
        assert cartier_transform(d_of(f)).is_zero


def test_classify_closed_not_exact():
    # x^(p-1) dx is closed with no polynomial primitive: it maps to dx
    p = 5
    F = GF(p)
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    form = DiffForm(chart, 1, {(0,): x ** (p - 1)})
    assert cartier_transform(form) == chart.dx(0)


def test_classify_two_forms():
    p = 3
    F = GF(p)
    chart = affine_chart(F, 3)
    x, y, z = chart.vars()
    # d(x dy) = dx /\ dy is locally exact: it maps to 0
    form = DiffForm(chart, 1, {(1,): x}).d()
    assert cartier_transform(form).is_zero
    # (xy)^(p-1) dx /\ dy is closed but not locally exact
    form = DiffForm(chart, 2, {(0, 1): (x * y) ** (p - 1)})
    image = cartier_transform(form)
    assert not image.is_zero
    assert image == chart.dx(0).wedge(chart.dx(1))

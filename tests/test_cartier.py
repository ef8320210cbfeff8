import random

import pytest

from pfol.cartier import (
    NotClosedError,
    cartier_transform,
    classify_closedness,
)
from pfol.exterior import DiffForm, affine_chart, cone_chart
from pfol.foliation import (
    cartier_transform_foliation,
    closed_defining_form,
    is_p_closed,
    log_foliation,
    p_kernel,
    projectivize,
)
from pfol.mpoly import MultiPoly, gcd_multi
from pfol.rings import GF


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
    eta, q = cartier_rational_reference(*closed_defining_form(fol))
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
    res = classify_closedness(form)
    assert res["status"] == "not_closed"
    assert not res["witness"].is_zero


def test_classify_exact():
    rng = random.Random(3)
    F = GF(7)
    for _ in range(10):
        f = random_poly(F, 2, rng, deg=4)
        res = classify_closedness(d_of(f))
        assert res["status"] == "exact"
        assert d_of(res["primitive"]) == d_of(f)


def test_classify_closed_not_exact():
    # x^(p-1) dx is closed with no polynomial primitive
    p = 5
    F = GF(p)
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    form = DiffForm(chart, 1, {(0,): x ** (p - 1)})
    res = classify_closedness(form)
    assert res["status"] == "closed_not_exact"
    assert res["obstruction"] == form


def test_classify_two_forms():
    p = 3
    F = GF(p)
    chart = affine_chart(F, 3)
    x, y, z = chart.vars()
    exact2 = DiffForm(chart, 2, {(0, 1): x * y}).d()  # a 3-form: skip
    # d(x dy) = dx /\ dy is locally exact
    form = DiffForm(chart, 1, {(1,): x}).d()
    res = classify_closedness(form)
    assert res["status"] == "locally_exact"
    # (xy)^(p-1) dx /\ dy is closed but not locally exact
    form = DiffForm(chart, 2, {(0, 1): (x * y) ** (p - 1)})
    res = classify_closedness(form)
    assert res["status"] == "closed_not_exact"
    assert not res["cartier_image"].is_zero

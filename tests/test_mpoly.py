import random
from fractions import Fraction

import pytest

from pfol.mpoly import (
    MultiPoly,
    RationalFunction,
    gcd_list,
    gcd_multi,
    multiplicity_along,
    poly_str,
    pth_root_poly,
    squarefree_decomposition,
)
from pfol.rings import GF, QQ, ZZ


def random_poly(ring, nvars, rng, deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in range(nvars))
        c = ring.random(rng)
        if c:
            terms[e] = c
    return MultiPoly(ring, nvars, terms)


def test_ring_axioms_sampled():
    rng = random.Random(0)
    for ring in (GF(5), GF(3, 2), QQ, ZZ):
        for _ in range(20):
            f = random_poly(ring, 3, rng)
            g = random_poly(ring, 3, rng)
            h = random_poly(ring, 3, rng)
            assert f + g == g + f
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert (f - f).is_zero


def test_divmod_identity():
    rng = random.Random(1)
    F = GF(7)
    for _ in range(30):
        f = random_poly(F, 2, rng, deg=4)
        g = random_poly(F, 2, rng, deg=2)
        if g.is_zero:
            continue
        q, r = f.divmod_poly(g)
        assert q * g + r == f
    # exact divisibility
    f = random_poly(F, 3, rng, deg=3)
    g = random_poly(F, 3, rng, deg=2)
    if not f.is_zero and not g.is_zero:
        assert g.divides(f * g)
        assert (f * g).exact_div(g) == f


def test_deriv_leibniz():
    rng = random.Random(2)
    F = GF(5)
    for _ in range(20):
        f = random_poly(F, 3, rng)
        g = random_poly(F, 3, rng)
        for i in range(3):
            assert (f * g).deriv(i) == f.deriv(i) * g + f * g.deriv(i)


def test_gcd_basic():
    F = GF(5)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    f = (x + y) * (x - y)
    g = (x + y) * x
    assert gcd_multi(f, g) == (x + y).monic()
    assert gcd_list([f, g, (x + y) * y]) == (x + y).monic()


def test_gcd_divides_and_scales():
    rng = random.Random(3)
    F = GF(3, 2)
    for _ in range(10):
        a = random_poly(F, 2, rng, deg=2, nterms=3)
        b = random_poly(F, 2, rng, deg=2, nterms=3)
        c = random_poly(F, 2, rng, deg=2, nterms=3)
        if a.is_zero or b.is_zero or c.is_zero:
            continue
        g = gcd_multi(a * c, b * c)
        assert g.divides(a * c) and g.divides(b * c)
        assert c.monic().divides(g)


def test_gcd_over_q_and_z():
    x = MultiPoly.var(QQ, 2, 0)
    y = MultiPoly.var(QQ, 2, 1)
    f = (x**2 - y**2).scale(Fraction(1, 2))
    g = (x + y) ** 2
    assert gcd_multi(f, g) == (x + y).monic()
    xz = MultiPoly.var(ZZ, 2, 0)
    with pytest.raises(ArithmeticError):
        gcd_multi(xz, xz)


def test_pth_root_poly():
    F = GF(3)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    f = x + y.scale(F.coerce(2))
    assert pth_root_poly(f**3) == f


def test_squarefree_decomposition():
    F = GF(5)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    f = (x + y) ** 2 * (x - y) * (x * y + 1) ** 3
    dec = squarefree_decomposition(f)
    rebuilt = MultiPoly.one(F, 2)
    for comp, m in dec:
        rebuilt = rebuilt * comp**m
    assert rebuilt == f.monic()
    mults = sorted(m for _, m in dec)
    assert mults == [1, 2, 3]


def test_squarefree_pth_power_branch():
    # f = g^p is invisible to the derivative test and needs the p-th root
    F = GF(3)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    f = (x + y) ** 3 * (x - y)
    dec = squarefree_decomposition(f)
    assert sorted(m for _, m in dec) == [1, 3]


def test_multiplicity_along():
    F = GF(7)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    f = x**3 * (x + y) ** 2 * (y + 1)
    assert multiplicity_along(f, x) == 3
    assert multiplicity_along(f, x + y) == 2
    assert multiplicity_along(f, y + 1) == 1
    assert multiplicity_along(f, y) == 0


def test_homogenize_dehomogenize():
    F = GF(5)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    f = x**2 + y + 1
    h = f.insert_var(2).homogenize(2)
    assert h.is_homogeneous() and h.total_degree() == 2
    assert h.set_var_one(2) == f.insert_var(2)


def test_pow_squares_only_while_bits_remain(monkeypatch):
    F = GF(5)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    f = x + y.scale(F.coerce(2)) + MultiPoly.one(F, 2)
    powers = [MultiPoly.one(F, 2)]
    for _ in range(6):
        powers.append(powers[-1] * f)
    calls = []
    mul = MultiPoly.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    assert f**4 == powers[4]
    assert len(calls) <= 3
    assert [f**e for e in range(7)] == powers


def test_rational_function_reduction():
    F = GF(5)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    r = RationalFunction(x**2 - y**2, x + y)
    assert r.is_polynomial
    assert r.as_poly() == x - y
    s = RationalFunction(x, y) + RationalFunction(y, x)
    assert s.num == x**2 + y**2 and s.den == x * y
    assert (s - s).is_polynomial


def test_rational_function_deriv():
    F = GF(7)
    x = MultiPoly.var(F, 1, 0)
    r = RationalFunction(MultiPoly.one(F, 1), x)
    # d(1/x) = -1/x^2
    d = r.deriv(0)
    assert d == -(r * r)


def test_poly_str_and_eval():
    F = GF(5)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    f = x**2 * y + y.scale(F.coerce(3)) + 1
    assert poly_str(f) == "x^2*y + 3*y + 1"
    assert f.eval([F.coerce(2), F.coerce(1)]) == F.coerce(4 + 3 + 1)


def test_nonfield_denominators_rejected():
    x = MultiPoly.var(ZZ, 1, 0)
    with pytest.raises(Exception):
        RationalFunction(MultiPoly.one(ZZ, 1), x)

import random
from fractions import Fraction

import pytest

import pfol.mpoly as mpoly
from pfol.mpoly import (
    MultiPoly,
    gcd_list,
    gcd_multi,
    poly_str,
    pth_root_poly,
    squarefree_decomposition,
)
from pfol.rings import GF, QQ, TABLE_LIMIT, ZZ, NumberRing

from chart_reference import multiplicity_along
from gcd_reference import (
    count_prem_calls,
    gcd_list_reference,
    gcd_prs_reference,
    prs_prem,
    prs_univar_view,
)


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


def test_poly_str_and_eval():
    F = GF(5)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    f = x**2 * y + y.scale(F.coerce(3)) + 1
    assert poly_str(f) == "x^2*y + 3*y + 1"
    assert f.eval([F.coerce(2), F.coerce(1)]) == F.coerce(4 + 3 + 1)


# ---------------------------------------------------------------------------
# the gcd routes against the primitive pseudo-remainder sequence they replace


REFERENCE_RINGS = [GF(2), GF(3), GF(5), GF(3, 2), GF(5, 2), QQ]


def random_form(ring, nvars, deg, nterms, rng, first=0):
    """A nonzero form of degree deg in the variables first..nvars-1."""
    while True:
        terms = {}
        for _ in range(nterms):
            e = [0] * nvars
            for _ in range(deg):
                e[rng.randrange(first, nvars)] += 1
            terms[tuple(e)] = ring.random(rng)
        f = MultiPoly(ring, nvars, terms)
        if not f.is_zero:
            return f


def pure_prs(monkeypatch, fn, *args):
    """fn(*args) with every gcd taken by the reference PRS, which tries no
    shortcut of ``gcd_multi``."""
    with monkeypatch.context() as m:
        m.setattr(mpoly, "gcd_multi", gcd_prs_reference)
        return fn(*args)


def assert_matches_reference(f, g, monkeypatch):
    assert gcd_multi(f, g) == gcd_prs_reference(f, g)
    assert gcd_multi(g, f) == gcd_prs_reference(f, g)
    for h in (f, g):
        assert squarefree_decomposition(h) == pure_prs(monkeypatch, squarefree_decomposition, h)


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=repr)
def test_homogeneous_gcd_matches_reference(ring, monkeypatch):
    rng = random.Random(11)
    q = ring.characteristic or 2
    for nvars in (2, 3, 4):
        x0 = MultiPoly.var(ring, nvars, 0)
        for case in range(4):
            # common factor; x_0^k factors; repeated and p-th-power factors;
            # forms that do not involve x_0
            first = 1 if case == 3 and nvars > 2 else 0
            a, b, c = (random_form(ring, nvars, d, 3, rng, first) for d in (1, 2, 1))
            if case == 0:
                f, g = a * c, b * c
            elif case == 1:
                f, g = x0**2 * a * c, x0 * b * c**2
            elif case == 2:
                f, g = a**2 * c**q * b, c ** (q + 1) * a
            else:
                f, g = a * b * c, b * c**2
            assert_matches_reference(f, g, monkeypatch)


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=repr)
def test_inhomogeneous_gcd_matches_reference(ring, monkeypatch):
    rng = random.Random(12)
    for _ in range(4):
        a, b, c = (random_poly(ring, 2, rng, deg=2, nterms=3) for _ in range(3))
        if a.is_zero or b.is_zero or c.is_zero:
            continue
        assert_matches_reference(a * c, b * c * c, monkeypatch)


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=repr)
def test_univariate_gcd_matches_reference(ring, monkeypatch):
    rng = random.Random(13)
    q = ring.characteristic or 2
    nvars = 3
    for v in range(nvars):
        t = MultiPoly.var(ring, nvars, v)
        one = MultiPoly.one(ring, nvars)

        def rand(deg):
            return sum((t**d).scale(ring.random(rng)) for d in range(deg)) + t**deg

        a, b, c = rand(2), rand(3), rand(1)
        assert_matches_reference(a * c * c, b * c**q * (t + one), monkeypatch)
        unit = next(c for c in iter(lambda: ring.random(rng), None) if c)
        assert_matches_reference(a * t, (b * t).scale(unit), monkeypatch)


# ---------------------------------------------------------------------------
# the arithmetic kernels against the routes they replace


def ring_element_mul(f, g):
    """f * g by multiplying coefficients as ring elements, one product and
    one sum at a time, skipping zero products and dropping zero sums as
    they arise."""
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            c = c1 * c2
            if not c:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return MultiPoly(f.ring, f.nvars, terms)


def divmod_reference(f, g):
    """Division with remainder that rebuilds the working polynomial for
    every quotient term."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    ge, gc = g.leading()
    q = MultiPoly.zero(f.ring, f.nvars)
    rem = MultiPoly.zero(f.ring, f.nvars)
    work = f
    while work.terms:
        e, c = work.leading()
        lead = MultiPoly(f.ring, f.nvars, {e: c})
        if all(a >= b for a, b in zip(e, ge)):
            try:
                qc = f._coeff_div(c, gc)
            except ArithmeticError:
                rem = rem + lead
                work = work - lead
                continue
            mono = MultiPoly(f.ring, f.nvars, {tuple(a - b for a, b in zip(e, ge)): qc})
            q = q + mono
            work = work - mono * g
        else:
            rem = rem + lead
            work = work - lead
    return q, rem


PRIME_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(13), GF(65537)]
# a^2 - 1 is reducible: (a - 1)(a + 1) = 0, so products of nonzero
# coefficients can vanish in NR:a^2-1
MUL_RINGS = PRIME_FIELDS + [
    GF(3, 2), GF(5, 2), GF(257, 2), QQ, ZZ, NumberRing([-1, 0, 1])
]


def test_prime_field_mul_matches_ring_element_loop():
    assert GF(65537).order > TABLE_LIMIT
    assert GF(257, 2).order > TABLE_LIMIT
    rng = random.Random(21)
    for R in MUL_RINGS:
        for nvars in (1, 2, 3, 4):
            zero = MultiPoly.zero(R, nvars)
            const = MultiPoly.zero(R, nvars)
            while not const:
                const = MultiPoly.const(R, nvars, R.random(rng))
            x = MultiPoly.var(R, nvars, 0)
            y = MultiPoly.var(R, nvars, nvars - 1)
            # (x + y)(x - y): the cross terms cancel; in characteristic 2
            # (x + y)^2 loses its middle term the same way
            cases = [(zero, const), (const, const), (x + y, x - y), (x + y, x + y)]
            for _ in range(6):
                f = random_poly(R, nvars, rng, deg=3, nterms=5)
                g = random_poly(R, nvars, rng, deg=2, nterms=4)
                cases += [(f, g), (f, zero), (const, g), (f, f)]
            if isinstance(R, NumberRing):
                a = R.generator()
                u, v = x * (a - 1), x * (a + 1)
                cases += [(u + y, v), (u, y * (a + 1) + 1)]
            for f, g in cases:
                expected = ring_element_mul(f, g)
                assert (f * g).terms == expected.terms
                assert (g * f).terms == expected.terms
            assert (x + y) * (x - y) == x * x - y * y
            if isinstance(R, NumberRing):
                assert u * v == zero


DIVMOD_RINGS = [GF(2), GF(5), GF(3, 2), QQ, ZZ]


@pytest.mark.parametrize("ring", DIVMOD_RINGS, ids=repr)
def test_divmod_matches_rebuilding_reference(ring):
    rng = random.Random(22)
    for nvars in (1, 2, 3):
        for _ in range(12):
            f = random_poly(ring, nvars, rng, deg=4, nterms=6)
            g = random_poly(ring, nvars, rng, deg=2, nterms=3)
            if g.is_zero:
                continue
            for dividend in (f, f * g, f * g + f):
                q, r = dividend.divmod_poly(g)
                assert (q, r) == divmod_reference(dividend, g)
                assert q * g + r == dividend


def test_divmod_over_z_sends_inexact_leading_terms_to_the_remainder():
    x = MultiPoly.var(ZZ, 2, 0)
    y = MultiPoly.var(ZZ, 2, 1)
    g = x.scale(2) + y
    # 3x^2: the leading monomial divides but 2 does not divide 3
    for f in (x * x * 3 + x * y + 1, x * x * 4 + x * y * 3 + y, y * y * 5 + x * 7):
        q, r = f.divmod_poly(g)
        assert (q, r) == divmod_reference(f, g)
        assert q * g + r == f
    q, r = (x * x * 3 + 1).divmod_poly(g)
    assert q.is_zero and r == x * x * 3 + 1
    q, r = (x * x * 4 + x * y * 2).divmod_poly(g)
    assert q == x * 2 and r.is_zero


def test_univar_view_matches_termwise_sum():
    rng = random.Random(23)
    for ring in (GF(3), GF(5, 2), QQ, ZZ):
        for nvars in (1, 2, 3):
            f = random_poly(ring, nvars, rng, deg=3, nterms=8)
            for v in range(nvars):
                assert mpoly._univar_view(f, v) == prs_univar_view(f, v)


def assert_clean(f, nvars):
    """The contract of ``MultiPoly._new``: tuple keys of length nvars and no
    zero coefficient."""
    assert isinstance(f, MultiPoly) and f.nvars == nvars
    for e, c in f.terms.items():
        assert type(e) is tuple and len(e) == nvars
        assert all(type(k) is int and k >= 0 for k in e)
        assert c


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(7), GF(3, 2), QQ, ZZ], ids=repr)
def test_arithmetic_results_keep_the_new_contract(ring):
    rng = random.Random(24)
    for nvars in (1, 2, 3, 4):
        for _ in range(8):
            f = random_poly(ring, nvars, rng, deg=3, nterms=5)
            g = random_poly(ring, nvars, rng, deg=2, nterms=3)
            results = [f + g, f + (-f), -f, f - g, f - f, f * g, f * (f - f)]
            results += [f.deriv(i) for i in range(nvars)]
            if not g.is_zero:
                results += list((f * g + f).divmod_poly(g))
            for h in results:
                assert_clean(h, nvars)
            for v in range(nvars):
                for c in mpoly._univar_view(f - g, v).values():
                    assert_clean(c, nvars)
            if nvars > 1:
                for pos in range(nvars):
                    assert_clean((f - g).set_var_one(pos), nvars - 1)


# ---------------------------------------------------------------------------
# the gcd shortcuts against the routes they replace


def nonzero_scalar(ring, rng):
    return next(c for c in iter(lambda: ring.random(rng), None) if c)


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=repr)
def test_gcd_list_matches_left_fold_of_reference(ring):
    rng = random.Random(41)
    # the reference's PRS over Q swells in three variables
    for nvars in (1, 2) if ring.characteristic == 0 else (1, 2, 3):
        zero = MultiPoly.zero(ring, nvars)
        unit = MultiPoly.const(ring, nvars, nonzero_scalar(ring, rng))
        for _ in range(3):
            a, b, d = (random_poly(ring, nvars, rng, deg=2, nterms=3) for _ in range(3))
            c = random_poly(ring, nvars, rng, deg=1, nterms=2) + MultiPoly.var(ring, nvars, 0)
            lists = [
                [a * c, zero, b * c, zero, d * c],  # zero entries
                [zero, zero, zero],  # all zero
                [unit, a * c],  # a constant
                [c, a * c, b * c, c * c],  # the first element is the gcd
                [a * c * c, b * c * d, zero, c * d * a],
                [b * c],
                [d * c, (d * c).scale(nonzero_scalar(ring, rng))],
            ]
            for polys in lists:
                assert gcd_list(polys) == gcd_list_reference(polys)
                assert gcd_list(polys[::-1]) == gcd_list_reference(polys)


def test_gcd_list_refuses_what_gcd_multi_refuses():
    x = MultiPoly.var(ZZ, 2, 0)
    with pytest.raises(ArithmeticError, match="coefficient field"):
        gcd_list([x, x * x])
    with pytest.raises(ArithmeticError, match="coefficient field"):
        gcd_list([x - x])
    with pytest.raises(ValueError, match="empty"):
        gcd_list([])
    with pytest.raises(ValueError, match="different contexts"):
        gcd_list([MultiPoly.var(GF(3), 2, 0), MultiPoly.var(GF(5), 2, 0)])
    with pytest.raises(ValueError, match="different contexts"):
        gcd_list([MultiPoly.var(GF(3), 2, 0), MultiPoly.var(GF(3), 3, 0)])


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(7), GF(3, 2), GF(5, 2), QQ, ZZ], ids=repr)
def test_divides_matches_the_remainder_of_division(ring):
    rng = random.Random(42)
    hits = 0
    for nvars in (1, 2, 3):
        zero = MultiPoly.zero(ring, nvars)
        for _ in range(10):
            f = random_poly(ring, nvars, rng, deg=3, nterms=5)
            g = random_poly(ring, nvars, rng, deg=2, nterms=3)
            two_g = g.scale(2)
            pairs = [(g, f), (g, f * g), (g, f * g + f), (f, f * g), (g, zero),
                     (zero, f), (zero, zero), (two_g, f * g), (g, f * two_g)]
            for a, b in pairs:
                expected = b.is_zero if a.is_zero else b.divmod_poly(a)[1].is_zero
                assert a.divides(b) == expected
                hits += expected
    assert hits >= 60


def test_divides_over_z_counts_an_inexact_coefficient_as_a_remainder():
    x = MultiPoly.var(ZZ, 2, 0)
    y = MultiPoly.var(ZZ, 2, 1)
    g = x.scale(2) + y
    assert not g.divides(x * x * 3 + x * y)
    assert g.divides(x * x * 4 + x * y * 2)
    assert not g.divides(x * x * 4 + x * y * 2 + 1)
    assert not (x * 2).divides(x * 3)


@pytest.mark.parametrize("ring", [GF(2), GF(5), GF(3, 2), QQ, ZZ], ids=repr)
def test_prem_on_univariate_views_matches_whole_polynomial_reference(ring):
    rng = random.Random(43)
    for nvars in (1, 2, 3):
        for _ in range(8):
            a = random_poly(ring, nvars, rng, deg=4, nterms=6)
            b = random_poly(ring, nvars, rng, deg=2, nterms=3)
            if b.is_zero:
                continue
            for v in range(nvars):
                for dividend in (a, a * b, b):
                    assert mpoly._prem(dividend, b, v) == prs_prem(dividend, b, v)


@pytest.mark.parametrize("ring", [GF(2), GF(3, 2), GF(7), QQ], ids=repr)
def test_gcd_with_a_monomial_matches_the_reference(ring):
    rng = random.Random(44)
    for nvars in (1, 2, 3):
        one = MultiPoly.one(ring, nvars)
        for _ in range(6):
            exps = [tuple(rng.randrange(4) for _ in range(nvars)) for _ in range(3)]
            monos = [
                MultiPoly.monomial(ring, nvars, e, nonzero_scalar(ring, rng)) for e in exps
            ]
            m, m2 = monos[0], monos[1]
            f = random_poly(ring, nvars, rng, deg=3, nterms=4)
            if f.is_zero:
                f = one + MultiPoly.var(ring, nvars, 0)
            pairs = [
                (m, f),                      # no monomial factor in general
                (m, f * m2),                 # a monomial factor
                (f * m * m2, m2),            # the monomial divides the polynomial
                (m, m2),                     # two monomials
                (m, MultiPoly.var(ring, nvars, nvars - 1) + one),  # exponents of 0
                (MultiPoly.monomial(ring, nvars, (0,) * (nvars - 1) + (2,), 1), f),
            ]
            for a, b in pairs:
                expected = gcd_prs_reference(a, b)
                assert gcd_multi(a, b) == expected
                assert gcd_multi(b, a) == expected
            lists = [monos, [m, f * m, m2 * m], [m, MultiPoly.zero(ring, nvars), m2]]
            for polys in lists:
                assert gcd_list(polys) == gcd_list_reference(polys)
                assert gcd_list(polys[::-1]) == gcd_list_reference(polys)


SHORTCUT_RINGS = [GF(3), GF(3, 2), GF(5, 2), QQ]


def no_monomial_factor(ring, nvars, rng):
    """A nonconstant polynomial with a nonzero constant term, so that no
    variable divides it."""
    while True:
        f = random_poly(ring, nvars, rng, deg=1, nterms=2) + MultiPoly.var(
            ring, nvars, rng.randrange(nvars)
        )
        if not f.is_constant and (0,) * nvars in f.terms:
            return f


@pytest.mark.parametrize("ring", SHORTCUT_RINGS, ids=repr)
def test_gcd_multi_shortcuts_match_the_reference(ring, monkeypatch):
    rng = random.Random(61)
    prem_calls = count_prem_calls(monkeypatch)
    image_settled = 0
    for nvars in (2, 3, 4):
        for _ in range(3):
            r, s, q = (no_monomial_factor(ring, nvars, rng) for _ in range(3))
            m1, m2, m3 = (
                MultiPoly.monomial(ring, nvars, [rng.randrange(3) for _ in range(nvars)],
                                   nonzero_scalar(ring, rng))
                for _ in range(3)
            )
            d = m3 * r  # a divisor with a monomial factor of its own
            divisor_pairs = [
                (m1 * r, m2 * r * s),  # x^a r against x^b r s
                (m1 * d, m2 * d * q),  # a monomial factor on each side
                (r * s, (r * s).scale(nonzero_scalar(ring, rng))),  # equal rests
                # pairs (w, c) of the squarefree loop where c divides w
                (m1 * m2 * r * s * q, m2 * s * q),
                (m1 * m2 * s * q, m2 * q),
            ]
            for f, g in divisor_pairs:
                expected = gcd_prs_reference(f, g)
                prem_calls.clear()
                assert gcd_multi(f, g) == expected
                assert gcd_multi(g, f) == expected
                assert not prem_calls
            # coprime rests: over Q one image mod a prime settles them
            f, g = m1 * r * q, m2 * s
            expected = gcd_prs_reference(f, g)
            prem_calls.clear()
            assert gcd_multi(f, g) == expected
            assert gcd_multi(g, f) == expected
            if ring == QQ and gcd_prs_reference(r * q, s).is_constant:
                # the images mod p may take a PRS of their own
                assert all(a.ring != QQ for a, _, _ in prem_calls)
                image_settled += 1
    assert image_settled >= 8 if ring == QQ else image_settled == 0


def test_q_image_needs_a_prime_that_keeps_a_leading_coefficient(monkeypatch):
    p = mpoly.CONTENT_PRIME
    x, y, z = (MultiPoly.var(QQ, 3, i) for i in range(3))
    # h = p x + 1 has the image 1 mod p, and p divides both leading
    # coefficients, so the coprime images prove nothing
    h = x * p + 1
    for f, g in ((h * (y + 1), h * (z + 2)), (h * (y + 1), (h * (z + 2)).scale(Fraction(1, 3)))):
        assert gcd_multi(f, g) == gcd_multi(g, f) == gcd_prs_reference(f, g) == h.monic()
    # one leading coefficient prime to p is enough
    prem_calls = count_prem_calls(monkeypatch)
    f, g = x * y + 1, (x * z).scale(p) + y + 2
    assert gcd_multi(f, g) == gcd_multi(g, f) == 1
    assert all(a.ring != QQ for a, _, _ in prem_calls)


def test_gcd_list_stops_at_a_constant(monkeypatch):
    F = GF(5)
    x, y = MultiPoly.var(F, 2, 0), MultiPoly.var(F, 2, 1)
    calls = []
    real = mpoly.gcd_multi

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(mpoly, "gcd_multi", counting)
    polys = [x + 1, y + 2, (x + y) ** 2, x * y * (x + 3)]
    assert gcd_list(polys) == 1
    # from zero to x + 1, then to 1 with y + 2
    assert [g for _, g in calls] == [x + 1, y + 2]


# ---------------------------------------------------------------------------
# one-image certificates over GF(p) in the plane


CERTIFICATE_RINGS = [GF(2), GF(3), GF(5), GF(7)]


def rest_of(f):
    """f divided by the largest monomial that divides it."""
    m = [min(e[i] for e in f.terms) for i in range(f.nvars)]
    return f.exact_div(MultiPoly.monomial(f.ring, f.nvars, m))


def certified_coprime(f, g):
    """Whether the certificate proves the rests of f and g coprime."""
    a, b = (mpoly._plane_rows(rest_of(h)) for h in (f, g))
    return mpoly._certify_coprime(a, b, f.ring.p)


def plane_pairs(ring, nvars, rng):
    """Seeded pairs (f, g, whether the rests may be coprime) in the plane:
    two variables, or forms in three.  x and y are the last two variables;
    a factor in x or y alone is homogenized with x_0 for forms."""
    if nvars == 2:
        def rand(deg, nterms):
            f = random_poly(ring, 2, rng, deg=deg, nterms=nterms)
            return f if len(f.terms) > 1 else f + MultiPoly.var(ring, 2, 0) + 1
        one = MultiPoly.one(ring, 2)
    else:
        def rand(deg, nterms):
            return random_form(ring, 3, deg, nterms, rng)
        one = MultiPoly.var(ring, 3, 0)
    x = MultiPoly.var(ring, nvars, nvars - 2)
    y = MultiPoly.var(ring, nvars, nvars - 1)
    c = nonzero_scalar(ring, rng)
    in_y = y * y + (one * one).scale(c)
    in_x = x + one.scale(c)
    a, b, s = rand(2, 3), rand(2, 4), rand(1, 2)
    pairs = [
        (a, b, True),
        (a * s, b, True),
        (a * in_y, b * in_y, False),  # a common factor in y only
        (a * in_x, b * in_x, False),  # a common factor in x only
        (a * x * x * y, b * x * y ** 3, True),  # a common monomial factor
    ]
    if nvars == 3:
        pairs.append((a * one ** 2, b * one, True))  # a common power of x_0
    return pairs


@pytest.mark.parametrize("ring", CERTIFICATE_RINGS, ids=repr)
def test_coprime_certificate_only_where_the_reference_agrees(ring):
    rng = random.Random(51)
    certified = 0
    for nvars in (2, 3):
        for _ in range(12):
            for f, g, may_be_coprime in plane_pairs(ring, nvars, rng):
                coprime = gcd_prs_reference(rest_of(f), rest_of(g)).is_constant
                if certified_coprime(f, g):
                    certified += 1
                    assert coprime and may_be_coprime
                for polys in ([f, g], [g, f, f * g]):
                    assert gcd_list(polys) == gcd_list_reference(polys)
    assert certified >= 40


@pytest.mark.parametrize("ring", CERTIFICATE_RINGS, ids=repr)
def test_certificate_takes_points_of_gf_p2_when_every_point_of_gf_p_is_unlucky(ring):
    # a(x, c) = b(x, c) = x^2 + c at every c of GF(p), but b - a = y^p - y
    # has no root off GF(p), so the images are coprime at points of GF(p^2)
    p = ring.p
    x, y = MultiPoly.var(ring, 2, 0), MultiPoly.var(ring, 2, 1)
    for cone in (False, True):
        a, b = x * x + y, x * x + y**p
        if cone:
            a, b = a.homogenize(0), b.homogenize(0)
            x, y = x.insert_var(0), y.insert_var(0)
        assert gcd_prs_reference(a, b).is_constant
        # every point of GF(p) counts against the cap of unlucky points
        assert certified_coprime(a, b) == (p < mpoly.CERTIFICATE_MISSES)
        for polys in ([a, b], [b * x, a * x * y]):
            assert gcd_list(polys) == gcd_list_reference(polys)
    # h = g(y) x + 1 with g the modulus of GF(p^2): every point of GF(p) is
    # unlucky, and at the first point of GF(p^2), a root of g, h(x, c) = 1;
    # there lc_x(a) vanishes, so the point is skipped, not taken as lucky
    x, y = MultiPoly.var(ring, 2, 0), MultiPoly.var(ring, 2, 1)
    g = sum((y**i).scale(c) for i, c in enumerate(GF(p, 2).modulus))
    h = g * x + 1
    a, b = h * (x + 1), h * (x + y)
    assert not certified_coprime(a, b)
    assert gcd_list([a, b]) == gcd_list_reference([a, b]) == h.monic()


@pytest.mark.parametrize("ring", CERTIFICATE_RINGS, ids=repr)
def test_equal_rests_give_the_gcd_without_a_certificate(ring, monkeypatch):
    # on P^2 the values omega(v^p) are c x_j^p G
    rng = random.Random(52)
    p = ring.p
    xs = [MultiPoly.var(ring, 3, i) for i in range(3)]
    for _ in range(6):
        g = random_form(ring, 3, 3, 4, rng) * xs[0]
        polys = [(g * xj**p).scale(nonzero_scalar(ring, rng)) for xj in xs]
        with monkeypatch.context() as m:
            m.setattr(mpoly, "_certify_coprime", None)  # not reached
            assert gcd_list(polys) == g.monic()
        assert gcd_list(polys) == gcd_list_reference(polys)


@pytest.mark.parametrize("ring", CERTIFICATE_RINGS, ids=repr)
def test_squarefree_and_gcd_list_match_the_pure_prs_route(ring, monkeypatch):
    rng = random.Random(53)
    p = ring.p
    prem_calls = count_prem_calls(monkeypatch)
    settled = 0  # decompositions with no pseudo-remainder
    for nvars in (2, 3):
        x = MultiPoly.var(ring, nvars, nvars - 2)
        y = MultiPoly.var(ring, nvars, nvars - 1)
        one = MultiPoly.one(ring, 2) if nvars == 2 else MultiPoly.var(ring, 3, 0)

        def rand():
            while True:
                if nvars == 2:
                    f = random_poly(ring, 2, rng, deg=2, nterms=3) + x + one
                else:
                    f = random_form(ring, 3, 2, 3, rng) + x * y
                if len(f.terms) > 1:
                    return f

        for _ in range(4):
            s, t = rand(), rand()
            cases = [
                (s * t, True),  # squarefree in general
                (s * t * x * x * y**3, True),  # a monomial part
                ((y + one) ** 2 * s, False),  # a repeated factor in y only
                ((x + one) ** 3 * s, False),  # a repeated factor in x only
                (s**p * t, False),  # a p-th power factor
                ((x + y + one) ** p, False),  # every partial vanishes
                ((x**p + y * one ** (p - 1)) * s, True),  # d_x of a factor is 0
            ]
            if nvars == 3:
                cases.append((s * t * one**3, True))  # a power of x_0
            for f, may_settle in cases:
                expected = pure_prs(monkeypatch, squarefree_decomposition, f)
                prem_calls.clear()
                assert squarefree_decomposition(f) == expected
                settled += not prem_calls
                # the gcd of f and its partials, where the loop starts
                if len(gcd_list([f, *(f.deriv(i) for i in range(nvars))]).terms) == 1:
                    assert may_settle
                    assert all(m == 1 for g, m in expected if len(g.terms) > 1)
                for polys in ([f, f.deriv(nvars - 2), f.deriv(nvars - 1)], [f * s, f * t]):
                    assert gcd_list(polys) == pure_prs(monkeypatch, gcd_list, polys)
    assert settled >= 8

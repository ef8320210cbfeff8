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
from pfol.rings import GF, QQ, TABLE_LIMIT, ZZ

from chart_reference import multiplicity_along


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


def _prs_univar_view(f, v):
    out = {}
    for e, c in f.terms.items():
        ne = list(e)
        ne[v] = 0
        mono = MultiPoly(f.ring, f.nvars, {tuple(ne): c})
        out[e[v]] = mono if e[v] not in out else out[e[v]] + mono
    return {d: c for d, c in out.items() if not c.is_zero}


def _prs_content_in(f, v):
    acc = MultiPoly.zero(f.ring, f.nvars)
    for c in _prs_univar_view(f, v).values():
        acc = gcd_prs_reference(acc, c)
    return acc


def _prs_lead_in(f, v):
    view = _prs_univar_view(f, v)
    d = max(view)
    return d, view[d]


def _prs_prem(a, b, v):
    db, lb = _prs_lead_in(b, v)
    r = a
    xv = MultiPoly.var(a.ring, a.nvars, v)
    while not r.is_zero and r.degree_in(v) >= db:
        dr, lr = _prs_lead_in(r, v)
        r = r * lb - b * lr * xv ** (dr - db)
    return r


def gcd_prs_reference(f, g):
    """Monic gcd by a recursive primitive pseudo-remainder sequence in the
    last variable used, with a content gcd at every step, for all inputs."""
    if f.is_zero:
        return g.monic() if not g.is_zero else g
    if g.is_zero:
        return f.monic()
    if f.is_constant or g.is_constant:
        return MultiPoly.one(f.ring, f.nvars)
    v = sorted(set(f.variables_used()) | set(g.variables_used()))[-1]
    if f.degree_in(v) == 0:
        return gcd_prs_reference(f, _prs_content_in(g, v))
    if g.degree_in(v) == 0:
        return gcd_prs_reference(_prs_content_in(f, v), g)
    cf, cg = _prs_content_in(f, v), _prs_content_in(g, v)
    c = gcd_prs_reference(cf, cg)
    a = f.exact_div(cf)
    b = g.exact_div(cg)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while not b.is_zero:
        r = _prs_prem(a, b, v)
        a = b
        if r.is_zero:
            b = r
        elif r.degree_in(v) == 0:
            return c.monic()
        else:
            b = r.exact_div(_prs_content_in(r, v))
    return (c * a.exact_div(_prs_content_in(a, v))).monic()


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


def assert_matches_reference(f, g, monkeypatch):
    assert gcd_multi(f, g) == gcd_prs_reference(f, g)
    assert gcd_multi(g, f) == gcd_prs_reference(f, g)
    for h in (f, g):
        fast = squarefree_decomposition(h)
        with monkeypatch.context() as m:
            m.setattr(mpoly, "gcd_multi", gcd_prs_reference)
            assert fast == squarefree_decomposition(h)


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
    one sum at a time (the route every ring but GF(p) still takes)."""
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


def test_prime_field_mul_matches_ring_element_loop():
    assert GF(65537).order > TABLE_LIMIT
    rng = random.Random(21)
    for F in PRIME_FIELDS:
        for nvars in (1, 2, 3, 4):
            zero = MultiPoly.zero(F, nvars)
            const = MultiPoly.const(F, nvars, F.random_nonzero(rng))
            x = MultiPoly.var(F, nvars, 0)
            y = MultiPoly.var(F, nvars, nvars - 1)
            # (x + y)(x - y): the cross terms cancel; in characteristic 2
            # (x + y)^2 loses its middle term the same way
            cases = [(zero, const), (const, const), (x + y, x - y), (x + y, x + y)]
            for _ in range(6):
                f = random_poly(F, nvars, rng, deg=3, nterms=5)
                g = random_poly(F, nvars, rng, deg=2, nterms=4)
                cases += [(f, g), (f, zero), (const, g), (f, f)]
            for f, g in cases:
                expected = ring_element_mul(f, g)
                assert (f * g).terms == expected.terms
                assert (g * f).terms == expected.terms
            assert (x + y) * (x - y) == x * x - y * y


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
                assert mpoly._univar_view(f, v) == _prs_univar_view(f, v)


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

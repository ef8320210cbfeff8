import random

import pytest

from pfol.exterior import DiffForm, affine_chart, cone_chart
from pfol.foliation import (
    Divisor,
    degeneracy_divisor,
    from_form,
    log_foliation,
)
from pfol.geommaps import (
    RationalMap,
    linear_hyperplane_embedding,
    pullback,
    pullback_divisor,
    pullback_foliation,
    ramification_divisor,
    restrict_foliation,
    verify_pullback_degeneracy,
)
from pfol.mpoly import MultiPoly, gcd_list
from pfol.rings import GF

from chart_reference import glue_chart_divisors


# rational functions as pairs (numerator, denominator), never reduced


def pair_add(a, b):
    if a[1] == b[1]:
        return a[0] + b[0], a[1]
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def pair_mul(a, b):
    return a[0] * b[0], a[1] * b[1]


def pair_deriv(a, j):
    num, den = a
    return num.deriv(j) * den - num * den.deriv(j), den * den


def pair_subs(f: MultiPoly, vals):
    """f evaluated at the pairs vals, term by term."""
    one = vals[0][1] ** 0
    acc = (one - one, one)
    for e, c in f.terms.items():
        term = (one * c, one)
        for v, k in zip(vals, e):
            for _ in range(k):
                term = pair_mul(term, v)
        acc = pair_add(acc, term)
    return acc


def rf_jacobian_det(comps, nvars: int):
    """det(d_j c_i) by Laplace expansion, for components given as pairs
    (numerator, denominator); returns the determinant as a pair."""

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = None
        for j, entry in enumerate(rows[0]):
            if entry[0]:
                term = pair_mul(entry, det([r[:j] + r[j + 1:] for r in rows[1:]]))
                if j % 2:
                    term = (-term[0], term[1])
                acc = term if acc is None else pair_add(acc, term)
        return acc if acc is not None else rows[0][0]

    return det([[pair_deriv(c, j) for j in range(nvars)] for c in comps])


def rf_ramification_reference(comps, nvars: int) -> Divisor:
    """The affine ramification divisor as div(num) - div(den) of the
    rational Jacobian determinant."""
    num, den = rf_jacobian_det(comps, nvars)
    if not num:
        raise ValueError("Jacobian vanishes identically")
    chart = affine_chart(num.ring, nvars)
    return Divisor.of_polynomial(num, chart) - Divisor.of_polynomial(den, chart)


def chart_ramification_reference(phi: RationalMap) -> Divisor:
    """The ramification divisor of a map of P^n by the chart route: on each
    chart {x_j != 0}, the rational Jacobian of (F_k / F_t)_{k != t}, with
    t = j unless F_j vanishes there; then glue the charts.

    Right for monomial covers only: on other maps chart j carries the pole
    -(n+1) div(F_t) and the gluing fails.
    """
    n = phi.source.nvars - 1
    comps = phi.poly_comps()
    chart_fns = {}
    for j in range(n + 1):
        dehom = [c.set_var_one(j) for c in comps]
        t = j if not dehom[j].is_zero else next(
            k for k, c in enumerate(dehom) if not c.is_zero
        )
        affine = [(dehom[k], dehom[t]) for k in range(n + 1) if k != t]
        chart_fns[j] = rf_jacobian_det(affine, n)
    return glue_chart_divisors(phi.source.ring, n, chart_fns)


def random_form(ring, nvars: int, degree: int, rng) -> MultiPoly:
    """A random form of the given degree: each monomial is kept with
    probability 0.6, with a random coefficient."""
    acc = MultiPoly.zero(ring, nvars)
    exps = [()]
    for k in range(nvars):
        exps = [e + (i,) for e in exps for i in range(degree - sum(e) + 1)]
    for e in exps:
        if sum(e) == degree and rng.random() < 0.6:
            acc = acc + MultiPoly.monomial(ring, nvars, e, ring.random(rng))
    return acc


def monomial_cover(ring, n: int, exponent: int) -> RationalMap:
    """The cover of P^n raising every homogeneous coordinate to a power."""
    cone = cone_chart(ring, n)
    return RationalMap(cone, cone, [v**exponent for v in cone.vars()])


def power_map(ring, ell):
    chart = affine_chart(ring, 3)
    x, y, z = chart.vars()
    return RationalMap(chart, chart, [x, y, z**ell])


def test_rational_map_validation():
    F = GF(5)
    cone = cone_chart(F, 2)
    x0, x1, x2 = cone.vars()
    with pytest.raises(ValueError):
        RationalMap(cone, cone, [x0, x1])  # wrong arity
    with pytest.raises(ValueError):
        RationalMap(cone, cone, [x0, x1, x2**2])  # mixed degrees
    with pytest.raises(ValueError, match="common factor"):
        RationalMap(cone, cone, [x0 * x1, x0 * x2, x0**2])
    with pytest.raises(ValueError, match="polynomial components"):
        RationalMap(cone, cone, [x0, x1, x2], x0)  # a denominator on the cone
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    for den in (0, 2, x * 2):
        with pytest.raises(ValueError, match="must be monic"):
            RationalMap(chart, chart, [x, y], den)


def test_monomial_cover_ramification():
    F = GF(5)
    phi = monomial_cover(F, 2, 3)
    ram = ramification_divisor(phi)
    x0, x1, x2 = phi.source.vars()
    assert ram.normalize() == [(x0, 2), (x1, 2), (x2, 2)]


def test_monomial_cover_ramification_matches_chart_reference():
    # the cone determinant prints as the glued charts did
    for n in (1, 2, 3):
        for p in (3, 5, 7):
            for e in (2, 3):
                if e != p:
                    phi = monomial_cover(GF(p), n, e)
                    ram = ramification_divisor(phi)
                    assert repr(ram) == repr(chart_ramification_reference(phi))
    with pytest.raises(ValueError, match="vanishes identically"):
        ramification_divisor(monomial_cover(GF(3), 2, 3))


def test_cone_ramification_restricts_to_chart_zero():
    # on {x_0 != 0}, div(H) is the ramification of (F_k / F_0) plus
    # (n+1) div(F_0): the pole the chart route left in
    rng = random.Random(11)
    checked = 0
    for p in (2, 3, 5):
        F = GF(p)
        for n, degree in sorted({(1, 2), (1, p), (2, 2)}):
            cone = cone_chart(F, n)
            found = 0
            while found < 2:
                comps = [random_form(F, n + 1, degree, rng) for _ in range(n + 1)]
                try:
                    phi = RationalMap(cone, cone, comps)
                except ValueError:
                    continue  # a zero or common factor, or mixed degrees
                chart = [c.set_var_one(0) for c in comps]
                if chart[0].is_zero:
                    continue
                affine = [(c, chart[0]) for c in chart[1:]]
                try:
                    expected = rf_ramification_reference(affine, n)
                except ValueError:
                    with pytest.raises(ValueError, match="vanishes identically"):
                        ramification_divisor(phi)
                    continue
                patch = affine_chart(F, n)
                expected = expected + (n + 1) * Divisor.of_polynomial(chart[0], patch)
                ram = ramification_divisor(phi).normalize()
                assert Divisor(patch, [(h.set_var_one(0), m) for h, m in ram]) == expected
                found += 1
                checked += degree == p
    assert checked == 8


def test_affine_ramification_matches_rational_jacobian():
    rng = random.Random(4)
    for p in (3, 5, 7):
        F = GF(p)
        chart = affine_chart(F, 2)
        found = 0
        while found < 4:
            comps = []
            for _ in range(2):
                num = random_form(F, 2, rng.randrange(1, 4), rng)
                num = num + random_form(F, 2, 1, rng)
                den = random_form(F, 2, 1, rng) + MultiPoly.one(F, 2)
                comps.append((num, den.monic() if found % 2 else MultiPoly.one(F, 2)))
            if any(not num for num, _ in comps):
                continue
            # one common denominator, the product of the component ones
            den = comps[0][1] * comps[1][1]
            phi = RationalMap(chart, chart, [
                comps[0][0] * comps[1][1], comps[1][0] * comps[0][1]
            ], den)
            try:
                expected = rf_ramification_reference(comps, 2)
            except ValueError:
                with pytest.raises(ValueError):
                    ramification_divisor(phi)
                continue
            found += 1
            assert ramification_divisor(phi) == expected


def test_affine_power_map_ramification():
    F = GF(5, 2)
    phi = power_map(F, 3)
    ram = ramification_divisor(phi)
    z = phi.source.var(2)
    assert ram.normalize() == [(z, 2)]


def test_pullback_divisor():
    F = GF(5)
    phi = monomial_cover(F, 2, 2)
    x0, x1, x2 = phi.target.vars()
    div = Divisor.of_polynomial(x0 * (x1 + x2), phi.target)
    pulled = pullback_divisor(phi, div)
    assert pulled.degree() == 2 * div.degree()


def test_pullback_of_log_foliation_is_log():
    # phi^*(sum w_i dlog f_i) = sum w_i dlog phi^* f_i
    F = GF(5, 2)
    t = F.generator()
    chart = affine_chart(F, 3)
    x, y, z = chart.vars()
    fol = log_foliation([x, y, z], [t, F.one(), F.one()])
    phi = power_map(F, 2)
    pb = pullback_foliation(phi, fol)
    # the pullback is the log foliation with doubled weight on z
    expected = log_foliation([x, y, z], [t, F.one(), F.coerce(2)])
    assert pb.form == expected.form or pb.form == -expected.form


def test_behavior_invariant_noninvariant_rows():
    # three pullback behaviors along phi(x, y, z) = (x, y, z^ell)
    p = 5
    F = GF(p, 2)
    t = F.generator()
    for ell in (2, 3):
        phi = power_map(F, ell)
        chart = phi.target
        x, y, z = chart.vars()
        # branch locus invariant: correction -(ell - 1){z}
        fol = log_foliation([x, y, z], [t, F.one(), F.one()])
        res = verify_pullback_degeneracy(phi, fol)
        assert res["matches"]
        diff = res["delta_pullback"] - res["pullback_of_delta"]
        assert diff.normalize() == [(z.monic(), -(ell - 1))]
        # branch locus non-invariant but kernel-invariant: +p(ell-1){z}
        form = DiffForm(chart, 1, {(0,): MultiPoly.one(F, 3), (2,): x})
        fol2 = from_form(form)
        res2 = verify_pullback_degeneracy(phi, fol2)
        assert res2["matches"]
        diff2 = res2["delta_pullback"] - res2["pullback_of_delta"]
        assert diff2.normalize() == [(z.monic(), p * (ell - 1))]
        # branch locus disjoint from everything: no correction
        one = MultiPoly.one(F, 3)
        fol3 = log_foliation([x, y, z + one], [t, F.one(), F.one()])
        res3 = verify_pullback_degeneracy(phi, fol3)
        assert res3["matches"]
        assert (res3["delta_pullback"] - res3["pullback_of_delta"]).is_zero()


def test_affine_ramification_of_polynomial_and_rational_maps():
    F = GF(5)
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    div_x, div_y = Divisor.of_polynomial(x, chart), Divisor.of_polynomial(y, chart)
    # (x, y^3): Jacobian 3 y^2, a polynomial
    assert ramification_divisor(RationalMap(chart, chart, [x, y**3])) == 2 * div_y
    # (x, y^2 / x): Jacobian 2 y / x, a rational function
    rational = RationalMap(chart, chart, [x * x, y**2], x)
    ram = ramification_divisor(rational)
    assert ram == div_y - div_x
    assert ram.normalize() == [(x, -1), (y, 1)]
    # a common factor of the numerators and the denominator changes nothing
    unreduced = RationalMap(chart, chart, [x**3 + x * x, y**2 * (x + 1)], x * (x + 1))
    assert ramification_divisor(unreduced) == ram
    with pytest.raises(ValueError, match="polynomial components"):
        rational.poly_comps()


def test_linear_embedding_lands_in_hyperplane():
    F = GF(7, 2)
    coeffs = [F.coerce(c) for c in (1, 2, 3, 1)]
    emb = linear_hyperplane_embedding(cone_chart(F, 3), coeffs)
    # sum c_i comp_i = 0 identically
    acc = MultiPoly.zero(F, 3)
    for c, comp in zip(coeffs, emb.poly_comps()):
        acc = acc + comp.scale(c)
    assert acc.is_zero
    assert emb.source.nvars == 3 and emb.target.nvars == 4


def test_restriction_formula_on_hyperplane():
    # Delta_{F|Y} = Delta_F|_Y + p(diff(Fdel, Y) - diff(F, Y)) - diff(F, Y)
    p = 7
    F = GF(p, 2)
    t = F.generator()
    cone = cone_chart(F, 3)
    xs = cone.vars()
    fol = log_foliation(xs, [-(t + 2), t, F.one(), F.one()], projective=True)
    emb = linear_hyperplane_embedding(cone_chart(F, 3), [1, 2, 3, 1])
    sub, different = restrict_foliation(fol, emb)
    assert sub.projective and sub.n == 2
    assert different.is_effective()
    delta_sub = degeneracy_divisor(sub)
    delta = degeneracy_divisor(fol)
    from pfol.foliation import p_kernel
    from pfol.geommaps import restrict_form

    _, diff_kernel = restrict_form(emb, p_kernel(fol).two_form)
    predicted = (
        pullback_divisor(emb, delta)
        + p * (diff_kernel - different)
        - different
    )
    assert delta_sub == predicted
    assert delta_sub.degree() == delta.degree() + p * (
        diff_kernel.degree() - different.degree()
    ) - different.degree()


def test_restrict_invariant_hyperplane_rejected():
    F = GF(5, 2)
    t = F.generator()
    cone = cone_chart(F, 2)
    xs = cone.vars()
    fol = log_foliation(xs, [t, F.one(), -(t + 1)], projective=True)
    emb = linear_hyperplane_embedding(cone_chart(F, 2), [1, 0, 0])  # the line {x0 = 0}
    with pytest.raises(ValueError):
        restrict_foliation(fol, emb)


def test_pullback_form_matches_substitution():
    F = GF(5)
    phi = power_map(F, 2)
    x, y, z = phi.target.vars()
    form = DiffForm(phi.target, 1, {(2,): x})
    pb = pullback(phi, form)
    # phi^*(x dz) = x d(z^2) = 2xz dz
    zz = phi.source.var(2)
    assert pb.coeff((2,)) == phi.source.var(0) * zz.scale(F.coerce(2))


def test_rational_pullback_matches_chain_rule():
    # phi^* of a 1-form, coefficient by coefficient with pairs:
    # the du_j coefficient is sum_i a_i(phi) d_j phi_i; cleared and saturated
    rng = random.Random(12)
    checked = 0
    for F in (GF(5), GF(7), GF(3, 2)):
        t = F.generator() if F.k > 1 else F.coerce(2)
        chart = affine_chart(F, 3)
        x, y, z = chart.vars()
        fol = log_foliation([x, y, z + 1], [t, F.one(), -t - 1])
        for _ in range(3):
            comps = [random_form(F, 3, rng.randrange(1, 3), rng) + 1 for _ in range(3)]
            den = (random_form(F, 3, 1, rng) + 1).monic()
            if den.is_constant:
                continue
            phi = RationalMap(chart, chart, comps, den)
            fractions = [(c, den) for c in comps]
            coeffs = []
            for j in range(3):
                acc = (x - x, x**0)
                for (i,), a in fol.form.terms.items():
                    term = pair_mul(pair_subs(a, fractions), pair_deriv(fractions[i], j))
                    acc = pair_add(acc, term)
                coeffs.append(acc)
            common = coeffs[0][1]
            for _, d in coeffs[1:]:
                if d != common:
                    common = common * d
            cleared = DiffForm(chart, 1, {
                (j,): num * common.exact_div(d) for j, (num, d) in enumerate(coeffs)
            })
            if cleared.is_zero:
                continue
            # a monic multiple of the least common denominator clears to
            # the same saturated form
            assert pullback_foliation(phi, fol).form == cleared.saturate()
            checked += 1
    assert checked >= 6

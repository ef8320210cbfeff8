import random

import pytest

import pfol.foliation
from pfol import InternalError
from pfol.cartier import cartier_of_product
from pfol.exterior import DiffForm, VectorField, affine_chart, cone_chart, euler_field
from pfol.foliation import (
    Divisor,
    Foliation,
    PClosedError,
    ValidationError,
    analyze,
    cartier_transform_foliation,
    coprime_basis,
    degeneracy_divisor,
    from_form,
    is_invariant_hypersurface,
    is_p_closed,
    koszul_fields,
    log_foliation,
    p_kernel,
    predicted_degeneracy_degree,
)
from pfol.geommaps import RationalMap, pullback_foliation
from pfol.mpoly import MultiPoly, gcd_list
from pfol.rings import GF

from cartier_reference import eta_reference
from chart_reference import glue_chart_divisors, projectivize
from gcd_reference import count_prem_calls


def test_coprime_basis():
    F = GF(5)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    basis = coprime_basis([(x * y, 2), (y * (x + y), -1)])
    assert [(str(g), m) for g, m in basis] == [("x", 2), ("x + y", -1), ("y", 1)]
    # refining into a refined base adds to the pieces it splits, and a piece
    # whose multiplicity sums to 0 stays
    assert [(str(g), m) for g, m in coprime_basis([(x, -2)], basis)] == [
        ("x", 0), ("x + y", -1), ("y", 1)]


def test_glue_chart_divisors():
    # on P^1, (1 + t)^2 / t on {x0 != 0} and (1 + t)^2 on {x1 != 0} both give
    # x0 + x1 twice; the pole along x1 lies on the first chart only
    F = GF(5)
    t = MultiPoly.var(F, 1, 0)
    one = MultiPoly.one(F, 1)
    x0 = MultiPoly.var(F, 2, 0)
    x1 = MultiPoly.var(F, 2, 1)
    div = glue_chart_divisors(F, 1, {0: ((one + t) ** 2, t), 1: ((one + t) ** 2, one)})
    assert div.normalize() == [(x0 + x1, 2), (x1, -1)]
    assert_normal_form_kept(div)
    with pytest.raises(AssertionError, match="component x \\+ y"):
        glue_chart_divisors(F, 1, {0: (one + t, one), 1: ((one + t) ** 2, one)})


def coprime_plane_components(projective):
    """Four pairwise coprime squarefree components over GF(5), on P^2 or
    on A^2, with log weights that sum to zero in degree on P^2."""
    F = GF(5)
    if projective:
        x0, x, y = cone_chart(F, 2).vars()
        comps = [x**2 + y**2 + x0 * y * 3, x * y + x0**2 * 2, x + y * 2 + x0 * 3,
                 x**3 + y**2 * x0 + x0**3]
        return comps, [1, 1, 2, -2]
    x, y = affine_chart(F, 2).vars()
    return [x**2 + y**3 + 1, x * y + 2, x + y**2 + 3, x**3 + y + 4], [1, 2, 3, 4]


@pytest.mark.parametrize("projective", [False, True], ids=["A2", "P2"])
def test_plane_normal_form_and_log_foliation_take_no_pseudo_remainder(
    projective, monkeypatch
):
    # the squarefree and coprimality gcds over GF(p) in the plane are
    # settled by the shortcuts of gcd_multi
    comps, weights = coprime_plane_components(projective)
    chart = (cone_chart if projective else affine_chart)(GF(5), 2)
    prem_calls = count_prem_calls(monkeypatch)
    div = Divisor(chart, [(comps[0], 1), (comps[1] * comps[2], 2), (comps[3], -1)])
    expected = [(comps[0].monic(), 1), ((comps[1] * comps[2]).monic(), 2),
                (comps[3].monic(), -1)]
    assert sorted(div.normalize(), key=repr) == sorted(expected, key=repr)
    fol = log_foliation(comps, weights, projective=projective)
    assert fol.form
    assert prem_calls == []
    with pytest.raises(ValidationError, match="pairwise coprime"):
        log_foliation([comps[0], comps[1] * comps[2], comps[2]], weights[:3],
                      projective=False)


def assert_normal_form_kept(d):
    """The normal form a divisor keeps equals one computed afresh."""
    assert d.normalize() == Divisor(d.chart, d.items).normalize()


def test_divisor_arithmetic():
    F = GF(5)
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    d1 = Divisor.of_polynomial(x**2 * y, chart)
    d2 = Divisor.of_polynomial(x, chart)
    assert d1.degree() == 3
    assert (d1 - 2 * d2).normalize() == [(y.monic(), 1)]
    assert (d1 - d1).is_zero()
    assert d1 == Divisor.of_polynomial(x * y * x, chart)
    assert not (d1 - d2).is_effective() or (d1 - d2).is_effective()
    assert (d1 - 3 * d2).normalize() == [(x.monic(), -1), (y.monic(), 1)]


def test_divisor_sums_start_from_kept_normal_forms(monkeypatch):
    F = GF(5)
    cone = cone_chart(F, 2)
    x, y, z = cone.vars()
    d1 = Divisor.of_polynomial(x**2 * y * (x + y * z), cone)
    d2 = Divisor.of_polynomial(x * (x + y * z) * x * y, cone)
    d3 = Divisor.of_polynomial(x * y * z, cone)
    combos = [d1 - d2, d1 + 2 * d3 - d2, -d3 + d1, 3 * d3]
    # the same sums from bare items, which are decomposed afresh
    fresh = [
        Divisor(cone, d.items).normalize()
        for d in (
            Divisor(cone, d1.items + [(f, -m) for f, m in d2.items]),
            Divisor(cone, d1.items + [(f, 2 * m) for f, m in d3.items]
                    + [(f, -m) for f, m in d2.items]),
            Divisor(cone, [(f, -m) for f, m in d3.items] + d1.items),
            Divisor(cone, [(f, 3 * m) for f, m in d3.items]),
        )
    ]
    calls = []
    decompose = pfol.foliation.squarefree_decomposition

    def counting(f):
        calls.append(f)
        return decompose(f)

    monkeypatch.setattr(pfol.foliation, "squarefree_decomposition", counting)
    assert d1 == d2
    assert d1 != d3
    assert [d.normalize() for d in combos] == fresh
    assert calls == []


def test_divisor_sums_print_as_their_raw_items_at_once():
    # a sum refined step by step prints as all its raw items refined at
    # once, because pieces whose multiplicity cancels to 0 are kept
    F = GF(5)
    chart = affine_chart(F, 3)
    x, y, z = chart.vars()
    d = Divisor.of_polynomial(x * y, chart) - Divisor.of_polynomial(x, chart)
    assert d.normalize() == [(y, 1)]
    d = d + Divisor.of_polynomial(x * z, chart)
    assert d.normalize() == [(x, 1), (y, 1), (z, 1)]
    linear = [x, y, z, x + y, y + 2 * z, x + z + 1]
    rng = random.Random(11)
    for _ in range(30):
        acc, raw = Divisor.zero(chart), []
        for _ in range(rng.randint(1, 5)):
            items = [(f * g, rng.randint(-2, 2))
                     for f, g in (rng.sample(linear, 2) for _ in range(rng.randint(1, 3)))]
            # a repeat of an earlier term, so that some multiplicities cancel
            if raw and rng.random() < 0.5:
                items = [rng.choice(raw)]
            k = rng.choice([1, -1, rng.randint(-2, 3)])
            term = k * Divisor(chart, items)
            if rng.random() < 0.5:
                acc, k = acc - term, -k
            else:
                acc = acc + term
            raw += [(f, k * m) for f, m in items]
            assert acc.normalize() == Divisor(chart, raw).normalize()


def test_divisor_equality_matches_the_difference_route():
    # a coprime basis is not canonical: (x*y*z) : 1 and (x) : 1, (y*z) : 1
    # are one divisor; seeded pairs that are equal with different normal
    # forms, unequal, and zero
    F = GF(5)
    chart = affine_chart(F, 3)
    x, y, z = chart.vars()
    linear = [x, y, z, x + y, y + 2 * z, x + z + 1]
    rng = random.Random(7)
    seen = set()
    for _ in range(40):
        comps = rng.sample(linear, rng.randint(1, 4))
        m = rng.randint(1, 2)
        whole = comps[0]
        for f in comps[1:]:
            whole = whole * f
        split = Divisor(chart, [(f, m) for f in comps])
        joined = Divisor(chart, [(whole, m)])
        other = Divisor(chart, [(f, rng.randint(0, 2)) for f in comps])
        zero = split - joined
        for a, b in [(split, joined), (split, other), (zero, Divisor.zero(chart)),
                     (joined, zero)]:
            by_difference = Divisor(chart, a.items + [(f, -k) for f, k in b.items]).is_zero()
            assert (a == b) == by_difference
            seen.add((by_difference, a.normalize() == b.normalize()))
    assert seen == {(True, True), (True, False), (False, False)}


def test_divisors_on_different_charts_do_not_mix():
    # A^3 and the cone over P^2 both have three variables
    F = GF(5)
    affine, cone = affine_chart(F, 3), cone_chart(F, 2)
    x = affine.var(0)
    on_affine = Divisor.of_polynomial(x, affine)
    on_cone = Divisor.of_polynomial(x, cone)
    with pytest.raises(ValueError, match="different ambient"):
        on_affine + on_cone
    with pytest.raises(ValueError, match="different ambient"):
        on_affine == on_cone


def test_log_foliation_p_closed_iff_ratios_in_fp():
    # sum lambda_i dlog x_i is p-closed iff the weight ratios are in F_p
    p = 3
    F = GF(p, 2)
    chart = affine_chart(F, 3)
    x, y, z = chart.vars()
    t = F.generator()
    rational = log_foliation([x, y, z], [F.coerce(2), F.one(), F.one()])
    assert is_p_closed(rational)
    irrational = log_foliation([x, y, z], [t, F.one(), F.one()])
    assert not is_p_closed(irrational)


def test_log_foliation_validation():
    F = GF(5)
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    with pytest.raises(ValidationError):
        log_foliation([x * x, y], [F.one(), F.one()])  # not squarefree
    with pytest.raises(ValidationError):
        log_foliation([x, x], [F.one(), F.one()])  # not coprime
    cone = cone_chart(F, 2)
    x0, x1, x2 = cone.vars()
    with pytest.raises(ValidationError):
        # projective weights must sum (weighted by degree) to zero
        log_foliation([x0, x1], [F.one(), F.one()], projective=True)


def test_p_curvature_log_identity():
    # omega(v_j^p) = (prod x_i)(lam_j^p lam_1 - lam_1^p lam_j)
    rng = random.Random(0)
    for p in (3, 5):
        F = GF(p, 2)
        chart = affine_chart(F, 3)
        xs = chart.vars()
        xyz = xs[0] * xs[1] * xs[2]
        for _ in range(5):
            lam = [F.random_nonzero(rng) for _ in range(3)]
            fol = log_foliation(xs, lam)
            for j in (1, 2):
                # tangent field v_j = lam_j x_1 d_1 - lam_1 x_j d_j
                comps = [MultiPoly.zero(F, 3) for _ in range(3)]
                comps[0] = xs[0].scale(lam[j])
                comps[j] = xs[j].scale(-lam[0])
                v = VectorField(chart, comps)
                assert not fol.form.pair(v)
                val = fol.form.pair(v.pth_power())
                expected = xyz.scale(lam[j] ** p * lam[0] - lam[0] ** p * lam[j])
                assert val == expected


def test_from_form_validation():
    F = GF(5)
    cone = cone_chart(F, 2)
    x0, x1, x2 = cone.vars()
    # on the cone the radial field must annihilate the form
    bad = DiffForm(cone, 1, {(0,): x1, (1,): x0})
    with pytest.raises(ValidationError, match="radial field"):
        from_form(bad)
    # the same coefficients on A^3 define an affine foliation
    fol = from_form(DiffForm(affine_chart(F, 3), 1, {(0,): x1, (1,): x0}))
    assert not fol.projective and fol.degree is None
    # an unsaturated form comes back saturated
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    unsat = DiffForm(chart, 1, {(0,): x * y, (1,): x * x})
    fol = from_form(unsat)
    assert fol.form == DiffForm(chart, 1, {(0,): y, (1,): x})
    assert fol.form.content().is_constant


def test_projective_form_needs_homogeneous_coefficients():
    # annihilated by the radial field, saturated, every coefficient of
    # total degree 2, but not homogeneous
    cone = cone_chart(GF(5), 2)
    x0, x1, x2 = cone.vars()
    form = DiffForm(cone, 1, {
        (0,): x1 + x2**2,
        (1,): -x0 + x1 * x2,
        (2,): -x0 * x2 - x1**2,
    })
    assert not form.pair(euler_field(cone))
    assert form.content().is_constant
    with pytest.raises(ValidationError, match="homogeneous"):
        from_form(form)


def test_degree_one_projective_degeneracy():
    # Delta = {x0} + {x1} + {x2}, one from each invariant line
    for p in (3, 5, 7):
        F = GF(p, 2)
        t = F.generator()
        cone = cone_chart(F, 2)
        x0, x1, x2 = cone.vars()
        alpha, beta = t, F.one()
        form = DiffForm(cone, 1, {
            (0,): (x1 * x2).scale(alpha - beta),
            (1,): (x0 * x2).scale(beta),
            (2,): (x0 * x1).scale(-alpha),
        })
        fol = from_form(form)
        assert fol.degree == 1
        assert not is_p_closed(fol)
        delta = degeneracy_divisor(fol)
        assert delta.normalize() == [(x0, 1), (x1, 1), (x2, 1)]
        assert delta.degree() == 3 == predicted_degeneracy_degree(p, 1, 0)


def test_projectivize_degree_two():
    for p in (3, 5):
        F = GF(p)
        chart = affine_chart(F, 2)
        x, y = chart.vars()
        a2 = x**2 + x * y.scale(F.coerce(2)) - y**2
        b2 = x**2 + x * y + y**2 + x**2
        form = DiffForm(chart, 1, {(0,): -y + a2, (1,): x + b2})
        fol = projectivize(form)
        assert fol.projective and fol.degree == 2
        delta = degeneracy_divisor(fol)
        assert delta.degree() == p + 4
        assert delta.degree() == predicted_degeneracy_degree(p, 2, 0)


def test_closed_defining_form_and_divisor_congruence():
    p = 5
    F = GF(p, 2)
    chart = affine_chart(F, 3)
    xs = chart.vars()
    fol = log_foliation(xs, [F.generator(), F.one(), F.one()])
    omega, f = fol.form, fol.pcurvature.f
    # omega / f is closed: d(omega / f) = (f d(omega) - df /\ omega) / f^2
    df = DiffForm(chart, 0, {(): f}).d()
    assert (omega.d() * f - df.wedge(omega)).is_zero
    # zeros minus poles of the closed form agrees with Delta modulo p
    delta = degeneracy_divisor(fol)
    diff = Divisor.of_polynomial(f, chart) - Divisor.of_polynomial(omega.content(), chart)
    residual = delta - diff
    assert all(m % p == 0 for _, m in residual.normalize())


def test_p_closed_has_no_degeneracy():
    F = GF(3)
    chart = affine_chart(F, 3)
    xs = chart.vars()
    fol = log_foliation(xs, [F.coerce(2), F.one(), F.one()])
    with pytest.raises(PClosedError):
        degeneracy_divisor(fol)
    # no omega(v^p) is nonzero, so there is no closed defining form
    assert fol.pcurvature.f is None
    with pytest.raises(PClosedError):
        fol.pcurvature.G
    with pytest.raises(PClosedError):
        fol.pcurvature.eta


def test_p_kernel_properties():
    p = 7
    F = GF(p, 2)
    t = F.generator()
    cone = cone_chart(F, 3)
    xs = cone.vars()
    fol = log_foliation(xs, [-(t + 2), t, F.one(), F.one()], projective=True)
    kernel = p_kernel(fol)
    theta = kernel.two_form
    assert theta.contract(euler_field(cone)).is_zero
    assert theta.wedge(fol.form).is_zero
    assert theta.content().is_constant
    assert kernel.degree == 1
    # the coordinate hyperplanes stay invariant for the kernel distribution
    assert all(is_invariant_hypersurface(theta, x) for x in xs)
    assert not is_invariant_hypersurface(theta, xs[0] + xs[2])


def test_cartier_transform_integrable_flag():
    p = 5
    F = GF(p, 2)
    chart = affine_chart(F, 3)
    xs = chart.vars()
    fol = log_foliation(xs, [F.generator(), F.one(), F.one()])
    eta, integrable = cartier_transform_foliation(fol)
    assert integrable
    assert not eta.is_zero


def test_invariant_hypersurfaces():
    p = 5
    F = GF(p, 2)
    cone = cone_chart(F, 2)
    x0, x1, x2 = cone.vars()
    t = F.generator()
    form = DiffForm(cone, 1, {
        (0,): (x1 * x2).scale(t - F.one()),
        (1,): x0 * x2,
        (2,): (x0 * x1).scale(-t),
    })
    fol = from_form(form)
    for h in (x0, x1, x2):
        assert is_invariant_hypersurface(fol.form, h)
    assert not is_invariant_hypersurface(fol.form, x0 + x1)


def test_cartier_transform_rejects_non_closed_defining_form():
    # y dx + z dy + x dz is not integrable, so omega / omega(v^p) cannot be
    # closed
    F = GF(3)
    chart = affine_chart(F, 3)
    x, y, z = chart.vars()
    fol = Foliation(DiffForm(chart, 1, {(0,): y, (1,): z, (2,): x}), None)
    assert not is_p_closed(fol)
    with pytest.raises(InternalError, match="failed to be closed") as info:
        cartier_transform_foliation(fol)
    assert info.value.stage == "foliation.PCurvature.eta"


def test_analyze_runs_the_cartier_operator_once(monkeypatch):
    # analyze on a W2 log foliation on P^3 reads the Cartier transform for
    # both the integrability flag and the kernel from one computation
    import pfol.foliation

    calls = []

    def counting(h, k, form):
        calls.append(form)
        return cartier_of_product(h, k, form)

    monkeypatch.setattr(pfol.foliation, "cartier_of_product", counting)
    F = GF(5, 2)
    t = F.generator()
    x0, x1, x2, x3 = cone_chart(F, 3).vars()
    quadric = x0 * x1 - x2 * x3 + x0**2
    weights = [F.one(), t, -t - F.one(), -F.one()]
    fol = log_foliation([quadric, x0, x1, x2], weights, projective=True)
    report = analyze(fol)
    assert not report.p_closed and report.deg_kernel is not None
    assert len(calls) == 1


def test_analyze_takes_one_pth_power_per_koszul_field(monkeypatch):
    # is_p_closed stops at the first nonzero omega(v^p); the affine
    # degeneracy divisor reads those values and computes only the rest
    calls = []
    pth_power = VectorField.pth_power

    def counting(self):
        calls.append(self)
        return pth_power(self)

    monkeypatch.setattr(VectorField, "pth_power", counting)
    F = GF(5, 2)
    t = F.generator()
    x, y, z = affine_chart(F, 3).vars()
    fol = log_foliation([x, y, x * 2 + z * t + 1], [F.one(), t, F.one()])
    report = analyze(fol)
    assert not report.p_closed and report.degeneracy
    fields = koszul_fields(fol.form)
    assert len(fields) == 3
    assert calls == fields


def test_analyze_takes_one_pth_power_per_cone_koszul_field(monkeypatch):
    # the projective degeneracy divisor reads every chart from the cone
    # values, so no chart takes p-th powers of its own
    calls = []
    pth_power = VectorField.pth_power

    def counting(self):
        calls.append(self)
        return pth_power(self)

    monkeypatch.setattr(VectorField, "pth_power", counting)
    F = GF(5, 2)
    t = F.generator()
    x0, x1, x2, x3 = cone_chart(F, 3).vars()
    quadric = x0 * x1 - x2 * x3 + x0**2
    weights = [F.one(), t, -t - F.one(), -F.one()]
    fol = log_foliation([quadric, x0, x1, x2], weights, projective=True)
    report = analyze(fol)
    assert not report.p_closed and report.degeneracy
    fields = koszul_fields(fol.form)
    assert len(calls) == len(fields) == 6
    assert calls == fields


def test_koszul_fields_builds_only_nonzero_fields(monkeypatch):
    # on A^30, x0*dx1 + dx0 has 435 pairs i < j and 57 nonzero Koszul fields
    built = []

    class Counting(VectorField):
        __slots__ = ()

        def __init__(self, chart, comps):
            built.append(comps)
            super().__init__(chart, comps)

    monkeypatch.setattr(pfol.foliation, "VectorField", Counting)
    chart = affine_chart(GF(5), 30)
    fields = koszul_fields(chart.var(0) * chart.dx(1) + chart.dx(0))
    assert len(built) == len(fields) == 57
    # the pairs (0, 1), then (0, j) and (1, j) for j >= 2, in that order
    supports = [tuple(k for k, c in enumerate(v.comps) if c) for v in fields]
    assert supports == [(0, 1)] + [(j,) for j in range(2, 30)] * 2


def chart_degeneracy_reference(fol):
    """The projective degeneracy divisor by the per-chart route: on each
    standard chart {x_j != 0}, restrict omega to x_j = 1 (dropping dx_j),
    saturate, and take the gcd of omega_j(v^p) over the chart's own Koszul
    fields v; then glue the charts."""
    ring, n = fol.ring, fol.n
    chart = affine_chart(ring, n)
    one = MultiPoly.one(ring, n)
    chart_fns = {}
    for j in range(n + 1):
        terms = {
            (i if i < j else i - 1,): c.set_var_one(j)
            for (i,), c in fol.form.terms.items()
            if i != j
        }
        form = DiffForm(chart, 1, terms)
        if form.is_zero:
            continue
        form = form.saturate()
        vals = [form.pair(v.pth_power()) for v in koszul_fields(form)]
        vals = [val for val in vals if val]
        if vals:
            chart_fns[j] = (gcd_list(vals).monic(), one)
    if not chart_fns:
        raise PClosedError("foliation is p-closed; no degeneracy divisor")
    return glue_chart_divisors(ring, n, chart_fns)


def w1_foliation(p, seed):
    """W1: each coefficient of a dx + b dy sums F.random(rng) x^i y^j over
    i + j <= 2 (a first, then b), homogenized to P^2 over F_p."""
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


def w2_foliations(p, rng, count):
    """Log foliations on P^3 over GF(p^2) with components the quadric
    x0 x1 - x2 x3 + x0^2 and x0, x1, x2, and random weights."""
    F = GF(p, 2)
    x0, x1, x2, x3 = cone_chart(F, 3).vars()
    quadric = x0 * x1 - x2 * x3 + x0**2
    out = []
    while len(out) < count:
        w = [F.random_nonzero(rng) for _ in range(3)]
        last = -(w[0] * F.coerce(2) + w[1] + w[2])
        if last:
            out.append(log_foliation([quadric, x0, x1, x2], w + [last], projective=True))
    return out


def test_degeneracy_from_cone_values_matches_chart_reference():
    # the chart values read off the cone give the same divisor, component
    # by component, as the chart forms' own p-th powers; p-closed inputs
    # (W1 seeds 7 and 8 over F_2) are refused by both
    foliations = [w1_foliation(p, seed) for p in (2, 3) for seed in range(1, 9)]
    rng = random.Random(5)
    for p in (2, 3, 5):
        foliations.extend(w2_foliations(p, rng, 3))
    closed = 0
    for fol in foliations:
        try:
            expected = repr(chart_degeneracy_reference(fol))
        except PClosedError:
            closed += 1
            with pytest.raises(PClosedError):
                degeneracy_divisor(fol)
            continue
        delta = degeneracy_divisor(fol)
        assert repr(delta) == expected
        assert_normal_form_kept(delta)
    assert closed == 2


def test_affine_degeneracy_keeps_its_normal_form():
    rng = random.Random(7)
    cases = 0
    for p in (2, 3, 5):
        F = GF(p, 2)
        t = F.generator()
        x, y, z = affine_chart(F, 3).vars()
        for _ in range(2):
            w = [F.random_nonzero(rng) for _ in range(3)]
            fol = log_foliation([x, y * y + x, x * 2 + z * t + 1], w)
            if is_p_closed(fol):
                continue
            delta = degeneracy_divisor(fol)
            assert delta.chart == fol.chart and not delta.chart.is_cone
            assert not delta.is_zero()
            assert_normal_form_kept(delta)
            cases += 1
    assert cases >= 4


def test_analyze_builds_no_coprime_basis(monkeypatch):
    # the degeneracy divisor and Divisor.of_polynomial hand over their
    # normal form, so the report's degree and components reuse it
    calls = []
    basis = pfol.foliation.coprime_basis

    def counting(items, base=()):
        calls.append(items)
        return basis(items, base)

    monkeypatch.setattr(pfol.foliation, "coprime_basis", counting)
    for fol in (w1_foliation(3, 1), w2_foliations(5, random.Random(5), 1)[0]):
        report = analyze(fol)
        assert not report.p_closed and report.degeneracy
    assert calls == []


def test_analyze_report():
    p = 5
    F = GF(p, 2)
    t = F.generator()
    cone = cone_chart(F, 2)
    x0, x1, x2 = cone.vars()
    form = DiffForm(cone, 1, {
        (0,): (x1 * x2).scale(t - F.one()),
        (1,): x0 * x2,
        (2,): (x0 * x1).scale(-t),
    })
    fol = from_form(form)
    report = analyze(fol)
    assert report.p == p
    assert report.ambient == "P^2"
    assert not report.p_closed
    assert report.deg_degeneracy == 3
    assert report.predicted_deg_degeneracy == 3
    assert report.cartier_integrable is True
    assert "degeneracy" in report.to_json()


def plane_form(F, rng, deg):
    """a dx + b dy on A^2 over F, each coefficient summing F.random(rng)
    x^i y^j over i + j <= deg (a first): W1 for deg = 2."""
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    coeffs = []
    for _ in range(2):
        acc = MultiPoly.zero(F, 2)
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                acc = acc + (x**i * y**j).scale(F.random(rng))
        coeffs.append(acc)
    return DiffForm(chart, 1, {(0,): coeffs[0], (1,): coeffs[1]})


def dense_foliations(F, rng):
    """Foliations over F that are not p-closed, on A^2, P^2, A^3 and P^3.

    A^2 and P^2 carry the W1 form and its homogenization.  A^3 and P^3
    carry pullbacks of a degree-one plane form, along (x + c z, y + x z)
    and along (x0, x1 + x3, x2 + c x3), redrawn until both are not
    p-closed.  Over GF(p^2), log foliations on A^3 (x, y and 1 + c1 x +
    c2 z) and on P^3 (W2) join them.
    """
    form = plane_form(F, rng, 2)
    out = [from_form(form), projectivize(form)]
    a3, p3 = affine_chart(F, 3), cone_chart(F, 3)
    x, y, z = a3.vars()
    x0, x1, x2, x3 = p3.vars()
    while True:
        small = plane_form(F, rng, 1)
        c = F.random_nonzero(rng)
        try:
            plane = from_form(small)
            space = [
                pullback_foliation(RationalMap(a3, plane.chart, [x + z * c, y + x * z]), plane),
                pullback_foliation(
                    RationalMap(p3, cone_chart(F, 2), [x0, x1 + x3, x2 + x3 * c]),
                    projectivize(small),
                ),
            ]
        except ValueError:
            continue
        if not any(map(is_p_closed, space)):
            break
    out += space
    if F.k > 1:
        while True:
            lin = MultiPoly.one(F, 3) + x.scale(F.random_nonzero(rng)) + z.scale(
                F.random_nonzero(rng)
            )
            fol = log_foliation([x, y, lin], [F.random_nonzero(rng) for _ in range(3)])
            if not is_p_closed(fol):
                break
        out.append(fol)
        out += [fol for fol in w2_foliations(F.p, rng, 2) if not is_p_closed(fol)]
    return out


@pytest.mark.parametrize(
    "F", [GF(2), GF(3), GF(5), GF(7), GF(3, 2), GF(5, 2)], ids=lambda F: F.descriptor()
)
def test_eta_from_g_matches_the_route_through_f(F):
    # f = G r^p, and C(f^(p-1) omega) = r^(p-1) C(G^(p-1) omega); on A^2
    # there is one Koszul field, so r is a constant, and on P^2 a monomial
    p = F.p
    seen = set()
    for fol in dense_foliations(F, random.Random(1)):
        pc = fol.pcurvature
        eta = pc.eta
        r = pc.r
        assert pc.G.leading()[1] == F.one()
        assert pc.f == pc.G * r**p
        assert eta_reference(pc) == eta * r ** (p - 1)
        if fol.n == 2:
            assert len(r.terms) == 1 and (fol.projective or r.is_constant)
        seen.add((fol.n, fol.projective))
    assert seen == {(2, False), (2, True), (3, False), (3, True)}


def test_eta_when_g_is_one():
    # v = d/dx - x^(p-1) d/dy has v^p = -(p-1)! d/dy = d/dy (Wilson), so
    # the foliation dy + x^(p-1) dx has f = 1: G = r = 1 and no degeneracy
    for p in (2, 3, 5, 7):
        F = GF(p)
        chart = affine_chart(F, 2)
        x, _ = chart.vars()
        one = MultiPoly.one(F, 2)
        fol = from_form(DiffForm(chart, 1, {(0,): x ** (p - 1), (1,): one}))
        pc = fol.pcurvature
        assert pc.f == pc.G == one
        assert degeneracy_divisor(fol).is_zero()
        eta, _ = cartier_transform_foliation(fol)
        assert pc.r == one
        assert eta_reference(pc) == pc.eta == eta


def test_analyze_takes_one_gcd_of_the_values(monkeypatch):
    # the degeneracy divisor and the Cartier transform read one gcd G
    calls = []
    real = pfol.foliation.gcd_list

    def counting(polys):
        polys = list(polys)
        calls.append(polys)
        return real(polys)

    monkeypatch.setattr(pfol.foliation, "gcd_list", counting)
    F = GF(5, 2)
    t = F.generator()
    x, y, z = affine_chart(F, 3).vars()
    foliations = [
        w1_foliation(3, 1),
        log_foliation([x, y, x * 2 + z * t + 1], [F.one(), t, F.one()]),
        w2_foliations(5, random.Random(5), 1)[0],
    ]
    for fol in foliations:
        calls.clear()
        report = analyze(fol)
        assert not report.p_closed and report.cartier_integrable is not None
        assert calls == [[val for val in fol.pcurvature.values if val]]


# ---------------------------------------------------------------------------
# guards a caller can reach

F5 = GF(5)
A2 = affine_chart(F5, 2)
P2 = cone_chart(F5, 2)
X, Y = A2.vars()

FOLIATION_GUARDS = [
    (lambda: Divisor.of_polynomial(MultiPoly.zero(F5, 2), A2), ValueError,
     "divisor of the zero polynomial"),
    (lambda: Divisor.of_homogeneous(MultiPoly.zero(F5, 3), P2), ValueError,
     "divisor of the zero polynomial"),
    (lambda: koszul_fields(A2.dx(0).wedge(A2.dx(1))), ValueError, "Koszul fields need a 1-form"),
    (lambda: log_foliation([X], [1]), ValidationError,
     "need matching components and weights, at least two"),
    (lambda: log_foliation([X, A2.coerce(2)], [1, 1]), ValidationError,
     "components must be non-constant"),
    (lambda: log_foliation([X, Y], [1, 0]), ValidationError, "weights must be nonzero"),
    (lambda: log_foliation([P2.var(0), P2.var(1) ** 2 + P2.var(2)], [1, 1], projective=True),
     ValidationError, "projective components must be homogeneous"),
    (lambda: p_kernel(from_form(Y * A2.dx(0) - X.scale(2) * A2.dx(1))), ValueError,
     "the kernel distribution needs ambient dimension >= 3"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [pytest.param(*guard, id=f"{i}-{guard[2]}") for i, guard in enumerate(FOLIATION_GUARDS)],
)
def test_foliation_guards_refuse_with_their_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_a_divisor_is_never_equal_to_a_number():
    assert Divisor.zero(A2) != 0

import random

import pytest

import pfol.foliation
from pfol import InternalError
from pfol.cartier import cartier_transform
from pfol.exterior import DiffForm, VectorField, affine_chart, cone_chart, euler_field
from pfol.foliation import (
    Divisor,
    Foliation,
    PClosedError,
    ValidationError,
    analyze,
    cartier_transform_foliation,
    closed_defining_form,
    coprime_basis,
    degeneracy_divisor,
    divisor_difference_of_closed_form,
    from_form,
    is_invariant_hypersurface,
    is_p_closed,
    koszul_fields,
    log_foliation,
    p_curvature,
    p_kernel,
    predicted_degeneracy_degree,
    projectivize,
)
from pfol.mpoly import MultiPoly, gcd_list
from pfol.rings import GF

from chart_reference import glue_chart_divisors


def test_coprime_basis():
    F = GF(5)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    basis = coprime_basis([x * y, y * (x + y)])
    assert sorted(map(str, basis)) == ["x", "x + y", "y"]


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


def assert_normal_form_kept(d):
    """The normal form a divisor keeps equals one computed afresh."""
    assert d.normalize() == Divisor(d.ring, d.nvars, d.items, d.ambient).normalize()


def test_divisor_arithmetic():
    F = GF(5)
    x = MultiPoly.var(F, 2, 0)
    y = MultiPoly.var(F, 2, 1)
    d1 = Divisor.of_polynomial(x**2 * y)
    d2 = Divisor.of_polynomial(x)
    assert d1.degree() == 3
    assert (d1 - 2 * d2).normalize() == [(y.monic(), 1)]
    assert (d1 - d1).is_zero()
    assert d1 == Divisor.of_polynomial(x * y * x)
    assert not (d1 - d2).is_effective() or (d1 - d2).is_effective()
    assert (d1 - 3 * d2).normalize() == [(x.monic(), -1), (y.monic(), 1)]


def test_divisor_sums_start_from_kept_normal_forms(monkeypatch):
    F = GF(5)
    x = MultiPoly.var(F, 3, 0)
    y = MultiPoly.var(F, 3, 1)
    z = MultiPoly.var(F, 3, 2)
    d1 = Divisor.of_polynomial(x**2 * y * (x + y * z), "proj")
    d2 = Divisor.of_polynomial(x * (x + y * z) * x * y, "proj")
    d3 = Divisor.of_polynomial(x * y * z, "proj")
    combos = [d1 - d2, d1 + 2 * d3 - d2, -d3 + d1, 3 * d3]
    # the same sums from bare items, which are decomposed afresh
    fresh = [
        Divisor(F, 3, d.items, "proj").normalize()
        for d in (
            Divisor(F, 3, d1.items + [(f, -m) for f, m in d2.items], "proj"),
            Divisor(F, 3, d1.items + [(f, 2 * m) for f, m in d3.items]
                    + [(f, -m) for f, m in d2.items], "proj"),
            Divisor(F, 3, [(f, -m) for f, m in d3.items] + d1.items, "proj"),
            Divisor(F, 3, [(f, 3 * m) for f, m in d3.items], "proj"),
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
                val = p_curvature(fol, v)
                expected = xyz.scale(lam[j] ** p * lam[0] - lam[0] ** p * lam[j])
                assert val == expected


def test_from_form_validation():
    F = GF(5)
    cone = cone_chart(F, 2)
    x0, x1, x2 = cone.vars()
    # not annihilated by the radial field
    bad = DiffForm(cone, 1, {(0,): x1, (1,): x0})
    with pytest.raises(ValidationError):
        from_form(bad, projective=True)
    # unsaturated without auto_saturate
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    unsat = DiffForm(chart, 1, {(0,): x * y, (1,): x * x})
    with pytest.raises(ValidationError):
        from_form(unsat)
    fol = from_form(unsat, auto_saturate=True)
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
        from_form(form, projective=True, check_integrable=False)


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
        fol = from_form(form, projective=True)
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
    omega, f = closed_defining_form(fol)
    # omega / f is closed: d(omega / f) = (f d(omega) - df /\ omega) / f^2
    df = DiffForm(chart, 0, {(): f}).d()
    assert (omega.d() * f - df.wedge(omega)).is_zero
    # zeros minus poles of the closed form agrees with Delta modulo p
    delta = degeneracy_divisor(fol)
    diff = divisor_difference_of_closed_form(omega, f)
    residual = delta - diff
    assert all(m % p == 0 for _, m in residual.normalize())


def test_p_closed_has_no_degeneracy():
    F = GF(3)
    chart = affine_chart(F, 3)
    xs = chart.vars()
    fol = log_foliation(xs, [F.coerce(2), F.one(), F.one()])
    with pytest.raises(PClosedError):
        degeneracy_divisor(fol)
    with pytest.raises(PClosedError):
        closed_defining_form(fol)


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
    fol = from_form(form, projective=True)
    for h in (x0, x1, x2):
        assert is_invariant_hypersurface(fol.form, h)
    assert not is_invariant_hypersurface(fol.form, x0 + x1)


def test_cartier_transform_rejects_non_closed_defining_form():
    # y dx + z dy + x dz is not integrable, so omega / omega(v^p) cannot be
    # closed
    F = GF(3)
    chart = affine_chart(F, 3)
    x, y, z = chart.vars()
    fol = Foliation(DiffForm(chart, 1, {(0,): y, (1,): z, (2,): x}), False, None)
    assert not is_p_closed(fol)
    with pytest.raises(InternalError, match="failed to be closed") as info:
        cartier_transform_foliation(fol)
    assert info.value.stage == "foliation.PCurvature.eta"


def test_analyze_runs_the_cartier_operator_once(monkeypatch):
    # analyze on a W2 log foliation on P^3 reads the Cartier transform for
    # both the integrability flag and the kernel from one computation
    import pfol.foliation

    calls = []

    def counting(form, check_closed=True):
        calls.append(form)
        return cartier_transform(form, check_closed)

    monkeypatch.setattr(pfol.foliation, "cartier_transform", counting)
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
            assert delta.ambient == "affine" and not delta.is_zero()
            assert_normal_form_kept(delta)
            cases += 1
    assert cases >= 4


def test_analyze_builds_no_coprime_basis(monkeypatch):
    # the degeneracy divisor and Divisor.of_polynomial hand over their
    # normal form, so the report's degree and components reuse it
    calls = []
    basis = pfol.foliation.coprime_basis

    def counting(polys):
        calls.append(polys)
        return basis(polys)

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
    fol = from_form(form, projective=True)
    report = analyze(fol)
    assert report.p == p
    assert report.ambient == "P^2"
    assert not report.p_closed
    assert report.deg_degeneracy == 3
    assert report.predicted_deg_degeneracy == 3
    assert report.cartier_integrable is True
    assert "degeneracy" in report.to_json()

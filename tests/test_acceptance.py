"""End-to-end checks: one test per headline property of the engine.

Each test pins an exact golden value or verifies an exact identity on a
batch of randomized instances; all arithmetic is exact, and every assert is
exact equality.
"""

import random

from pfol.cartier import cartier_transform
from pfol.distmin import distmin2
from pfol.exterior import (
    DiffForm,
    VectorField,
    affine_chart,
    cone_chart,
    euler_field,
)
from pfol.foliation import (
    Divisor,
    Foliation,
    analyze,
    cartier_transform_foliation,
    degeneracy_divisor,
    from_form,
    is_invariant_hypersurface,
    is_p_closed,
    log_foliation,
    p_kernel,
    predicted_degeneracy_degree,
)
from pfol.geommaps import (
    RationalMap,
    linear_hyperplane_embedding,
    pullback_divisor,
    restrict_form,
    restrict_foliation,
    verify_pullback_degeneracy,
)
from pfol.models import (
    IntegralModel,
    classify_integer_defect,
    integrability_defect_integer,
    prime_scan,
)
import pfol.mpoly as mpoly
from pfol.mpoly import MultiPoly, gcd_list, squarefree_decomposition
from pfol.parsing import parse_document
from pfol.rings import GF, NumberRing, QQ, ZZ

from chart_reference import projectivize


def random_poly(ring, nvars, rng, deg=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in range(nvars))
        c = ring.random(rng)
        if c:
            terms[e] = c
    return MultiPoly(ring, nvars, terms)


# 1. p-curvature of logarithmic foliations: exact identity and density


def test_log_p_curvature_identity_and_exhaustive_density():
    for p in (3, 5, 7):
        F = GF(p, 2)
        chart = affine_chart(F, 3)
        xs = chart.vars()
        xyz = xs[0] * xs[1] * xs[2]
        rng = random.Random(p)
        for _ in range(4):
            lam = [F.random_nonzero(rng) for _ in range(3)]
            fol = log_foliation(xs, lam)
            for j in (1, 2):
                comps = [MultiPoly.zero(F, 3) for _ in range(3)]
                comps[0] = xs[0].scale(lam[j])
                comps[j] = xs[j].scale(-lam[0])
                v = VectorField(chart, comps)
                val = fol.form.pair(v.pth_power())
                expected = xyz.scale(lam[j] ** p * lam[0] - lam[0] ** p * lam[j])
                assert val == expected
    # exhaustive over the projective plane of weights for p = 3
    F9 = GF(3, 2)
    chart = affine_chart(F9, 3)
    xs = chart.vars()
    xyz3 = xs[0] * xs[1] * xs[2]
    points = []
    elems = list(F9.elements())
    for a in elems:
        for b in elems:
            points.append((F9.one(), a, b))
    for b in elems:
        points.append((F9.zero(), F9.one(), b))
    points.append((F9.zero(), F9.zero(), F9.one()))
    assert len(points) == 91
    prime_subfield = {F9.coerce(c) for c in range(3)}
    for lam in points:
        terms = {}
        for i in range(3):
            c = xyz3.exact_div(xs[i]).scale(lam[i])
            if c:
                terms[(i,)] = c
        fol = Foliation(DiffForm(chart, 1, terms), None)
        first = next(c for c in lam if c)
        normalized = [c / first for c in lam]
        in_prime_plane = all(c in prime_subfield for c in normalized)
        assert is_p_closed(fol) == in_prime_plane


# 2. golden value of the Cartier operator


def test_cartier_golden_value():
    for p in (3, 5, 7):
        F = GF(p)
        chart = affine_chart(F, 3)
        x, y, z = chart.vars()
        form = DiffForm(chart, 1, {(1,): y ** (p - 1), (0,): z**p * x ** (p - 1)})
        image = cartier_transform(form)
        expected = DiffForm(chart, 1, {(1,): MultiPoly.one(F, 3), (0,): z})
        assert image == expected
        assert not image.wedge(image.d()).is_zero


# 3. contraction identity for the Cartier operator


def test_contraction_cartier_power_identity():
    # (i_v C(omega))^p = i_{v^p} omega - v^(p-1)(i_v omega) on closed forms
    for p in (3, 5):
        F = GF(p)
        n = 2
        chart = affine_chart(F, n)
        rng = random.Random(10 * p)
        failures = 0
        for _ in range(100):
            primitive = random_poly(F, n, rng, deg=3, nterms=4)
            terms = {}
            for i in range(n):
                c = primitive.deriv(i)
                h = random_poly(F, n, rng, deg=1, nterms=1)
                mono = (h**p) * MultiPoly.monomial(
                    F, n, tuple(p - 1 if j == i else 0 for j in range(n))
                )
                c = c + mono
                if c:
                    terms[(i,)] = c
            omega = DiffForm(chart, 1, terms)
            assert omega.d().is_zero
            v = VectorField(
                chart, [random_poly(F, n, rng, deg=1, nterms=2) for _ in range(n)]
            )
            lhs = cartier_transform(omega).pair(v) ** p
            rhs = omega.pair(v.pth_power()) - v.apply_iter(omega.pair(v), p - 1)
            if lhs != rhs:
                failures += 1
        assert failures == 0


# 4. p-th power of a function multiple of a vector field


def test_pth_power_of_function_multiple_fixed_sign():
    # (f v)^p = f^p v^p - f * v^(p-1)(f^(p-1)) * v, with the minus sign
    # validated on every instance where the correction term is nonzero
    validated_sign = -1
    for p in (3, 5):
        F = GF(p)
        n = 2
        chart = affine_chart(F, n)
        rng = random.Random(20 * p)
        checked = 0
        for _ in range(100):
            f = random_poly(F, n, rng, deg=1, nterms=2)
            v = VectorField(
                chart, [random_poly(F, n, rng, deg=1, nterms=2) for _ in range(n)]
            )
            fv = VectorField(chart, [f * c for c in v.comps])
            lhs = fv.pth_power()
            fp = f**p
            vp = v.pth_power()
            corr = v.apply_iter(f ** (p - 1), p - 1)
            head = VectorField(chart, [fp * c for c in vp.comps])
            tail = VectorField(chart, [f * corr * c for c in v.comps])
            assert head + tail * F.coerce(validated_sign) == lhs
            if tail:
                # the sign is pinned: the opposite sign must fail
                assert head - tail * F.coerce(validated_sign) != lhs
                checked += 1
        assert checked > 50
    assert validated_sign == -1


# 5. degeneracy divisor of a degree-one projective foliation


def test_degree_one_degeneracy_is_sum_of_three_lines():
    for p in (3, 5, 7):
        F = GF(p, 2)
        t = F.generator()  # alpha/beta = t is outside the prime field
        cone = cone_chart(F, 2)
        x0, x1, x2 = cone.vars()
        alpha, beta = t, F.one()
        form = DiffForm(cone, 1, {
            (0,): (x1 * x2).scale(alpha - beta),
            (1,): (x0 * x2).scale(beta),
            (2,): (x0 * x1).scale(-alpha),
        })
        fol = from_form(form)
        delta = degeneracy_divisor(fol)
        assert delta.normalize() == [(x0, 1), (x1, 1), (x2, 1)]
        assert delta.degree() == 3
        assert predicted_degeneracy_degree(p, 1, 0) == 3


# 6. degeneracy degree of a degree-two projective foliation


def test_degree_two_degeneracy_has_degree_p_plus_four():
    for p in (3, 5):
        F = GF(p)
        chart = affine_chart(F, 2)
        x, y = chart.vars()
        a2 = x**2 + x * y.scale(F.coerce(2)) - y**2
        b2 = x**2 + x**2 + x * y + y**2
        form = DiffForm(chart, 1, {(0,): -y + a2, (1,): x + b2})
        fol = projectivize(form)
        assert fol.degree == 2
        delta = degeneracy_divisor(fol)
        assert delta.degree() == p + 4
        assert delta.degree() == predicted_degeneracy_degree(p, 2, 0)


def w1_foliation(p, d, seed=1):
    """W1: each coefficient of a dx + b dy sums F.random(rng) x^i y^j over
    i + j <= d (a first, then b), rng = random.Random(seed), homogenized
    to a foliation of degree d on P^2."""
    F = GF(p)
    rng = random.Random(seed)
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    coeffs = []
    for _ in range(2):
        acc = MultiPoly.zero(F, 2)
        for i in range(d + 1):
            for j in range(d + 1 - i):
                acc = acc + (x**i * y**j).scale(F.random(rng))
        coeffs.append(acc)
    return projectivize(DiffForm(chart, 1, {(0,): coeffs[0], (1,): coeffs[1]}))


def test_generic_degree_two_plane_foliation_over_f5():
    p = 5
    report = analyze(w1_foliation(p, 2))
    assert report.deg_degeneracy == predicted_degeneracy_degree(p, 2, 0) == 9
    assert report.cartier_integrable is True


def test_generic_degree_two_plane_foliation_over_f7():
    p = 7
    report = analyze(w1_foliation(p, 2))
    assert report.deg_degeneracy == predicted_degeneracy_degree(p, 2, 0) == 11
    assert report.cartier_integrable is True


def test_generic_degree_three_plane_foliation_over_f5():
    p = 5
    report = analyze(w1_foliation(p, 3))
    assert report.deg_degeneracy == predicted_degeneracy_degree(p, 3, 0) == 15
    assert report.cartier_integrable is True


def test_generic_degree_three_plane_foliation_over_f7():
    p = 7
    report = analyze(w1_foliation(p, 3))
    assert report.deg_degeneracy == predicted_degeneracy_degree(p, 3, 0) == 19
    assert report.cartier_integrable is True


def test_generic_degree_four_plane_foliation_over_f3():
    p = 3
    report = analyze(w1_foliation(p, 4))
    assert report.deg_degeneracy == predicted_degeneracy_degree(p, 4, 0) == 15
    assert report.cartier_integrable is True


def test_log_foliation_on_affine_space_over_gf_17_squared():
    # f has degree 20 here and G degree 3, so eta is taken from G^16
    doc = parse_document(
        "field Fq:17^2:t^2+3\n"
        "ambient affine 3\n"
        "vars x y z\n"
        "form omega = (4 + 2*t)*y*(1 + 16*x + 13*z)*dx"
        " + (8 + 3*t)*x*(1 + 16*x + 13*z)*dy + (15 + 14*t)*x*y*(16*dx + 13*dz)\n"
    )
    report = analyze(from_form(doc.the_form()))
    assert report.deg_degeneracy == 3
    assert report.cartier_integrable is True


def test_w2_log_foliation_on_p3_over_gf_11_squared():
    doc = parse_document(
        "field Fq:11^2:t^2+1\n"
        "ambient proj 3\n"
        "vars x0 x1 x2 x3\n"
        "form omega = (2 + 9*t)*x0*x1*x2*((2*x0 + x1)*dx0 + x0*dx1 - x3*dx2 - x2*dx3)"
        " + (1 + 4*t)*(x0*x1 - x2*x3 + x0^2)*x1*x2*dx0"
        " + (1 + 7*t)*(x0*x1 - x2*x3 + x0^2)*x0*x2*dx1"
        " + (5 + 4*t)*(x0*x1 - x2*x3 + x0^2)*x0*x1*dx2\n"
    )
    report = analyze(from_form(doc.the_form()))
    assert report.deg_degeneracy == report.predicted_deg_degeneracy == 5
    assert report.deg_kernel == 2
    assert report.cartier_integrable is True


def test_squarefree_degeneracy_polynomial_runs_no_pseudo_remainder(monkeypatch):
    # W1 over F_3 at the seeds of the plane_generic corpus: G, the gcd of
    # the values omega(v^p), is squarefree once its monomial part is split
    # off at seeds 2, 3 and 4, so a certificate settles its squarefree
    # decomposition; at seed 1 G has the factor (x0 + x1 + 2*x2)^3 and the
    # pseudo-remainder sequence runs
    calls = []
    prem = mpoly._prem

    def counted(a, b, v):
        calls.append(v)
        return prem(a, b, v)

    monkeypatch.setattr(mpoly, "_prem", counted)
    for seed in (1, 2, 3, 4):
        fol = w1_foliation(3, 2, seed)
        g = gcd_list([val for val in fol.pcurvature.values if val]).monic()
        del calls[:]
        parts = squarefree_decomposition(g)
        if seed == 1:
            assert calls and max(m for _, m in parts) == 3
        else:
            assert calls == [] and parts == [(g, 1)]


# 7. three pullback behaviors of the degeneracy divisor


def test_pullback_behavior_three_rows():
    for p in (5, 7):
        F = GF(p, 2)
        t = F.generator()
        chart = affine_chart(F, 3)
        x, y, z = chart.vars()
        one = MultiPoly.one(F, 3)
        for ell in (2, 3):
            assert ell % p != 0
            phi = RationalMap(chart, chart, [x, y, z**ell])
            # row: branch hypersurface invariant
            fol = log_foliation([x, y, z], [t, F.one(), F.one()])
            res = verify_pullback_degeneracy(phi, fol)
            assert res["matches"]
            drop = res["delta_pullback"] - res["pullback_of_delta"]
            assert drop.normalize() == [(z.monic(), -(ell - 1))]
            # row: branch hypersurface kernel-invariant only
            fol2 = from_form(DiffForm(chart, 1, {(0,): one, (2,): x}))
            res2 = verify_pullback_degeneracy(phi, fol2)
            assert res2["matches"]
            gain = res2["delta_pullback"] - res2["pullback_of_delta"]
            assert gain.normalize() == [(z.monic(), p * (ell - 1))]
            # row: branch hypersurface transverse to everything
            fol3 = log_foliation([x, y, z + one], [t, F.one(), F.one()])
            res3 = verify_pullback_degeneracy(phi, fol3)
            assert res3["matches"]
            assert (res3["delta_pullback"] - res3["pullback_of_delta"]).is_zero()


# 8. scan of the irrational-weight log model, and its kernel at p = 7


def irrational_log_model():
    R = NumberRing([1, 0, 1])
    chart = affine_chart(R, 3)
    x, y, z = chart.vars()
    a = R.generator()
    form = DiffForm(chart, 1, {
        (0,): (y * z).scale(a),
        (1,): x * z,
        (2,): x * y,
    })
    return IntegralModel(form)


def test_irrational_log_scan_and_frobenius_conjugate_kernel():
    model = irrational_log_model()
    rows = prime_scan(model, 13)
    assert all(not r.note for r in rows)
    closed = sorted({r.p for r in rows if r.p_closed})
    dense = sorted({r.p for r in rows if r.p_closed is False})
    assert closed == [2, 5, 13]
    assert dense == [3, 7, 11]
    # the kernel distribution at p = 7 is cut out by the pair of closed log
    # forms with weights (t, 1, 1) and (t^(1/p), 1, 1)
    p = 7
    F = GF(p, 2)
    t = F.generator()
    chart = affine_chart(F, 3)
    x, y, z = chart.vars()
    fol = log_foliation([x, y, z], [t, F.one(), F.one()])
    theta = p_kernel(fol).two_form
    xyz = x * y * z

    def log_numerator(weights):
        # sum_i w_i dlog(f_i) = num / (x y z) for the components x, y, z
        num = chart.zero_form(1)
        for w, f in zip(weights, (x, y, z)):
            df = DiffForm(chart, 1, {(i,): f.deriv(i) for i in range(3)})
            num = num + df * (xyz.exact_div(f) * w)
        return num

    s = F.pth_root(t)
    assert s == F.frobenius(t)  # conjugate root of the minimal polynomial
    w1 = log_numerator([t, 1, 1])
    w2 = log_numerator([s, 1, 1])
    # w1 /\ w2 is (x y z)^2 times the wedge of the two log forms
    candidate = w1.wedge(w2).saturate()
    # proportionality of the two saturated 2-forms
    pairs = [(0, 1), (0, 2), (1, 2)]
    coeffs_a = [theta.coeff(ij) for ij in pairs]
    coeffs_b = [candidate.coeff(ij) for ij in pairs]
    for i in range(3):
        for j in range(i + 1, 3):
            assert coeffs_a[i] * coeffs_b[j] == coeffs_a[j] * coeffs_b[i]
    assert not theta.is_zero and not candidate.is_zero


# 9. integer integrability defect golden value


def frobenius_power_form(p: int) -> DiffForm:
    """x^(p-1) dx + z^p y^(p-1) dy over Z in three variables."""
    chart = affine_chart(ZZ, 3)
    x, y, z = chart.vars()
    return DiffForm(chart, 1, {(0,): x ** (p - 1), (1,): z**p * y ** (p - 1)})


def test_integer_defect_golden_value():
    for p in (3, 5):
        form = frobenius_power_form(p)
        defect = integrability_defect_integer(form)
        x, y, z = form.chart.vars()
        expected = (x * y * z) ** (p - 1)
        coeff = defect.coeff((0, 1, 2))
        assert coeff == expected.scale(-p)  # the module's sign convention
        cls = classify_integer_defect(defect, p)
        assert cls["content"] == p and cls["p_content"] == 1


# 10. minimal degrees of codimension-two subdistributions


def test_minimal_subdistribution_degrees():
    for ring in (GF(101), QQ):
        cone = cone_chart(ring, 3)
        x0, x1, x2, x3 = cone.vars()
        one, minus = ring.coerce(1), ring.coerce(-1)
        # pencil of quadrics: delta* = deg F
        f1 = x0**2 + x1**2 + x2**2 + x3**2
        f2 = x0**2 + x1**2 + x1**2 + x2**2 + x2**2 + x2**2 + x3**2 * 5
        pencil = log_foliation([f1, f2], [one, minus], projective=True)
        res = distmin2(pencil)
        assert res.delta == 2 == pencil.degree and res.integrable
        # three components of degrees (1, 1, 2): delta* = deg F - 1
        f3 = x2**2 + x3**2 + x0 * x1 + x0 * x2
        three = log_foliation([x0, x1, f3], [one, one, minus], projective=True)
        res = distmin2(three)
        assert res.delta == 1 == three.degree - 1 and res.integrable
        # pullback from a pencil on the plane: delta* = 0
        h1 = x0 + x1 + x2
        h2 = x0**2 + x1**2 + x1**2 + x2**2 + x2**2 + x2**2 + x0 * x2
        flat = log_foliation([h1, h2], [ring.coerce(2), minus], projective=True)
        res = distmin2(flat)
        assert res.delta == 0 and res.integrable


# 11. divisor of the closed defining form, and invariant hypersurfaces


def _criteria_examples():
    examples = []
    # the degree-one projective foliations (with known invariant lines)
    for p in (3, 5, 7):
        F = GF(p, 2)
        t = F.generator()
        cone = cone_chart(F, 2)
        x0, x1, x2 = cone.vars()
        form = DiffForm(cone, 1, {
            (0,): (x1 * x2).scale(t - F.one()),
            (1,): x0 * x2,
            (2,): (x0 * x1).scale(-t),
        })
        examples.append((from_form(form), [x0, x1, x2]))
    # the degree-two projective foliations
    for p in (3, 5):
        F = GF(p)
        chart = affine_chart(F, 2)
        x, y = chart.vars()
        a2 = x**2 + x * y.scale(F.coerce(2)) - y**2
        b2 = x**2 + x**2 + x * y + y**2
        form = DiffForm(chart, 1, {(0,): -y + a2, (1,): x + b2})
        examples.append((projectivize(form), []))
    # the p-dense reductions of the irrational log model
    model = irrational_log_model()
    from pfol.models import reduce_model

    for p in (3, 7, 11):
        fol = reduce_model(model, p, [1, 0, 1])
        xs = fol.chart.vars()
        examples.append((fol, list(xs)))
    return examples


def test_closed_form_divisor_congruence_and_invariance():
    for fol, invariant_hypersurfaces in _criteria_examples():
        p = fol.p
        delta = degeneracy_divisor(fol)
        support = [h for h, _ in delta.normalize()]
        if not fol.projective:
            omega, f, chart = fol.form, fol.pcurvature.f, fol.chart
            # poles minus zeros of omega / f
            diff = (Divisor.of_polynomial(f, chart)
                    - Divisor.of_polynomial(omega.content(), chart))
            residual = delta - diff
            assert all(m % p == 0 for _, m in residual.normalize())
        # known invariant hypersurfaces lie in the support of the divisor
        for h in invariant_hypersurfaces:
            assert is_invariant_hypersurface(fol.form, h)
            # normalized components are squarefree but may factor further
            assert any(h.monic().divides(g) for g in support)
        # components with multiplicity not divisible by p are invariant
        for h, m in delta.normalize():
            if m % p != 0:
                assert is_invariant_hypersurface(fol.form, h)


# 12. restriction to a hyperplane and the different


def test_restriction_formula_generic_hyperplane():
    p = 7
    F = GF(p, 2)
    t = F.generator()
    cone = cone_chart(F, 3)
    xs = cone.vars()
    fol = log_foliation(xs, [-(t + 2), t, F.one(), F.one()], projective=True)
    emb = linear_hyperplane_embedding(cone_chart(F, 3), [1, 2, 3, 1])
    sub, different = restrict_foliation(fol, emb)
    delta = degeneracy_divisor(fol)
    delta_sub = degeneracy_divisor(sub)
    _, diff_kernel = restrict_form(emb, p_kernel(fol).two_form)
    predicted = (
        pullback_divisor(emb, delta) + p * (diff_kernel - different) - different
    )
    assert delta_sub == predicted


# 13. Cartier transforms of reductions of characteristic-zero models


def characteristic_zero_models():
    yield irrational_log_model()
    # a plane model over Z with generically dense p-curvature
    chart = affine_chart(ZZ, 2)
    x, y = chart.vars()
    one = MultiPoly.one(ZZ, 2)
    form = DiffForm(chart, 1, {(0,): one - x * y, (1,): x * x})
    yield IntegralModel(form)
    # a log model over Z, p-closed at every prime
    chart3 = affine_chart(ZZ, 3)
    x, y, z = chart3.vars()
    form3 = DiffForm(chart3, 1, {
        (0,): y * z, (1,): (x * z).scale(2), (2,): x * y,
    })
    yield IntegralModel(form3)


def test_lifted_models_have_integrable_cartier_transforms():
    violations = 0
    for model in characteristic_zero_models():
        for row in prime_scan(model, 13):
            if row.note or row.p_closed or row.p <= 2:
                continue
            if row.cartier_integrable is not True:
                violations += 1
    assert violations == 0

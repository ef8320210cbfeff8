import itertools
import random

import pytest

from exterior_reference import (
    add_reference,
    contract_reference,
    d_reference,
    sub_reference,
    wedge_reference,
)
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
from pfol.mpoly import MultiPoly
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


def test_constructor_sums_signs_and_drops_pairs():
    chart = affine_chart(GF(5), 3)
    x, y, z = chart.vars()
    # a repeated index is summed, and a constant is coerced to the chart
    summed = DiffForm(chart, 1, [((0,), x), ((2,), 3), ((0,), y)])
    assert summed.terms == {(0,): x + y, (2,): chart.coerce(3)}
    assert all(type(c) is MultiPoly for c in summed.terms.values())
    # a permuted index is signed by its permutation
    assert DiffForm(chart, 2, [((2, 0), x)]).terms == {(0, 2): -x}
    assert DiffForm(chart, 3, [((2, 0, 1), x), ((1, 0, 2), y)]).terms == {
        (0, 1, 2): x - y
    }
    # an index with a repeated entry is dropped
    assert DiffForm(chart, 2, [((1, 1), x), ((0, 1), y)]).terms == {(0, 1): y}
    # a cancelling pair leaves no term, not even a zero one
    assert DiffForm(chart, 2, [((0, 1), x), ((1, 0), x), ((1, 2), z)]).terms == {
        (1, 2): z
    }
    assert DiffForm(chart, 1, [((0,), x), ((1,), y), ((0,), -x)]).terms == {(1,): y}
    assert DiffForm(chart, 2, [((0, 1), x), ((1, 0), x)]).is_zero
    with pytest.raises(ValueError):
        DiffForm(chart, 2, [((0,), x)])


def test_mapping_and_its_pairs_give_equal_forms():
    rng = random.Random(11)
    for F in (GF(5), GF(3, 2), QQ):
        for n in (2, 3, 4):
            chart = affine_chart(F, n)
            for q in range(n + 1):
                # unsorted keys too: the mapping is normalized like the pairs
                terms = {
                    tuple(rng.sample(idx, q)): random_poly(F, n, rng)
                    for idx in itertools.combinations(range(n), q)
                }
                form = DiffForm(chart, q, terms)
                assert DiffForm(chart, q, list(terms.items())) == form
                assert DiffForm(chart, q, (kv for kv in terms.items())) == form


def random_form(chart, q, rng):
    """A q-form on ``chart`` with each basis index present at random."""
    indices = itertools.combinations(range(chart.nvars), q)
    return DiffForm(chart, q, {
        idx: random_poly(chart.ring, chart.nvars, rng)
        for idx in indices if rng.random() < 0.75
    })


def assert_normalized(form):
    for idx, c in form.terms.items():
        assert list(idx) == sorted(set(idx)) and len(idx) == form.q
        assert type(c) is MultiPoly and c


@pytest.mark.parametrize("nvars", [2, 3, 4])
@pytest.mark.parametrize(
    "field", [GF(5), GF(3, 2), QQ], ids=["GF(5)", "GF(3^2)", "Q"]
)
def test_form_operations_match_their_own_loops(field, nvars):
    rng = random.Random(31 * nvars + field.characteristic)
    chart = affine_chart(field, nvars)
    forms = [random_form(chart, q, rng) for q in range(nvars + 1) for _ in range(3)]
    fields = [random_field(chart, rng) for _ in range(2)]
    fields.append(VectorField(chart, [chart.var(0)] + [0] * (nvars - 1)))
    for a in forms:
        results = [(a.d(), d_reference(a))]
        if a.q:
            results += [(a.contract(v), contract_reference(a, v)) for v in fields]
        for b in forms:
            results.append((a.wedge(b), wedge_reference(a, b)))
            if a.q == b.q:
                results += [(a + b, add_reference(a, b)), (a - b, sub_reference(a, b))]
        for got, expected in results:
            assert got == expected
            assert_normalized(got)
    # wedges that cancel to zero: alpha /\ f alpha, df /\ df, and in four
    # variables theta /\ theta for a decomposable 2-form theta
    alpha, beta = random_one_form(chart, rng), random_one_form(chart, rng)
    f = random_poly(field, nvars, rng) + 1
    df = DiffForm(chart, 0, {(): f}).d()
    cancelling = [(alpha, alpha * f), (df, df), (alpha.wedge(beta), alpha)]
    if nvars == 4:
        theta = alpha.wedge(beta)
        cancelling.append((theta, theta))
    for a, b in cancelling:
        assert wedge_reference(a, b).is_zero
        assert a.wedge(b).is_zero and a.wedge(b).terms == {}
    assert (alpha - alpha).terms == {} and sub_reference(alpha, alpha).is_zero


def test_coefficients_are_polynomials():
    chart = affine_chart(GF(5), 2)
    x, y = chart.vars()
    # each object built from MultiPolys and from ring constants and sums
    builds = [
        (
            DiffForm(chart, 1, {(0,): y, (1,): x * y}),
            chart.dx(0) * y + chart.dx(1) * (y * x) + chart.dx(0) * 0,
            lambda form: list(form.terms.values()),
        ),
        (
            VectorField(chart, [x, y]),
            VectorField(chart, [x, 0]) + VectorField(chart, [0, 1]) * y,
            lambda v: v.comps,
        ),
        (
            RationalMap(chart, chart, [x, y**2]),
            RationalMap(chart, chart, [x * 1, y * y], 1),
            lambda phi: phi.comps + [phi.den],
        ),
    ]
    for from_polys, from_constants, coeffs in builds:
        for c in coeffs(from_polys) + coeffs(from_constants):
            assert type(c) is MultiPoly
        assert from_polys == from_constants
        assert hash(tuple(coeffs(from_polys))) == hash(tuple(coeffs(from_constants)))
    form, field = builds[0][1], builds[1][1]
    assert hash(builds[0][0]) == hash(form)
    assert type(form.pair(field)) is MultiPoly
    assert type(field.apply(3)) is MultiPoly
    assert all(type(c) is MultiPoly for c in form.d().terms.values())
    assert type(field.pth_power().comps[1]) is MultiPoly
    # a rational map keeps polynomial numerators and one denominator
    rational = RationalMap(chart, chart, [x * x, y], x)
    assert rational.comps == [x * x, y] and rational.den == x
    assert all(type(c) is MultiPoly for c in rational.comps + [rational.den])


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
        lhs = (alpha * f).d()
        rhs = df.wedge(alpha) + alpha.d() * f
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
        f = random_poly(GF(7), 3, rng)
        bracket = v.lie_bracket(w)
        assert bracket.apply(f) == v.apply(w.apply(f)) - w.apply(v.apply(f))


def test_pth_power_is_derivation():
    rng = random.Random(5)
    chart = affine_chart(GF(3), 2)
    for _ in range(10):
        v = random_field(chart, rng)
        f = random_poly(GF(3), 2, rng)
        g = random_poly(GF(3), 2, rng)
        vp = v.pth_power()
        assert vp.apply(f * g) == vp.apply(f) * g + f * vp.apply(g)


def pth_power_reference(v):
    """v^p by applying v p times to each coordinate, one ``apply`` at a time."""
    p = v.chart.ring.characteristic
    return VectorField(
        v.chart, [v.apply_iter(v.chart.var(i), p) for i in range(v.chart.nvars)]
    )


def homogeneous_poly(ring, nvars, rng, deg, nterms):
    monomials = [e for e in itertools.product(range(deg + 1), repeat=nvars)
                 if sum(e) == deg]
    return MultiPoly(ring, nvars, {e: ring.random(rng)
                                   for e in rng.sample(monomials, nterms)})


def test_pth_power_matches_iterated_reference():
    rng = random.Random(11)

    def check(v):
        vp = v.pth_power()
        assert vp == pth_power_reference(v)
        for c in vp.comps:
            # built by MultiPoly._new: clean tuple keys, no zeros
            assert all(len(e) == v.chart.nvars and type(e) is tuple for e in c.terms)
            assert all(c.terms.values())
        return vp

    for F in (GF(2), GF(3), GF(5), GF(7), GF(3, 2), GF(5, 2), GF(11), GF(13)):
        # at p = 11 and 13 four variables give thousands of terms
        for nvars in (1, 2, 3, 4) if F.characteristic < 11 else (1, 2, 3):
            chart = affine_chart(F, nvars)
            # multilinear components in three or four variables keep the
            # reference fast
            deg = 2 if nvars <= 2 else 1
            for trial in range(3):
                comps = [random_poly(F, nvars, rng, deg) for _ in range(nvars)]
                if trial == 0:
                    # a field with zero components
                    comps[rng.randrange(nvars)] = MultiPoly.zero(F, nvars)
                    comps[0] = MultiPoly.zero(F, nvars)
                check(VectorField(chart, comps))
        # a zero field and a constant field: every iterate is a constant
        chart = affine_chart(F, 2)
        assert not check(VectorField(chart, [0, 0]))
        assert not check(VectorField(chart, [F.random_nonzero(rng), F.one()]))
    # GF(257^2) has no tables; affine linear components keep every iterate
    # of degree at most 1 through the 256 steps
    F = GF(257, 2)
    for nvars in (1, 2):
        chart = affine_chart(F, nvars)
        comps = [random_poly(F, nvars, rng, 1, 4) for _ in range(nvars)]
        comps = [MultiPoly(F, nvars, {e: a for e, a in c.terms.items() if sum(e) <= 1})
                 for c in comps]
        assert check(VectorField(chart, comps))
    # homogeneous cubic components on a cone: v^(p-1)(c_i) has degree
    # 3 + 2(p - 1), and an exponent of one variable reaches it, the largest
    # exponent the packing of pth_power leaves room for
    for F in (GF(3, 2), GF(5), GF(7)):
        p = F.characteristic
        chart = cone_chart(F, 2)
        v = VectorField(chart, [homogeneous_poly(F, 3, rng, 3, 4) for _ in range(3)])
        vp = check(v)
        assert max(max(e) for c in vp.comps for e in c.terms) == 3 + 2 * (p - 1)


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
            f = random_poly(GF(p), 2, rng)
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



def test_pullback_numerator_clears_the_denominator():
    # along x_i = (den * c_i) / den the numerator is den^(D + 2q) times the
    # pullback along the polynomial map x_i = c_i
    rng = random.Random(8)
    for F in (GF(5), GF(3, 2), QQ):
        a2 = affine_chart(F, 2)
        a3 = affine_chart(F, 3, ("u", "v", "w"))
        for _ in range(4):
            comps = [random_poly(F, 3, rng), random_poly(F, 3, rng)]
            den = random_poly(F, 3, rng, deg=1) + 1
            alpha = random_one_form(a2, rng)
            function = DiffForm(a2, 0, {(): random_poly(F, 2, rng)})
            for form in (function, alpha, alpha.d()):
                n = form.max_coeff_degree() + 2 * form.q
                lhs = pullback_form(form, [den * c for c in comps], a3, den)
                assert lhs == pullback_form(form, comps, a3) * den**n


# ---------------------------------------------------------------------------
# guards a caller can reach

A2 = affine_chart(GF(5), 2)
A3 = affine_chart(GF(5), 3)
DX, DY = A2.dx(0), A2.dx(1)

FORM_GUARDS = [
    (lambda: DX + A3.dx(0), ValueError, "forms on different charts"),
    (lambda: DX + DX.wedge(DY), ValueError, "cannot add forms of different degrees"),
    (lambda: DX * DY, TypeError, "use wedge() for products of forms"),
    (lambda: DX.contract(VectorField(A3, [1, 0, 0])), ValueError,
     "vector field on a different chart"),
    (lambda: DiffForm(A2, 0, {(): A2.var(0)}).contract(VectorField(A2, [1, 0])), ValueError,
     "cannot contract a 0-form"),
    (lambda: DX.wedge(DY).pair(VectorField(A2, [1, 0])), ValueError, "pairing needs a 1-form"),
    (lambda: A2.zero_form(1).content(), ValueError, "content of the zero form"),
    (lambda: VectorField(A2, [1]), ValueError, "wrong number of components"),
    (lambda: VectorField(A2, [1, 0]) + VectorField(A3, [1, 0, 0]), ValueError,
     "vector fields on different charts"),
    (lambda: VectorField(A2, [1, 0]).lie_bracket(VectorField(A3, [1, 0, 0])), ValueError,
     "vector fields on different charts"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [pytest.param(*guard, id=f"{i}-{guard[2]}") for i, guard in enumerate(FORM_GUARDS)],
)
def test_form_guards_refuse_with_their_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_zero_form_edge_cases():
    zero = A2.zero_form(1)
    assert zero.max_coeff_degree() == -1
    assert repr(zero) == "0"
    assert DX != A2.var(0) and DX != 0

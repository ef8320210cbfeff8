import random

import pytest

from pfol.exterior import DiffForm, affine_chart, cone_chart
from pfol.foliation import degeneracy_divisor, is_p_closed
from pfol.models import (
    BadReductionError,
    CSV_HEADER,
    IntegralModel,
    classify_integer_defect,
    integrability_defect_integer,
    kronecker_probe,
    prime_scan,
    reduce_model,
    reduction_field,
    scan_to_csv,
    scan_to_json,
)
from pfol.mpoly import MultiPoly
from pfol.rings import GF, NumberRing, ZZ, factor_mod_p, primes_upto
from scan_reference import reference_kronecker_probe, reference_reduce_model, reference_scan


def log_model():
    # a yz dx + xz dy + xy dz over Z[a]/(a^2+1)
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


def test_model_validation():
    F = GF(5)
    chart = affine_chart(F, 2)
    x, y = chart.vars()
    with pytest.raises(Exception):
        IntegralModel(DiffForm(chart, 1, {(0,): y}))  # field coefficients


def test_reduction_field_embedding_multiplicative():
    model = log_model()
    for p in (5, 13):
        for g, _ in factor_mod_p(model.minpoly, p):
            field, embed = reduction_field(model, p, g)
            a = model.ring.generator()
            assert embed(a) * embed(a) == field.coerce(-1)
            assert embed(a + 1) == embed(a) + field.one()
            assert embed(a * a) == embed(a) * embed(a)


def test_reduction_field_at_a_linear_factor():
    # at the factor a + 2 of a^2 + 1 modulo 5, a maps to -2 = 3 in F_5
    model = log_model()
    field, embed = reduction_field(model, 5, [2, 1])
    assert field.k == 1
    assert embed(model.ring.generator()) == field.coerce(3)


def test_reduce_model_and_scan():
    model = log_model()
    rows = prime_scan(model, 13)
    table = {(r.p, r.factor): r for r in rows}
    assert set(r.p for r in rows) == {2, 3, 5, 7, 11, 13}
    # split primes give two rows, inert primes one quadratic row
    assert table[(5, "t+2")].p_closed is True
    assert table[(5, "t+3")].p_closed is True
    assert table[(13, "t+5")].p_closed is True
    assert table[(13, "t+8")].p_closed is True
    assert table[(2, "t+1")].p_closed is True
    for p in (3, 7, 11):
        row = table[(p, "t^2+1")]
        assert row.p_closed is False
        assert row.k == 2
        assert row.deg_degeneracy == 3
        assert row.squarefree is True
        assert row.cartier_integrable is True


def test_reduce_model_matches_direct_construction():
    model = log_model()
    fol = reduce_model(model, 7, [1, 0, 1])
    assert not is_p_closed(fol)
    assert degeneracy_divisor(fol).degree() == 3


def test_bad_reduction_detected():
    R = NumberRing([1, 0, 1])
    chart = affine_chart(R, 3)
    x, y, z = chart.vars()
    form = DiffForm(chart, 1, {(0,): y.scale(R.coerce(3)), (1,): x.scale(R.coerce(6))})
    model = IntegralModel(form)
    with pytest.raises(BadReductionError):
        reduce_model(model, 3, [1, 0, 1])  # form vanishes mod 3
    form2 = DiffForm(chart, 1, {(0,): x * y, (1,): x * x + y.scale(R.coerce(3))})
    model2 = IntegralModel(form2)
    with pytest.raises(BadReductionError):
        reduce_model(model2, 3, [1, 0, 1])  # saturation lost mod 3


def test_scan_csv_format_and_determinism():
    model = log_model()
    rows = prime_scan(model, 13)
    csv1 = scan_to_csv(rows)
    csv2 = scan_to_csv(prime_scan(model, 13))
    assert csv1 == csv2
    lines = csv1.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(rows)
    js = scan_to_json(rows)
    assert '"p": 2' in js


def test_kronecker_probe():
    # a^2 - 2 has roots for about half the primes
    res = kronecker_probe([-2, 0, 1], 200)
    assert res["verdict"] == "irrational-like"
    assert 0.3 < res["density"] < 0.7
    # a^2 - 1 is reducible: a root modulo every prime
    res = kronecker_probe([-1, 0, 1], 200)
    assert res["verdict"] == "rational-like"
    assert res["density"] == 1.0


PROBE_MINPOLYS = [
    [2, -3, 0, 1],        # (a - 1)^2 (a + 2): a repeated root
    [1, 4, 5, 4, 4],      # (2a + 1)^2 (a^2 + 1): not monic, a repeated root
    [0, 0, 1, 1],         # a^2 (a + 1): the root 0
    [1, 0, 6],            # 6a^2 + 1: constant modulo 2 and 3
    [5, 3, 0, 10],        # 10a^3 + 3a + 5: degree 1 modulo 2 and 5
    [7, 0, 0, 0, 0, 1],   # a^5 + 7
]


def test_kronecker_probe_counts_the_roots_a_search_finds():
    # a prime is good when the minimal polynomial keeps a positive degree
    # modulo it, and has a root when some residue is one
    rng = random.Random(3)
    drawn = []
    for _ in range(20):
        f = [rng.randint(-20, 20) for _ in range(rng.randint(1, 5))]
        drawn.append(f + [rng.choice([-6, -1, 1, 2, 3, 15])])
    for f in PROBE_MINPOLYS + drawn:
        good = with_root = 0
        for p in primes_upto(60):
            if not any(c % p for c in f[1:]):
                continue
            good += 1
            with_root += any(
                sum(c * x**i for i, c in enumerate(f)) % p == 0 for x in range(p)
            )
        res = kronecker_probe(f, 60)
        assert (res["good_primes"], res["primes_with_root"]) == (good, with_root), f


def probe_outcome(probe, f, pmax):
    try:
        return probe(f, pmax)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("pmax", [2, 3, 60, 3000])
def test_kronecker_probe_matches_the_per_prime_route(pmax):
    rng = random.Random(11)
    drawn = [
        [rng.randint(-30, 30) for _ in range(rng.randint(1, 5))]
        + [rng.choice([-6, -1, 1, 2, 3, 15])]
        for _ in range(8)
    ]
    special = [
        [-3, 2],              # 2a - 3: degree 1
        [7, 1],               # a + 7: degree 1, monic
        [1, 1, 0, 6],         # 6a^3 + a + 1: leading coefficient 6
        [-2, 0, 5, 15],       # 15a^3 + 5a^2 - 2: leading coefficient 15
        # a^2 - 10^40: the ladder's coefficients grow by 133 bits every
        # second step, past the product of the primes within 70 steps
        [-10**40, 0, 1],
    ]
    for f in PROBE_MINPOLYS + drawn + special:
        expected = probe_outcome(reference_kronecker_probe, f, pmax)
        assert probe_outcome(kronecker_probe, f, pmax) == expected, f
    # 6a^2 + 1 is constant modulo 2 and 3
    assert probe_outcome(kronecker_probe, [1, 0, 6], 3) == "no good prime up to pmax"


def test_kronecker_probe_needs_a_good_prime():
    for pmax in (1, 0, -5):
        with pytest.raises(ValueError, match="no good prime"):
            kronecker_probe([1, 0, 1], pmax)
    with pytest.raises(ValueError, match="nonconstant"):
        kronecker_probe([3, 0, 0], 50)


def frobenius_power_form(p: int) -> DiffForm:
    """x^(p-1) dx + z^p y^(p-1) dy over Z in three variables."""
    chart = affine_chart(ZZ, 3)
    x, y, z = chart.vars()
    return DiffForm(chart, 1, {(0,): x ** (p - 1), (1,): z**p * y ** (p - 1)})


def test_power_form_defect():
    for p in (3, 5):
        form = frobenius_power_form(p)
        defect = integrability_defect_integer(form)
        coeff = defect.coeff((0, 1, 2))
        x, y, z = form.chart.vars()
        expected = (x * y * z) ** (p - 1)
        assert coeff == expected.scale(-p) or coeff == expected.scale(p)
        cls = classify_integer_defect(defect, p)
        assert not cls["zero"]
        assert cls["monomial"]
        assert cls["content"] == p
        assert cls["p_content"] == 1


def test_scan_validates_every_reduction():
    # the power form is not integrable over Z, its defect being
    # -p (x y z)^(p-1): only its reduction modulo p is a foliation
    rows = prime_scan(IntegralModel(frobenius_power_form(3)), 7)
    notes = {r.p: r.note for r in rows}
    assert notes[3] == ""
    for q in (2, 5, 7):
        assert notes[q] == f"validation lost modulo {q}: form is not integrable"


@pytest.mark.parametrize("p", [1, -1, 0, 4])
def test_classify_integer_defect_refuses_a_p_that_is_not_prime(p):
    zero = DiffForm(affine_chart(ZZ, 3), 3, {})
    for defect in (integrability_defect_integer(frobenius_power_form(3)), zero):
        with pytest.raises(ValueError, match=f"p must be a prime, got {p}"):
            classify_integer_defect(defect, p)


def test_integer_defect_of_integrable_form_is_zero():
    chart = affine_chart(ZZ, 3)
    x, y, z = chart.vars()
    # dlog-type cleared form: yz dx + xz dy + xy dz is integrable over Z
    form = DiffForm(chart, 1, {(0,): y * z, (1,): x * z, (2,): x * y})
    assert integrability_defect_integer(form).is_zero
    assert classify_integer_defect(integrability_defect_integer(form), 3)["zero"]


# ---------------------------------------------------------------------------
# the shared derivation pass of a scan against the per-prime route


def plane_z_model():
    # (1 - xy) dx + x^2 dy: p-closed at some primes, not at others
    chart = affine_chart(ZZ, 2)
    x, y = chart.vars()
    return IntegralModel(DiffForm(chart, 1, {(0,): 1 - x * y, (1,): x * x}))


def log_z_model():
    # yz dx + 5xz dy + xy dz: saturation is lost modulo 5
    chart = affine_chart(ZZ, 3)
    x, y, z = chart.vars()
    return IntegralModel(DiffForm(chart, 1, {
        (0,): y * z, (1,): (x * z).scale(5), (2,): x * y,
    }))


def projective_z_model():
    # i_R i_X (dx0 dx1 dx2) for a linear field X: degree one on P^2
    cone = cone_chart(ZZ, 2)
    x0, x1, x2 = cone.vars()
    X = [x1 + x2.scale(2), x0.scale(3) - x2, x0 + x1 - x2]
    return IntegralModel(DiffForm(cone, 1, {
        (0,): x1 * X[2] - x2 * X[1],
        (1,): x2 * X[0] - x0 * X[2],
        (2,): x0 * X[1] - x1 * X[0],
    }))


def cubic_ring_model():
    # a yz dx + xz dy + 2xy dz over Z[a]/(a^3+a+1): a^3+a+1 is irreducible
    # mod 2, 5 and 7, and a line times a conic mod 3
    R = NumberRing([1, 1, 0, 1])
    chart = affine_chart(R, 3)
    x, y, z = chart.vars()
    return IntegralModel(DiffForm(chart, 1, {
        (0,): (y * z).scale(R.generator()),
        (1,): x * z,
        (2,): (x * y).scale(R.coerce(2)),
    }))


def vanishing_field_model():
    # the pullback of A du + B dv along u = y2 + 5 y0, v = y3 + 5 y1: modulo
    # 5 the dy0 and dy1 coefficients vanish, and with them the Koszul field
    # a_1 d_0 - a_0 d_1, while the reduction stays a foliation
    chart = affine_chart(ZZ, 4)
    y0, y1, y2, y3 = chart.vars()
    u, v = y2 + y0.scale(5), y3 + y1.scale(5)
    A, B = 1 + u + (v * v).scale(2), u * u - v.scale(3) + 1
    return IntegralModel(DiffForm(chart, 1, {
        (0,): A.scale(5), (1,): B.scale(5), (2,): A, (3,): B,
    }))


def dense_plane_model():
    # dense coefficients of degree two over Z
    chart = affine_chart(ZZ, 2)
    x, y = chart.vars()
    a = 1 + x.scale(2) - y + (x * x).scale(3) + x * y - (y * y).scale(2)
    b = -1 + x + y.scale(3) + x * x - (x * y).scale(4) + y * y
    return IntegralModel(DiffForm(chart, 1, {(0,): a, (1,): b}))


def scan_with_values(model, pmax, monkeypatch, stop_at_values=False):
    """``prime_scan``'s rows, and the p-curvature values (zeros included)
    of each row whose reduction succeeded.  With ``stop_at_values`` every
    such row is cut short as p-closed once its values are read."""
    seen = []

    def record(fol):
        seen.append(list(fol.pcurvature.values))
        return True if stop_at_values else is_p_closed(fol)

    with monkeypatch.context() as m:
        m.setattr("pfol.models.is_p_closed", record)
        rows = prime_scan(model, pmax)
    return rows, seen


@pytest.mark.parametrize("make_model, pmax", [
    (plane_z_model, 23),
    (log_z_model, 13),
    (projective_z_model, 13),
    (log_model, 13),
    (cubic_ring_model, 7),
    (lambda: IntegralModel(frobenius_power_form(3)), 7),
    (vanishing_field_model, 5),
], ids=["plane_z", "log_z", "projective_z", "nr_a2_plus_1", "nr_a3_a_1",
        "not_integrable_over_z", "vanishing_koszul_field"])
def test_prime_scan_matches_the_per_prime_route(make_model, pmax, monkeypatch):
    model = make_model()
    rows, seen = scan_with_values(model, pmax, monkeypatch)
    ref_rows, ref_values = reference_scan(model, pmax)
    assert rows == ref_rows
    assert [[v for v in vals if v] for vals in seen] == ref_values


def test_the_scans_cover_every_kind_of_row(monkeypatch):
    # the models above reach bad primes, p-closed and p-dense rows, linear
    # and higher-degree factors, and a Koszul field that vanishes
    rows = prime_scan(log_z_model(), 13)
    assert any(r.note.startswith("saturation lost") for r in rows)
    rows = prime_scan(cubic_ring_model(), 7)
    assert {r.k for r in rows} == {1, 2, 3}
    assert {r.p_closed for r in rows} >= {True, False}
    model = vanishing_field_model()
    rows, seen = scan_with_values(model, 5, monkeypatch)
    assert [r.p for r in rows] == [2, 3, 5]
    assert rows[-1].p_closed is False
    # the scan reads six Koszul fields at every prime, the reduction mod 5
    # has only five
    assert [len(vals) for vals in seen] == [6, 6, 6]
    assert len(reduce_model(model, 5).pcurvature.values) == 5


def test_dense_plane_model_pcurvature_matches_the_per_prime_route(monkeypatch):
    # p-curvature alone: the degeneracy and Cartier stages of a dense model
    # grow too fast with p for a test
    model = dense_plane_model()
    rows, seen = scan_with_values(model, 40, monkeypatch, stop_at_values=True)
    primes = primes_upto(40)
    assert [r.p for r in rows] == primes and not any(r.note for r in rows)
    for p, vals in zip(primes, seen):
        expected = reduce_model(model, p).pcurvature.values
        assert [v for v in vals if v] == [v for v in expected if v]


# ---------------------------------------------------------------------------
# validation from the model's identities against from_form on each reduction


def radial_mod_5_model():
    # the projective model plus 5 x1^2 dx0: i_R(omega) = 5 x0 x1^2, which
    # vanishes modulo 5 only
    model = projective_z_model()
    x1 = model.form.chart.vars()[1]
    extra = DiffForm(model.form.chart, 1, {(0,): (x1 * x1).scale(5)})
    return IntegralModel(model.form + extra)


def homogeneous_mod_5_model():
    # the projective model plus 5 x0 dx0: of degrees 1 and 2 over Z, and
    # homogeneous modulo 5 only
    model = projective_z_model()
    x0 = model.form.chart.vars()[0]
    return IntegralModel(model.form + DiffForm(model.form.chart, 1, {(0,): x0.scale(5)}))


def ring_power_model():
    # a x^2 dx + z^3 y^2 dy over Z[a]/(a^2+1): omega /\ d(omega) is
    # -3a (xyz)^2 dx dy dz, so only the reductions over 3 are integrable
    R = NumberRing([1, 0, 1])
    chart = affine_chart(R, 3)
    x, y, z = chart.vars()
    return IntegralModel(DiffForm(chart, 1, {
        (0,): (x * x).scale(R.generator()), (1,): z**3 * y * y,
    }))


def reduction_outcome(reduce, model, p, g):
    try:
        fol = reduce(model, p, g)
    except BadReductionError as exc:
        return str(exc)
    return fol.form, fol.degree


@pytest.mark.parametrize("make_model, pmax, expected", [
    (lambda: IntegralModel(frobenius_power_form(3)), 13,
     {3: None, 5: "validation lost modulo 5: form is not integrable"}),
    (radial_mod_5_model, 13,
     {5: None, 7: "validation lost modulo 7: form is not annihilated by the radial field"}),
    (homogeneous_mod_5_model, 13,
     {5: None, 7: "validation lost modulo 7: coefficients must be homogeneous of equal degree"}),
    (ring_power_model, 13,
     {3: None, 5: "validation lost modulo 5: form is not integrable"}),
    (projective_z_model, 13, {}),
    (log_model, 13, {}),
    (cubic_ring_model, 7, {}),
], ids=["not_integrable_over_z", "radial_mod_5", "homogeneous_mod_5",
        "nr_not_integrable", "projective_z", "nr_a2_plus_1", "nr_a3_a_1"])
def test_reduce_model_matches_from_form_on_the_reduced_form(make_model, pmax, expected):
    model = make_model()
    for p in primes_upto(pmax):
        factors = [None]
        if model.minpoly is not None:
            factors = [g for g, _ in factor_mod_p(model.minpoly, p)]
        for g in factors:
            got = reduction_outcome(reduce_model, model, p, g)
            assert got == reduction_outcome(reference_reduce_model, model, p, g), (p, g)
            if p in expected:
                message = got if isinstance(got, str) else None
                assert message == expected[p], (p, g)

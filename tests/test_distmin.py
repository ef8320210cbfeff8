import random
from collections import Counter
from fractions import Fraction

import pytest

import pfol.distmin
from gcd_reference import count_prem_calls, gcd_list_reference
from distmin_reference import (
    constraint_rows_reference,
    distmin2_reference,
    koszul_rows_reference,
    rref_reference,
)
from pfol.distmin import (
    _koszul_rows,
    _span_combinations,
    distmin2,
    is_rank_two,
    nullspace,
    rref,
    subdistribution_space,
    witness_integrability,
)
from pfol.exterior import DiffForm, VectorField, affine_chart, cone_chart, euler_field
from pfol.foliation import from_form, log_foliation
from pfol.mpoly import CONTENT_PRIME, MultiPoly, gcd_list
from pfol.parsing import parse_document
from pfol.rings import GF, QQ


def test_rref_and_rank():
    one = Fraction(1)
    rows = [
        {0: Fraction(2), 1: Fraction(4)},
        {0: Fraction(1), 1: Fraction(2)},
        {1: Fraction(1), 2: Fraction(3)},
    ]
    assert len(rref(rows)) == 2
    pivots = rref(rows)
    assert set(pivots) == {0, 1}


def test_nullspace_kernel_vectors():
    one = Fraction(1)
    rows = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}]
    basis = nullspace(rows, 3, one)
    assert len(basis) == 2
    for vec in basis:
        total = sum(vec.get(i, Fraction(0)) for i in range(3))
        assert total == 0


def test_rank_over_prime_field():
    F = GF(7)
    rows = [
        {0: F.coerce(1), 1: F.coerce(2)},
        {0: F.coerce(2), 1: F.coerce(4)},
        {0: F.coerce(1), 1: F.coerce(3)},
    ]
    assert len(rref(rows)) == 2


def quadric_pencil(ring):
    cone = cone_chart(ring, 3)
    x0, x1, x2, x3 = cone.vars()
    f1 = x0**2 + x1**2 + x2**2 + x3**2
    f2 = x0**2 + x1**2 + x1**2 + x2**2 + x2**2 + x2**2 + x3**2 * 5
    return log_foliation([f1, f2], [ring.coerce(1), ring.coerce(-1)],
                         projective=True)


def three_component(ring):
    cone = cone_chart(ring, 3)
    x0, x1, x2, x3 = cone.vars()
    f3 = x2**2 + x3**2 + x0 * x1 + x0 * x2
    return log_foliation(
        [x0, x1, f3],
        [ring.coerce(1), ring.coerce(1), ring.coerce(-1)],
        projective=True,
    )


def linear_pullback(ring):
    cone = cone_chart(ring, 3)
    x0, x1, x2, x3 = cone.vars()
    h1 = x0 + x1 + x2
    h2 = x0**2 + x1**2 + x1**2 + x2**2 + x2**2 + x2**2 + x0 * x2
    return log_foliation([h1, h2], [ring.coerce(2), ring.coerce(-1)],
                         projective=True)


@pytest.mark.parametrize("ring", [GF(101), QQ], ids=["F101", "Q"])
def test_distmin_quadric_pencil(ring):
    fol = quadric_pencil(ring)
    res = distmin2(fol)
    assert res.delta == 2 == fol.degree
    assert res.integrable is True
    assert res.dimensions == [0, 0, 4]


@pytest.mark.parametrize("ring", [GF(101), QQ], ids=["F101", "Q"])
def test_distmin_three_component(ring):
    fol = three_component(ring)
    res = distmin2(fol)
    assert res.delta == 1 == fol.degree - 1
    assert res.integrable is True


@pytest.mark.parametrize("ring", [GF(101), QQ], ids=["F101", "Q"])
def test_distmin_linear_pullback(ring):
    fol = linear_pullback(ring)
    res = distmin2(fol)
    assert res.delta == 0
    assert res.integrable is True


def test_witness_satisfies_constraints():
    fol = quadric_pencil(GF(101))
    res = distmin2(fol)
    theta = res.witness
    assert theta.contract(euler_field(fol.chart)).is_zero
    assert theta.wedge(fol.form).is_zero
    assert theta.content().is_constant
    assert witness_integrability(theta)


def test_solution_dimensions_monotone():
    fol = quadric_pencil(GF(101))
    dims = [subdistribution_space(fol, d).dimension for d in range(3)]
    assert dims == sorted(dims)


def test_seed_determinism():
    fol = three_component(GF(101))
    r1 = distmin2(fol, seed=5)
    r2 = distmin2(fol, seed=5)
    assert r1.delta == r2.delta
    assert r1.witness == r2.witness


# ---------------------------------------------------------------------------
# reference routes for the exact witness tests


def coefficient_rows(theta):
    """The coefficient matrix of theta, as rows j -> {i: theta_ij}; its
    kernel over the rational function field is the kernel of theta."""
    n1 = theta.chart.nvars
    rows = []
    for j in range(n1):
        row = {}
        for i in range(n1):
            c = theta.coeff((i, j))
            if c:
                row[i] = c
        rows.append(row)
    return rows


def _combine(a, row, b, other):
    """a * row - b * other, divided by the gcd of its entries."""
    out = {c: v * a for c, v in row.items()}
    for c, v in other.items():
        s = out[c] - v * b if c in out else -(v * b)
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    if out:
        g = gcd_list(out.values())
        out = {c: v.exact_div(g) for c, v in out.items()}
    return out


def fraction_free_rref(rows):
    """{pivot column: row} for a matrix of polynomials, by elimination over
    the rational function field that multiplies rows instead of dividing:
    every pivot row vanishes in the other pivot columns, and there are as
    many pivots as the rank."""
    pivots = {}
    for row in rows:
        row = dict(row)
        for col, prow in pivots.items():
            if col in row:
                row = _combine(prow[col], row, row[col], prow)
        if not row:
            continue
        lead = min(row)
        for col, prow in pivots.items():
            if lead in prow:
                pivots[col] = _combine(row[lead], prow, prow[lead], row)
        pivots[lead] = row
    return pivots


def rank_reference(theta):
    """The rank of theta over the rational function field."""
    return len(fraction_free_rref(coefficient_rows(theta)))


def bracket_closure_reference(theta):
    """Integrability of the kernel of theta: a basis of the kernel over the
    rational function field, scaled to polynomial fields, and the bracket
    of any two of them must again be annihilated by theta."""
    chart = theta.chart
    n1 = chart.nvars
    pivots = fraction_free_rref(coefficient_rows(theta))
    pivot_product = MultiPoly.one(chart.ring, n1)
    for col, prow in pivots.items():
        pivot_product = pivot_product * prow[col]
    fields = []
    for free in range(n1):
        if free in pivots:
            continue
        comps = [0] * n1
        comps[free] = pivot_product
        for col, prow in pivots.items():
            if free in prow:
                comps[col] = -(prow[free] * pivot_product.exact_div(prow[col]))
        fields.append(VectorField(chart, comps))
    for v in fields:
        assert not theta.contract(v)
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            if theta.contract(fields[a].lie_bracket(fields[b])):
                return False
    return True


REFERENCE_CASES = [
    pytest.param(make, ring, id=f"{make.__name__}-{label}")
    for make in (quadric_pencil, three_component, linear_pullback)
    for ring, label in ((GF(101), "F101"), (QQ, "Q"), (GF(3), "F3"))
] + [pytest.param(three_component, GF(2), id="three_component-F2")]


@pytest.mark.parametrize("make,ring", REFERENCE_CASES)
def test_exact_witness_tests_match_reference_routes(make, ring):
    fol = make(ring)
    rank_two_forms = 0
    for delta in range(fol.degree + 1):
        for theta in subdistribution_space(fol, delta).basis:
            rank_two = rank_reference(theta) == 2
            assert is_rank_two(theta) == rank_two
            if rank_two:
                rank_two_forms += 1
                assert witness_integrability(theta) == bracket_closure_reference(theta)
    assert rank_two_forms


def a4_chart(ring):
    return affine_chart(ring, 4, ("x", "y", "z", "w"))


@pytest.mark.parametrize("ring", [GF(2), GF(3), QQ], ids=["F2", "F3", "Q"])
def test_decomposable_non_integrable_form(ring):
    chart = a4_chart(ring)
    y = chart.var(1)
    # alpha = dw, beta = dz - y dx: alpha /\ beta /\ dbeta = dw/\dz/\dx/\dy != 0
    theta = chart.dx(3).wedge(chart.dx(2) - chart.dx(0) * y)
    assert is_rank_two(theta)
    assert rank_reference(theta) == 2
    assert witness_integrability(theta) is False
    assert bracket_closure_reference(theta) is False


@pytest.mark.parametrize("ring", [GF(2), GF(3), QQ], ids=["F2", "F3", "Q"])
def test_rank_four_and_zero_forms_are_not_rank_two(ring):
    chart = a4_chart(ring)
    # theta /\ theta = 2 dx/\dy/\dz/\dw vanishes over GF(2); the Pfaffian does not
    theta = chart.dx(0).wedge(chart.dx(1)) + chart.dx(2).wedge(chart.dx(3))
    assert not is_rank_two(theta)
    assert rank_reference(theta) == 4
    assert not is_rank_two(chart.zero_form(2))


# ---------------------------------------------------------------------------
# the Koszul parametrization, the one-pass elimination and the lazy span
# combinations against the routes they replaced (tests/distmin_reference.py)

FIXTURE_FIELDS = [
    (GF(2), "F2"), (GF(3), "F3"), (GF(5), "F5"), (GF(3, 2), "F9"),
    (GF(101), "F101"), (QQ, "Q"),
]

# the pencil's first quadric is a square over GF(2), and the pullback's
# weight 2 vanishes there: only three_component is a foliation over GF(2)
ROW_CASES = [
    pytest.param(make, ring, id=f"{make.__name__}-{label}")
    for make in (quadric_pencil, three_component, linear_pullback)
    for ring, label in FIXTURE_FIELDS
    if label != "F2" or make is three_component
]


def row_multiset(rows):
    return Counter(frozenset(row.items()) for row in rows)


def basis_vectors(system):
    """The basis forms of a solution space as sparse vectors over its unknowns."""
    col = {unknown: n for n, unknown in enumerate(system.unknowns)}
    return [
        {col[pair, m]: v for pair, c in theta.terms.items() for m, v in c.terms.items()}
        for theta in system.basis
    ]


def assert_koszul_basis_matches_reference(fol, deltas):
    """The rows of the Psi system are those built one form per unknown, the
    basis is the reduced echelon kernel basis of the reference rows of the
    full system, and every basis form meets both constraints."""
    radial = euler_field(fol.chart)
    for delta in deltas:
        psi_unknowns, psi_rows = _koszul_rows(fol, delta)
        expected_unknowns, expected_rows = koszul_rows_reference(fol, delta)
        assert psi_unknowns == expected_unknowns
        assert row_multiset(psi_rows) == row_multiset(expected_rows.values())
        unknowns, rows = constraint_rows_reference(fol, delta)
        system = subdistribution_space(fol, delta)
        assert system.unknowns == unknowns
        assert basis_vectors(system) == nullspace(rows, len(unknowns), fol.ring.one())
        assert system.dimension == len(system.basis)
        for theta in system.basis:
            assert theta.contract(radial).is_zero
            assert theta.wedge(fol.form).is_zero


@pytest.mark.parametrize("make,ring", ROW_CASES)
def test_closed_form_rows_and_one_pass_rref_match_reference(make, ring, monkeypatch):
    fol = make(ring)
    assert_koszul_basis_matches_reference(fol, range(4))
    for delta in range(3):
        unknowns, rows = constraint_rows_reference(fol, delta)
        assert rref(rows) == rref_reference(rows)
        basis = nullspace(rows, len(unknowns), ring.one())
        with monkeypatch.context() as patch:
            patch.setattr(pfol.distmin, "rref", rref_reference)
            assert nullspace(rows, len(unknowns), ring.one()) == basis


OTHER_DIMENSIONS = [
    # P^2: Psi /\ omega is a 4-form in three variables, so there are no rows
    pytest.param("Fp:5", "x y z", "y*z*dx - 2*x*z*dy + x*y*dz", 3, id="P2-F5"),
    # P^4: the rows are those of i_R(Psi /\ omega), whose entries may cancel
    pytest.param("Fp:3", "x0 x1 x2 x3 x4", "x1*dx0 - x0*dx1", 3, id="P4-F3"),
    pytest.param("Q", "x0 x1 x2 x3 x4", "x1*dx0 - x0*dx1", 2, id="P4-Q"),
    pytest.param(
        "Fq:3^2:t^2+1", "x0 x1 x2 x3 x4",
        "x1*(x2 + x3 + x4)*dx0 + x0*(x2 + x3 + x4)*dx1 - 2*x0*x1*(dx2 + dx3 + dx4)",
        2, id="P4-log-F9",
    ),
    pytest.param(
        "Q", "x0 x1 x2 x3 x4",
        "x1*(x2 + x3 + x4)*dx0 + x0*(x2 + x3 + x4)*dx1 - 2*x0*x1*(dx2 + dx3 + dx4)",
        1, id="P4-log-Q",
    ),
]


@pytest.mark.parametrize("field,names,form,delta_max", OTHER_DIMENSIONS)
def test_koszul_basis_matches_reference_on_p2_and_p4(field, names, form, delta_max):
    n = len(names.split()) - 1
    doc = parse_document(
        f"field {field}\nambient proj {n}\nvars {names}\nform omega = {form}\n"
    )
    fol = from_form(doc.the_form())
    assert_koszul_basis_matches_reference(fol, range(delta_max + 1))


def test_one_pass_rref_on_rows_that_need_several_pivots():
    F = GF(7)
    rows = [
        {0: F.coerce(1), 1: F.coerce(2), 4: F.coerce(1)},
        {1: F.coerce(1), 2: F.coerce(3)},
        {2: F.coerce(1), 3: F.coerce(5)},
        {0: F.coerce(3), 1: F.coerce(1), 2: F.coerce(2), 3: F.coerce(6)},
        {0: F.coerce(1), 3: F.coerce(4), 4: F.coerce(2)},
    ]
    assert rref(rows) == rref_reference(rows)
    for pc, prow in rref(rows).items():
        assert prow[pc] == F.one()


SPAN_FIELDS = [(GF(3), "F3"), (GF(5), "F5"), (GF(7), "F7"), (GF(101), "F101"), (QQ, "Q")]


def reject_basis_forms(monkeypatch, reject_all=False):
    """Make ``is_rank_two`` reject every basis form of a solution space
    (every candidate, with reject_all), so that the search goes on to the
    span combinations; returns the list of combinations it was asked about."""
    real_space = pfol.distmin.subdistribution_space
    real_rank_two = pfol.distmin.is_rank_two
    basis_forms = set()
    combos_checked = []

    def recording_space(fol, delta):
        system = real_space(fol, delta)
        basis_forms.update(system.basis)
        return system

    def rejecting_rank_two(theta):
        if theta in basis_forms:
            return False
        combos_checked.append(theta)
        return not reject_all and real_rank_two(theta)

    monkeypatch.setattr(pfol.distmin, "subdistribution_space", recording_space)
    monkeypatch.setattr(pfol.distmin, "is_rank_two", rejecting_rank_two)
    return combos_checked


@pytest.mark.parametrize(
    "make,ring",
    [
        pytest.param(make, ring, id=f"{make.__name__}-{label}")
        for make in (quadric_pencil, three_component, linear_pullback)
        for ring, label in SPAN_FIELDS
    ],
)
def test_lazy_span_combinations_match_eager_reference(make, ring, monkeypatch):
    # no fixture reaches the span unaided: its first basis form is accepted
    fol = make(ring)
    assert distmin2(fol).candidates_checked == 1
    combos_checked = reject_basis_forms(monkeypatch)
    delta_max = fol.degree + 1
    for seed in (0, 1, 5):
        lazy = distmin2(fol, delta_max=delta_max, seed=seed)
        lazy_combos = combos_checked[:]
        combos_checked.clear()
        assert lazy == distmin2_reference(fol, delta_max=delta_max, seed=seed)
        assert lazy.candidates_checked > 1
        assert lazy_combos and lazy_combos == combos_checked
        combos_checked.clear()


@pytest.mark.parametrize("ring", [GF(5), QQ], ids=["F5", "Q"])
def test_lazy_span_draws_carry_over_rejected_deltas(ring, monkeypatch):
    # solution dimensions [1, 5, 14]: with every candidate rejected, the
    # draws for delta 2 continue the generator where those of delta 1 ended
    fol = linear_pullback(ring)
    combos_checked = reject_basis_forms(monkeypatch, reject_all=True)
    for seed in (0, 1, 5):
        lazy = distmin2(fol, delta_max=2, seed=seed)
        lazy_combos = combos_checked[:]
        combos_checked.clear()
        assert lazy == distmin2_reference(fol, delta_max=2, seed=seed)
        assert lazy.delta is None and lazy.dimensions == [1, 5, 14]
        assert len(lazy_combos) > 10
        assert lazy_combos == combos_checked
        combos_checked.clear()


# ---------------------------------------------------------------------------
# the unit-content test over Q, whose gcds try one image mod a prime first


def reference_unit_content(theta) -> bool:
    """Whether the content of theta, a left fold of the reference PRS over
    its coefficients, is constant."""
    return gcd_list_reference(list(theta.terms.values())).is_constant


def content_cases(fol, rng):
    """Basis forms of the fixture's solution spaces up to its degree, random
    span combinations of them, and both times a linear form."""
    x0, x1 = fol.chart.var(0), fol.chart.var(1)
    for delta in range(fol.degree + 1):
        basis = subdistribution_space(fol, delta).basis
        for theta in [*basis, *_span_combinations(basis, fol.chart, rng)]:
            if theta:
                yield theta
                yield theta * (x0 + x1 * 3)


@pytest.mark.parametrize("make", [quadric_pencil, three_component, linear_pullback])
def test_unit_content_agrees_with_the_content_over_q(make):
    fol = make(QQ)
    seen = {True: 0, False: 0}
    for seed in (0, 1):
        for theta in content_cases(fol, random.Random(seed)):
            unit = reference_unit_content(theta)
            assert theta.content().is_constant == unit
            seen[unit] += 1
    assert seen[True] and seen[False]


def test_unit_content_falls_back_when_the_prime_does_not_qualify():
    chart = cone_chart(QQ, 3)
    x0, x1, x2, x3 = chart.vars()
    p = CONTENT_PRIME
    cases = [
        # coprime over Q, both x0 mod p: the image shares a factor
        ({(0, 1): x0 + x1 * p, (2, 3): x0}, True),
        # p divides a denominator
        ({(0, 1): x0 * Fraction(1, p) + x1, (2, 3): x2}, True),
        # p divides every leading numerator: the content p*x0 + 1 has the
        # constant image 1, so the images alone would read a unit content
        ({(0, 1): x2 * (x0 * p + 1), (2, 3): x3 * (x0 * p + 1)}, False),
        ({(0, 1): x0 * p + x1, (2, 3): x2 * p + x3}, True),
        ({(0, 1): x0 * (x0 + x1 * p), (2, 3): x2 * (x0 + x1 * p)}, False),
        # as in the third case, with rests that do not divide each other
        ({(0, 1): (x0 * p + 1) * (x1 + 1), (2, 3): (x0 * p + 1) * (x2 + 2)}, False),
    ]
    for terms, unit in cases:
        theta = DiffForm(chart, 2, terms)
        assert reference_unit_content(theta) == unit
        assert theta.content().is_constant == unit


def test_pencil_combination_content_over_q_takes_no_pseudo_remainder(monkeypatch):
    # the first span combination of quadric_pencil(QQ) at delta 3: by a
    # PRS over Q, gcds of pairs of its coefficients took from 0.17 s to
    # over 15 s each
    fol = quadric_pencil(QQ)
    basis = subdistribution_space(fol, 3).basis
    theta = next(_span_combinations(basis, fol.chart, random.Random(0)))
    prem_calls = count_prem_calls(monkeypatch)
    assert theta.content() == 1
    assert all(a.ring != QQ for a, _, _ in prem_calls)


def test_span_walk_over_q_rejects_every_basis_form_up_to_delta_three(monkeypatch):
    # the unit-content test of 10 combinations of 14 forms at delta 3: about
    # 3 s each when every content is a gcd over Q
    fol = quadric_pencil(QQ)
    combos_checked = reject_basis_forms(monkeypatch, reject_all=True)
    res = distmin2(fol, delta_max=3)
    assert res.delta is None and res.dimensions == [0, 0, 4, 14]
    assert res.candidates_checked == 4 + 10 + 14 + 10
    assert len(combos_checked) == 20

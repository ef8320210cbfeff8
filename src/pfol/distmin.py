"""Minimal-degree codimension-two subdistributions of projective foliations.

A candidate subdistribution of degree delta is encoded by a projective
2-form Theta with polynomial coefficients of degree delta+1 subject to the
exact linear constraints i_R Theta = 0 (radial contraction) and
Theta /\\ omega = 0 (tangency to the foliation).  The search sweeps delta
upward and accepts the first solution with unit content and rank 2, tested
exactly by the vanishing of its 4x4 Pfaffians.  The integrability of the
witness's kernel is the polynomial identity (i_{d/dx_k} Theta) /\\ dTheta = 0
for every k, which characterises integrability for decomposable 2-forms.

The constraint rows are written in closed form from the coefficients of
omega, with no form built per unknown (:func:`_constraint_rows`).
:func:`rref` keeps its pivot rows fully reduced, so each new row is
reduced in one pass over its pivot columns.  Random combinations of a
solution basis are drawn only after every basis form has been rejected.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from operator import add

from . import InternalError
from .exterior import DiffForm, VectorField, _sort_sign
from .foliation import Foliation
from .mpoly import MultiPoly
from .rings import GF


# ---------------------------------------------------------------------------
# sparse exact linear algebra (rows are dicts column -> nonzero value)


def rref(rows: list[dict]) -> dict[int, dict]:
    """Reduced row echelon form; returns {pivot column: reduced row}.

    The stored pivot rows stay fully reduced: each vanishes in every other
    pivot column.  Clearing one pivot column of a new row therefore leaves
    its entries in the other pivot columns alone, and one pass over the
    pivot columns the row starts with reduces it completely.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        for col in [c for c in row if c in pivots]:
            factor = row[col]
            for c, v in pivots[col].items():
                nv = row.get(c)
                nv = -factor * v if nv is None else nv - factor * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        if not row:
            continue
        lead = min(row)
        inv_val = row[lead]
        row = {c: v / inv_val for c, v in row.items()}
        # eliminate the new pivot from stored rows
        for prow in pivots.values():
            if lead in prow:
                factor = prow[lead]
                for c, v in row.items():
                    nv = prow.get(c)
                    nv = -factor * v if nv is None else nv - factor * v
                    if nv:
                        prow[c] = nv
                    else:
                        prow.pop(c, None)
        pivots[lead] = row
    return pivots


def nullspace(rows: list[dict], ncols: int, one) -> list[dict]:
    """A basis of the kernel of the matrix, as sparse vectors."""
    pivots = rref(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        vec = {f: one}
        for pc, prow in pivots.items():
            v = prow.get(f)
            if v:
                vec[pc] = -v
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# constraint assembly


def _monomials(nvars: int, d: int):
    for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 2 - prev)
        yield tuple(exps)


@dataclass
class SubdistributionSystem:
    delta: int
    unknowns: list  # (index pair, exponent tuple)
    dimension: int
    basis: list  # solution 2-forms


def _constraint_rows(fol: Foliation, delta: int) -> tuple[list, list[dict]]:
    """The unknowns of degree delta and the rows of their linear system.

    The unknowns are the coefficients of x^m dx_i/\\dx_j (i < j, |m| =
    delta+1), and the rows are written from the coefficients of omega
    without building a form per unknown:

    - i_R(x^m dx_i/\\dx_j) = x^m x_i dx_j - x^m x_j dx_i gives +1 in row
      ("r", (j,), m+e_i) and -1 in row ("r", (i,), m+e_j);
    - for each term v x^e of a_k, k not in {i, j}, x^m dx_i/\\dx_j /\\ a_k dx_k
      gives +-v in row ("w", sorted (i, j, k), m+e), signed by the sort.

    The rows come sorted by the repr of these keys.
    """
    n1 = fol.chart.nvars
    one = fol.ring.one()
    minus_one = -one
    pairs = list(itertools.combinations(range(n1), 2))
    monos = list(_monomials(n1, delta + 1))
    unknowns = [(pair, m) for pair in pairs for m in monos]
    omega = [(k, list(c.terms.items())) for (k,), c in fol.form.terms.items()]
    constraints: defaultdict = defaultdict(dict)
    # every (row, unknown) entry is written once: no two terms meet
    col = 0
    for i, j in pairs:
        wedge_terms = []
        for k, terms in omega:
            if k != i and k != j:
                idx, sign = _sort_sign((i, j, k))
                wedge_terms.append(
                    (idx, terms if sign > 0 else [(e, -v) for e, v in terms])
                )
        for m in monos:
            constraints["r", (j,), m[:i] + (m[i] + 1,) + m[i + 1:]][col] = one
            constraints["r", (i,), m[:j] + (m[j] + 1,) + m[j + 1:]][col] = minus_one
            for idx, terms in wedge_terms:
                for e, v in terms:
                    constraints["w", idx, tuple(map(add, m, e))][col] = v
            col += 1
    return unknowns, [constraints[k] for k in sorted(constraints, key=repr)]


def subdistribution_space(fol: Foliation, delta: int) -> SubdistributionSystem:
    """Assemble and solve the linear system for degree-delta candidates:
    i_R Theta = 0 and Theta /\\ omega = 0, rows from :func:`_constraint_rows`."""
    if not fol.projective:
        raise ValueError("the subdistribution search is projective")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    chart = fol.chart
    ring = chart.ring
    n1 = chart.nvars
    unknowns, rows = _constraint_rows(fol, delta)
    kernel = nullspace(rows, len(unknowns), ring.one())
    basis = []
    for vec in kernel:
        terms: dict = {}
        for col, val in vec.items():
            pair, m = unknowns[col]
            mono = MultiPoly.monomial(ring, n1, m, val)
            cur = terms.get(pair)
            terms[pair] = mono if cur is None else cur + mono
        basis.append(DiffForm(chart, 2, terms))
    return SubdistributionSystem(delta, unknowns, len(basis), basis)


# ---------------------------------------------------------------------------
# witness validation


def is_rank_two(theta: DiffForm) -> bool:
    """Whether the 2-form theta has rank 2 over the rational function field.

    True iff theta is nonzero and every 4x4 Pfaffian
    theta_ij*theta_kl - theta_ik*theta_jl + theta_il*theta_jk vanishes
    (i < j < k < l).  The Pfaffians are used rather than theta /\\ theta,
    which vanishes identically in characteristic 2.
    """
    if theta.is_zero:
        return False
    c = theta.coeff
    for i, j, k, l in itertools.combinations(range(theta.chart.nvars), 4):
        if c((i, j)) * c((k, l)) - c((i, k)) * c((j, l)) + c((i, l)) * c((j, k)):
            return False
    return True


def witness_integrability(theta: DiffForm) -> bool:
    """Whether the kernel distribution of a decomposable 2-form is integrable.

    Precondition: theta is decomposable, theta = alpha /\\ beta (for
    instance ``is_rank_two(theta)``).  Then the kernel is integrable iff
    (i_{d/dx_k} theta) /\\ d(theta) = 0 for every coordinate field d/dx_k
    (de Medeiros, Singular foliations and differential p-forms, 2000).
    """
    chart = theta.chart
    n1 = chart.nvars
    dtheta = theta.d()
    for k in range(n1):
        field = VectorField(chart, [int(i == k) for i in range(n1)])
        if theta.contract(field).wedge(dtheta):
            return False
    return True


@dataclass
class DistminResult:
    delta: int | None
    witness: DiffForm | None
    integrable: bool | None
    dimensions: list = dc_field(default_factory=list)
    candidates_checked: int = 0


def _span_combinations(basis: list, chart, rng: random.Random):
    """Ten random combinations of the basis forms (none for a basis of at
    most one form), drawn from ``rng`` one at a time as they are asked for."""
    if len(basis) < 2:
        return
    ring = chart.ring
    for _ in range(10):
        combo = chart.zero_form(2)
        for b in basis:
            if isinstance(ring, GF):
                c = ring.random(rng)
            else:
                c = Fraction(rng.randint(-9, 9))
            combo = combo + b * c
        yield combo


def distmin2(fol: Foliation, delta_max: int | None = None, seed: int = 0) -> DistminResult:
    """The minimal degree of a codimension-two subdistribution, with witness.

    Sweeps delta from 0 to delta_max (default deg F, which always carries
    the obvious subdistributions omega /\\ dl).  A delta is accepted when
    some solution has unit content and rank 2.  The candidates are the basis
    of the solution space and then, only once every basis form has failed
    and the basis has more than one element, ten random combinations of it
    drawn from ``random.Random(seed)``: a witness may exist in the span when
    no basis vector qualifies.  The generator is shared across the sweep,
    so the draws depend only on the deltas whose basis failed.
    """
    if not fol.projective:
        raise ValueError("the subdistribution search is projective")
    if delta_max is None:
        delta_max = fol.degree
    if delta_max < 0:
        raise ValueError("delta_max must be nonnegative")
    rng = random.Random(seed)
    dims: list[int] = []
    checked = 0
    for delta in range(delta_max + 1):
        system = subdistribution_space(fol, delta)
        if dims and system.dimension < dims[-1]:
            raise InternalError(
                "distmin.distmin2", "solution dimension decreased with delta"
            )
        dims.append(system.dimension)
        candidates = itertools.chain(
            system.basis, _span_combinations(system.basis, fol.chart, rng)
        )
        for theta in candidates:
            if theta.is_zero:
                continue
            checked += 1
            if not theta.content().is_constant:
                continue
            if not is_rank_two(theta):
                continue
            return DistminResult(
                delta, theta, witness_integrability(theta), dims, checked
            )
    return DistminResult(None, None, None, dims, checked)

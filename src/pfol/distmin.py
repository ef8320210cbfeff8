"""Minimal-degree codimension-two subdistributions of projective foliations.

A candidate subdistribution of degree delta is encoded by a projective
2-form Theta with polynomial coefficients of degree delta+1 subject to the
exact linear constraints i_R Theta = 0 (radial contraction) and
Theta /\\ omega = 0 (tangency to the foliation).  The search sweeps delta
upward and accepts the first solution with unit content and rank 2, tested
exactly by the vanishing of its 4x4 Pfaffians.  The integrability of the
witness's kernel is the polynomial identity (i_{d/dx_k} Theta) /\\ dTheta = 0
for every k, which characterises integrability for decomposable 2-forms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import InternalError
from .exterior import DiffForm, VectorField, euler_field
from .foliation import Foliation
from .mpoly import MultiPoly
from .rings import GF


# ---------------------------------------------------------------------------
# sparse exact linear algebra (rows are dicts column -> nonzero value)


def rref(rows: list[dict]) -> dict[int, dict]:
    """Reduced row echelon form; returns {pivot column: reduced row}."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        # reduce against existing pivots
        changed = True
        while changed:
            changed = False
            for col in sorted(row):
                if col in pivots:
                    factor = row[col]
                    for c, v in pivots[col].items():
                        nv = row.get(c)
                        nv = -factor * v if nv is None else nv - factor * v
                        if nv:
                            row[c] = nv
                        else:
                            row.pop(c, None)
                    changed = True
                    break
        if not row:
            continue
        lead = min(row)
        inv_val = row[lead]
        row = {c: v / inv_val for c, v in row.items()}
        # eliminate the new pivot from stored rows
        for pc, prow in pivots.items():
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


def rank_of(rows: list[dict]) -> int:
    return len(rref(rows))


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


def subdistribution_space(fol: Foliation, delta: int) -> SubdistributionSystem:
    """Assemble and solve the linear system for degree-delta candidates."""
    if not fol.projective:
        raise ValueError("the subdistribution search is projective")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    chart = fol.chart
    ring = chart.ring
    n1 = chart.nvars
    pairs = list(itertools.combinations(range(n1), 2))
    monos = list(_monomials(n1, delta + 1))
    unknowns = [(pair, m) for pair in pairs for m in monos]
    index = {u: i for i, u in enumerate(unknowns)}
    radial = euler_field(chart)
    constraints: dict = {}

    def add(key, col, val):
        row = constraints.setdefault(key, {})
        cur = row.get(col)
        cur = val if cur is None else cur + val
        if cur:
            row[col] = cur
        else:
            row.pop(col, None)

    for u_idx, (pair, m) in enumerate(unknowns):
        basis_form = DiffForm(chart, 2, {pair: MultiPoly.monomial(ring, n1, m)})
        contracted = basis_form.contract(radial)
        for idx, c in contracted.terms.items():
            for e, v in c.terms.items():
                add(("r", idx, e), u_idx, v)
        wedged = basis_form.wedge(fol.form)
        for idx, c in wedged.terms.items():
            for e, v in c.terms.items():
                add(("w", idx, e), u_idx, v)

    rows = [constraints[k] for k in sorted(constraints, key=repr)]
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


def distmin2(fol: Foliation, delta_max: int | None = None, seed: int = 0) -> DistminResult:
    """The minimal degree of a codimension-two subdistribution, with witness.

    Sweeps delta from 0 to delta_max (default deg F, which always carries
    the obvious subdistributions omega /\\ dl).  A delta is accepted when
    some solution has unit content and rank 2.  The candidates are the basis
    of the solution space and, when it has more than one element, ten random
    combinations of it drawn from ``random.Random(seed)``: a witness may
    exist in the span when no basis vector qualifies.
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
        candidates = list(system.basis)
        # a witness may hide in the span even if no basis vector qualifies
        if len(system.basis) > 1:
            ring = fol.ring
            for _ in range(10):
                combo = fol.chart.zero_form(2)
                for b in system.basis:
                    if isinstance(ring, GF):
                        c = ring.random(rng)
                    else:
                        c = Fraction(rng.randint(-9, 9))
                    combo = combo + b * c
                if combo:
                    candidates.append(combo)
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

"""Minimal-degree codimension-two subdistributions of projective foliations.

A candidate subdistribution of degree delta is encoded by a projective
2-form Theta with polynomial coefficients of degree delta+1 subject to the
exact linear constraints i_R Theta = 0 (radial contraction) and
Theta /\\ omega = 0 (tangency to the foliation).  The search sweeps delta
upward and accepts the first solution with unit content and rank 2, tested
exactly by the vanishing of its 4x4 Pfaffians.  The integrability of the
witness's kernel is the polynomial identity (i_{d/dx_k} Theta) /\\ dTheta = 0
for every k, which characterises integrability for decomposable 2-forms.

The radial condition is solved in closed form.  The Koszul complex of
x_0, ..., x_n, whose differential is i_R, is exact at the q-forms for
every q >= 1 over every field (x_0, ..., x_n is a regular sequence), so
the 2-forms with i_R Theta = 0 and coefficients of degree delta+1 are
exactly the Theta = i_R Psi, Psi a 3-form with coefficients of degree
delta.  For a projective foliation i_R omega = 0, and i_R is an
antiderivation, so i_R(Psi /\\ omega) = (i_R Psi) /\\ omega - Psi /\\ i_R omega
= Theta /\\ omega.  The search therefore solves the small system
i_R(Psi /\\ omega) = 0 (:func:`_koszul_rows`): in four variables
Psi /\\ omega is a top form, on which i_R is injective, so the condition is
Psi /\\ omega = 0, one row per monomial; in three variables it is empty.
The kernel is mapped through i_R, and :func:`rref` on the reversed columns
reduces the image to the reduced echelon basis of the solution space with
its pivots on the free columns: a basis fixed by the space alone, the one
the full system's :func:`nullspace` gives.  :func:`rref` keeps its pivot
rows fully reduced, so each new row is reduced in one pass over its pivot
columns.  Random combinations of a solution basis are drawn only after
every basis form has been rejected.  The unit content of a candidate is
``theta.content().is_constant``; over Q its gcds try one image mod a large
prime first (see :func:`pfol.mpoly.gcd_multi`).
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


def _subtract_multiple(row: dict, factor, other: dict) -> None:
    """row -= factor * other, in place, keeping only nonzero entries."""
    for c, v in other.items():
        nv = row.get(c)
        nv = -factor * v if nv is None else nv - factor * v
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)


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
            _subtract_multiple(row, row[col], pivots[col])
        if not row:
            continue
        lead = min(row)
        inv_val = row[lead]
        row = {c: v / inv_val for c, v in row.items()}
        # eliminate the new pivot from stored rows
        for prow in pivots.values():
            if lead in prow:
                _subtract_multiple(prow, prow[lead], row)
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


def _koszul_rows(fol: Foliation, delta: int) -> tuple[list, list[dict]]:
    """The unknowns of Psi in degree delta and the rows of i_R(Psi /\\ omega) = 0.

    The unknowns are the coefficients of x^m dx_a/\\dx_b/\\dx_c (a < b < c,
    |m| = delta).  For each term v x^e of a_k, k not in {a, b, c},
    x^m dx_a/\\dx_b/\\dx_c /\\ a_k dx_k puts +-v at (sorted (a, b, c, k), m+e)
    of Psi /\\ omega, signed by the sort; no two terms meet there.  In four
    variables these 4-forms are top forms, on which i_R is injective, so
    their coefficients are the rows.  In more variables i_R takes the entry
    at (I, f) to (I without I_s, f+e_{I_s}) with sign (-1)^s, and entries
    may meet and cancel.  In three variables there are no rows.
    """
    n1 = fol.chart.nvars
    triples = list(itertools.combinations(range(n1), 3))
    monos = list(_monomials(n1, delta))
    unknowns = [(triple, m) for triple in triples for m in monos]
    omega = [(k, list(c.terms.items())) for (k,), c in fol.form.terms.items()]
    wedge: defaultdict = defaultdict(dict)
    col = 0
    for triple in triples:
        wedge_terms = []
        for k, terms in omega:
            if k not in triple:
                idx, sign = _sort_sign(triple + (k,))
                wedge_terms.append(
                    (idx, terms if sign > 0 else [(e, -v) for e, v in terms])
                )
        for m in monos:
            for idx, terms in wedge_terms:
                for e, v in terms:
                    wedge[idx, tuple(map(add, m, e))][col] = v
            col += 1
    if n1 == 4:
        return unknowns, list(wedge.values())
    rows: defaultdict = defaultdict(dict)
    for (idx, f), entries in wedge.items():
        for s, i in enumerate(idx):
            row = rows[idx[:s] + idx[s + 1:], f[:i] + (f[i] + 1,) + f[i + 1:]]
            for c, v in entries.items():
                if s % 2:
                    v = -v
                nv = row.get(c)
                nv = v if nv is None else nv + v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c)
    return unknowns, [row for row in rows.values() if row]


def subdistribution_space(fol: Foliation, delta: int) -> SubdistributionSystem:
    """The degree-delta candidates Theta, with i_R Theta = 0 and
    Theta /\\ omega = 0, as Theta = i_R Psi with i_R(Psi /\\ omega) = 0.

    The kernel of :func:`_koszul_rows` is mapped through i_R into the
    unknowns x^m dx_i/\\dx_j (i < j, |m| = delta+1), and its image is
    reduced with the columns reversed.  The kernel vector of the full
    system for a free column f is 1 at f, 0 at the other free columns and
    otherwise nonzero only at pivot columns below f: it is the reduced
    echelon basis with the columns reversed, unique for the space.  So the
    basis is one form per free column, in their order.
    """
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
    # reversed column of x^m dx_i/\dx_j: last - pair_col[i, j] - mono_col[m]
    last = len(unknowns) - 1
    pair_col = {pair: n * len(monos) for n, pair in enumerate(pairs)}
    mono_col = {m: n for n, m in enumerate(monos)}
    psi_unknowns, rows = _koszul_rows(fol, delta)
    images = []
    for vec in nullspace(rows, len(psi_unknowns), ring.one()):
        image: dict = {}
        for col, val in vec.items():
            (a, b, c), m = psi_unknowns[col]
            # i_R(x^m dx_a/\dx_b/\dx_c)
            #   = x^m (x_a dx_b/\dx_c - x_b dx_a/\dx_c + x_c dx_a/\dx_b)
            for pair, i, v in (((b, c), a, val), ((a, c), b, -val), ((a, b), c, val)):
                key = last - pair_col[pair] - mono_col[m[:i] + (m[i] + 1,) + m[i + 1:]]
                nv = image.get(key)
                nv = v if nv is None else nv + v
                if nv:
                    image[key] = nv
                else:
                    image.pop(key)
        images.append(image)
    echelon = rref(images)
    basis = []
    for lead in sorted(echelon, reverse=True):
        terms: defaultdict = defaultdict(dict)
        for key, val in echelon[lead].items():
            pair, m = unknowns[last - key]
            terms[pair][m] = val
        basis.append(DiffForm(
            chart, 2, {pair: MultiPoly(ring, n1, t) for pair, t in terms.items()}
        ))
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

"""Distmin references: the routes the fast subdistribution search replaced.

The package solves ``subdistribution_space`` for a 3-form Psi with
Theta = i_R Psi, writing the rows of i_R(Psi /\\ omega) = 0 from the
coefficients of omega; it reduces each row in one pass over its pivot
columns, and draws random span combinations only after every basis form
has failed.  The routes it replaced build a ``DiffForm`` per unknown of
Theta, contract it with the Euler field and wedge it with omega, and take
the kernel of those rows; eliminate with a loop that restarts after every
pivot column it clears; and draw the ten combinations before any candidate
is checked.  The tests keep them, and the rows of the Psi system built one
form per unknown, to check the fast routes against.
"""

import itertools
import random
from fractions import Fraction

from pfol import InternalError, distmin
from pfol.exterior import DiffForm, euler_field
from pfol.mpoly import MultiPoly
from pfol.rings import GF


def constraint_rows_reference(fol, delta):
    """The unknowns and the sorted constraint rows, one form per unknown."""
    chart = fol.chart
    ring = chart.ring
    n1 = chart.nvars
    unknowns = [
        (pair, m)
        for pair in itertools.combinations(range(n1), 2)
        for m in distmin._monomials(n1, delta + 1)
    ]
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

    for col, (pair, m) in enumerate(unknowns):
        basis_form = DiffForm(chart, 2, {pair: MultiPoly.monomial(ring, n1, m)})
        for tag, image in (
            ("r", basis_form.contract(radial)),
            ("w", basis_form.wedge(fol.form)),
        ):
            for idx, c in image.terms.items():
                for e, v in c.terms.items():
                    add((tag, idx, e), col, v)
    return unknowns, [constraints[k] for k in sorted(constraints, key=repr)]


def koszul_rows_reference(fol, delta):
    """The unknowns of Psi and the rows of i_R(Psi /\\ omega) = 0, one form
    per unknown; in four variables the rows of Psi /\\ omega = 0.  The rows
    are keyed by (index tuple, exponent)."""
    chart = fol.chart
    ring = chart.ring
    n1 = chart.nvars
    unknowns = [
        (triple, m)
        for triple in itertools.combinations(range(n1), 3)
        for m in distmin._monomials(n1, delta)
    ]
    radial = euler_field(chart)
    rows: dict = {}
    for col, (triple, m) in enumerate(unknowns):
        psi = DiffForm(chart, 3, {triple: MultiPoly.monomial(ring, n1, m)})
        image = psi.wedge(fol.form)
        if n1 != 4:
            image = image.contract(radial)
        for idx, c in image.terms.items():
            for e, v in c.terms.items():
                rows.setdefault((idx, e), {})[col] = v
    return unknowns, rows


def _subtract_multiple(row, factor, other):
    """row -= factor * other, in place, dropping zero entries."""
    for c, v in other.items():
        nv = row.get(c)
        nv = -factor * v if nv is None else nv - factor * v
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)


def rref_reference(rows):
    """{pivot column: reduced row}, clearing the smallest pivot column of a
    new row and restarting the scan after every one it clears."""
    pivots = {}
    for row in rows:
        row = dict(row)
        changed = True
        while changed:
            changed = False
            for col in sorted(row):
                if col in pivots:
                    _subtract_multiple(row, row[col], pivots[col])
                    changed = True
                    break
        if not row:
            continue
        lead = min(row)
        inv_val = row[lead]
        row = {c: v / inv_val for c, v in row.items()}
        for prow in pivots.values():
            if lead in prow:
                _subtract_multiple(prow, prow[lead], row)
        pivots[lead] = row
    return pivots


def distmin2_reference(fol, delta_max=None, seed=0):
    """``distmin2`` with the ten span combinations drawn eagerly, at every
    delta whose basis has two or more forms, before any candidate is
    checked.  It reads ``subdistribution_space``, ``is_rank_two`` and
    ``witness_integrability`` from the package module at call time."""
    if delta_max is None:
        delta_max = fol.degree
    rng = random.Random(seed)
    dims = []
    checked = 0
    for delta in range(delta_max + 1):
        system = distmin.subdistribution_space(fol, delta)
        if dims and system.dimension < dims[-1]:
            raise InternalError(
                "distmin.distmin2", "solution dimension decreased with delta"
            )
        dims.append(system.dimension)
        candidates = list(system.basis)
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
            if not distmin.is_rank_two(theta):
                continue
            return distmin.DistminResult(
                delta, theta, distmin.witness_integrability(theta), dims, checked
            )
    return distmin.DistminResult(None, None, None, dims, checked)

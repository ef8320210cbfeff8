"""Integral models: foliations with Z or Z[a]/(f) coefficients, reduction
modulo primes, prime scans, the Kronecker rationality probe and the integer
integrability defect.

A model is its form, with two identities computed from it (see below), and
a reduction keeps the form's chart over the residue field.  Every reduction is validated as ``from_form`` would
validate it: a non-integrable integral form can become integrable modulo p
(see the integer defect).

A prime scan makes one derivation pass for all its primes.  For each
Koszul field v = a_j d_i - a_i d_j of the model's form omega, taken over
the model's own ring R, it keeps v^m(c_i) for the components c_i of v and
raises m one step at a time; a row at the prime p, once its reduction has
succeeded, raises m to p - 1 and reads

    omega_p(v_p^p) = sum_i a_{i,p} * (v^(p-1)(c_i) mod P),

for P the prime of the row.  This is exact: reduction R -> F_q modulo P is
a ring map that commutes with every d/dx_j, so it carries v^(p-1)(c_i) to
v_p^(p-1)(c_{i,p}) = v_p^p(x_i), and the Koszul fields of the reduced form
are the reductions of the model's.  A field that vanishes modulo P gives
the value 0, which neither ``PCurvature.f`` (the first nonzero value) nor
the degeneracy divisor (which drops zeros) reads.  A step is the one of
``VectorField.pth_power`` (``pfol.exterior._derivation_step``), but over R
it skips only the terms with e_j = 0, since other primes need those with
e_j divisible by p.  Every integer of the pass, each coordinate of an
``NRElem`` over Z[a]/(f), is kept reduced modulo M, the product of the
scan's primes from p on.  That is exact too, since every later reduction
is modulo a prime dividing M, and it bounds the coefficients, which
otherwise grow like m!.  A scan thus makes pmax derivation steps where one
foliation per prime makes the sum of the primes.

``reduce_model`` validates a row from two identities of the model's form,
computed once over R: omega /\\ d(omega) in three or more variables, and the
radial pairing i_R(omega) on the cone.  A row reads off their reductions
modulo P, the checks in ``from_form``'s order and with its messages.  This
is exact: reduction modulo P is a ring map that commutes with d, /\\ and
contraction, so the identities of the reduced form are the reductions of
the model's; and the row has passed its content check first, so the
reduced form is saturated and is the form ``from_form`` would validate.
Homogeneity stays a check on the reduced form, since reduction can drop the
terms that break it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, asdict

from .exterior import (
    Chart, DiffForm, VectorField, _derivation_step, _pack, _packing, _unpack,
    euler_field,
)
from .foliation import (
    Foliation,
    PCurvature,
    ValidationError,
    _validated,
    cartier_transform_foliation,
    degeneracy_divisor,
    is_p_closed,
    koszul_fields,
)
from .mpoly import MultiPoly
from .rings import (
    GF,
    NRElem,
    NumberRing,
    ZZ,
    factor_mod_p,
    format_up,
    is_prime,
    primes_upto,
    up_trim,
)


class BadReductionError(ArithmeticError):
    pass


@dataclass
class IntegralModel:
    """A foliation 1-form with integer or number-ring coefficients.

    It keeps the identities that validate its reductions (see the module
    docstring): ``_radial``, i_R(form) on the cone, and ``_defect``,
    form /\\ d(form) in three or more variables; each is None elsewhere.
    """

    form: DiffForm

    def __post_init__(self):
        form = self.form
        chart = form.chart
        if not isinstance(chart.ring, (NumberRing, type(ZZ))):
            raise ValidationError("integral models need Z or Z[a]/(f) coefficients")
        if form.q != 1:
            raise ValidationError("a defining form must be a 1-form")
        if form.is_zero:
            raise ValidationError("the zero form defines no foliation")
        self._radial = form.pair(euler_field(chart)) if chart.is_cone else None
        self._defect = form.wedge(form.d()) if chart.nvars >= 3 else None

    @property
    def ring(self):
        return self.form.chart.ring

    @property
    def minpoly(self) -> list[int] | None:
        if isinstance(self.ring, NumberRing):
            return self.ring.full_minpoly
        return None


def reduction_field(model: IntegralModel, p: int, g=None):
    """The residue field for the factor choice g, with a coefficient embedding."""
    ring = model.ring
    if isinstance(ring, NumberRing):
        if g is None:
            raise ValueError("a factor of the minimal polynomial mod p is required")
        g = up_trim([c % p for c in list(g)])
        k = len(g) - 1
        field = GF(p, k, g if k > 1 else None)
    else:
        field = GF(p, 1)
    return field, _embedding(ring, field, g)


def _embedding(ring, field: GF, g):
    """The map from the model's ring onto ``field``, its residue field at
    the factor g (reduced mod p) of the minimal polynomial; Z maps onto F_p."""
    if not isinstance(ring, NumberRing):
        return field.coerce
    t = field.generator() if field.k > 1 else field.coerce(-g[0])

    def embed(c: NRElem):
        acc = field.zero()
        power = field.one()
        for coef in c.coeffs:
            acc = acc + field.coerce(coef) * power
            power = power * t
        return acc

    return embed


def _survives(polys, embed) -> bool:
    """Whether some coefficient of the polynomials ``polys`` over the
    model's ring has a nonzero image under ``embed``."""
    return any(embed(c) for f in polys for c in f.terms.values())


def reduce_model(model: IntegralModel, p: int, g=None) -> Foliation:
    """Reduce an integral model modulo a prime (and a factor choice for
    number-ring coefficients).  Bad primes raise BadReductionError.  The
    reduced form is validated from the reductions of the model's
    identities (see the module docstring)."""
    field, embed = reduction_field(model, p, g)
    src = model.form
    n = src.chart.nvars
    chart = Chart(field, src.chart.names, src.chart.kind)
    terms = {}
    for idx, c in src.terms.items():
        reduced = MultiPoly(
            field, n, {e: embed(v) for e, v in c.terms.items()}
        )
        if reduced:
            terms[idx] = reduced
    form = DiffForm(chart, 1, terms)
    if form.is_zero:
        raise BadReductionError(f"form vanishes modulo {p}")
    if not form.content().is_constant:
        raise BadReductionError(f"saturation lost modulo {p}")
    try:
        return _validated(
            form,
            lambda: _survives([model._radial], embed),
            lambda: _survives(model._defect.terms.values(), embed),
        )
    except ValidationError as exc:
        raise BadReductionError(f"validation lost modulo {p}: {exc}") from exc


@dataclass
class ScanRow:
    p: int
    factor: str
    k: int
    p_closed: bool | None
    deg_degeneracy: int | None
    squarefree: bool | None
    cartier_integrable: bool | None
    note: str = ""


class _SharedPass:
    """The derivation pass of a prime scan (see the module docstring): for
    each Koszul field v of the model's form, the support of v and the
    iterates v^m(c_i) of its nonzero components c_i, at one shared m that
    starts at 0 and reaches at most ``steps``, with exponents packed by
    ``pfol.exterior._packing`` for the largest degree of a coefficient of
    the form.
    """

    def __init__(self, form: DiffForm, steps: int):
        nvars = form.chart.nvars
        self.base, self.weights = _packing(form.max_coeff_degree(), steps, nvars)
        self.m = 0
        self.fields = []
        for v in koszul_fields(form):
            iterates = [
                (j, _pack(c.terms.items(), self.weights))
                for j, c in enumerate(v.comps) if c
            ]
            support = [(self.weights[j], terms) for j, terms in iterates]
            self.fields.append((support, iterates))

    def values(self, fol: Foliation, embed, ahead: int) -> list[MultiPoly]:
        """omega_p(v_p^p) for every Koszul field v, for the reduction fol at
        the prime p, with ``embed`` its coefficient map; m is raised to
        p - 1 first, modulo ``ahead``, the product of the scan's primes
        from p on."""
        base, weights = self.base, self.weights
        for _ in range(self.m, fol.p - 1):
            for support, iterates in self.fields:
                for slot, (i, terms) in enumerate(iterates):
                    sums = _derivation_step(terms, support, base, base).items()
                    iterates[slot] = i, [(e, r) for e, s in sums if (r := s % ahead)]
        self.m = max(self.m, fol.p - 1)
        chart, field, n = fol.chart, fol.ring, fol.chart.nvars
        out = []
        for _, iterates in self.fields:
            comps = [0] * n
            for i, terms in iterates:
                comps[i] = MultiPoly(field, n, {
                    e: embed(a) for e, a in _unpack(terms, base, weights)
                })
            out.append(fol.form.pair(VectorField(chart, comps)))
        return out


def prime_scan(model: IntegralModel, pmax: int) -> list[ScanRow]:
    """One row per (prime <= pmax, irreducible factor of the minimal
    polynomial mod p); bad reductions are flagged in the note column.  The
    p-curvature of every row comes from one shared derivation pass."""
    rows: list[ScanRow] = []
    minpoly = model.minpoly
    primes = primes_upto(pmax)
    shared = _SharedPass(model.form, primes[-1] - 1 if primes else 0)
    ahead = math.prod(primes)
    for p in primes:
        choices = [(None, 1)] if minpoly is None else factor_mod_p(minpoly, p)
        for g, _mult in choices:
            factor_str = format_up(g, "t") if g is not None else ""
            k = len(g) - 1 if g is not None else 1
            try:
                fol = reduce_model(model, p, g)
            except BadReductionError as exc:
                rows.append(
                    ScanRow(p, factor_str, k, None, None, None, None, str(exc))
                )
                continue
            embed = _embedding(model.ring, fol.ring, g)
            fol.pcurvature = PCurvature(fol.form, p, shared.values(fol, embed, ahead))
            closed = is_p_closed(fol)
            if closed:
                rows.append(ScanRow(p, factor_str, k, True, None, None, None))
                continue
            delta = degeneracy_divisor(fol)
            squarefree = all(m == 1 for _, m in delta.normalize())
            _, integrable = cartier_transform_foliation(fol)
            rows.append(
                ScanRow(p, factor_str, k, False, delta.degree(), squarefree, integrable)
            )
        ahead //= p
    return rows


CSV_HEADER = ["p", "factor", "k", "p_closed", "deg_degeneracy",
              "squarefree", "cartier_integrable"]


def scan_to_csv(rows: list[ScanRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        if r.note:
            writer.writerow([r.p, r.factor, r.k, f"bad:{r.note}", "", "", ""])
        else:
            writer.writerow(
                [r.p, r.factor, r.k, r.p_closed,
                 "" if r.deg_degeneracy is None else r.deg_degeneracy,
                 "" if r.squarefree is None else r.squarefree,
                 "" if r.cartier_integrable is None else r.cartier_integrable]
            )
    return buf.getvalue()


def scan_to_json(rows: list[ScanRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2)


PROBE_BLOCK = 64


def kronecker_probe(minpoly, pmax: int) -> dict:
    """Fraction of good primes <= pmax where the minimal polynomial has a
    root; density one characterizes (the reduction behavior of) a rational.

    f mod p has a root in F_p exactly when p divides f(x) for some integer
    x, and x = 0, ..., p - 1 meet every residue class mod p.  So a good
    prime p, one not dividing gcd(f_1, ..., f_k) so that f mod p is
    nonconstant, has a root exactly when p divides the product of f(x) over
    x < p, or over any longer run of x from 0; and so exactly when p
    divides that product reduced mod any q that p divides.  An integer root
    makes the product 0, and then every good prime has a root.

    The primes are cut into blocks of ``PROBE_BLOCK``, and each block keeps
    one accumulator modulo q, the product of its primes.  The values of f
    are streamed in chunks of ``PROBE_BLOCK`` consecutive x from 0; the
    product of a chunk is multiplied into the accumulator of every block
    whose largest prime is above the chunk's first x.  A good p has a root
    when p divides its block's accumulator.  The probe holds the block
    moduli and accumulators, about 2.9 pmax bits, and no value of f beyond
    a chunk.  Its cost grows like pmax^2: about pmax / PROBE_BLOCK chunks,
    each multiplied into up to pi(pmax) / PROBE_BLOCK accumulators of a
    bounded size.
    """
    f = up_trim(list(minpoly))
    if len(f) < 2:
        raise ValueError("minimal polynomial must be nonconstant")
    content = math.gcd(*f[1:])  # f mod p is constant for p dividing it
    primes = primes_upto(pmax)
    blocks = [primes[i:i + PROBE_BLOCK] for i in range(0, len(primes), PROBE_BLOCK)]
    moduli = [math.prod(block) for block in blocks]
    accs = [1] * len(blocks)
    lead, rest = f[-1], f[-2::-1]
    first = 0  # the blocks before it need no x this large
    for start in range(0, primes[-1] if primes else 0, PROBE_BLOCK):
        while blocks[first][-1] <= start:
            first += 1
        xs = range(start, start + PROBE_BLOCK)
        values = [lead] * PROBE_BLOCK
        for c in rest:
            values = [v * x + c for v, x in zip(values, xs)]
        chunk = math.prod(values)
        for i in range(first, len(accs)):
            accs[i] = accs[i] * chunk % moduli[i]
    good = with_root = 0
    for block, acc in zip(blocks, accs):
        for p in block:
            if content % p:
                good += 1
                with_root += acc % p == 0
    if not good:
        raise ValueError("no good prime up to pmax")
    return {
        "pmax": pmax,
        "good_primes": good,
        "primes_with_root": with_root,
        "density": with_root / good,
        "verdict": "rational-like" if with_root == good else "irrational-like",
    }


# ---------------------------------------------------------------------------
# the integer integrability defect


def integrability_defect_integer(form: DiffForm) -> DiffForm:
    """omega /\\ d(omega) computed exactly over Z (a 3-form)."""
    ring = form.chart.ring
    if ring.characteristic != 0 or ring.is_field:
        raise ValueError("the integer defect is computed over Z")
    if form.q != 1 or form.chart.nvars != 3:
        raise ValueError("expected a polynomial 1-form in three variables")
    return form.wedge(form.d())


def classify_integer_defect(defect: DiffForm, p: int) -> dict:
    """Whether the defect is +-p * m * (monomial 3-form); reports p-content."""
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if defect.is_zero:
        return {"zero": True}
    coeff = defect.coeff((0, 1, 2))
    content = 0
    for c in coeff.terms.values():
        content = math.gcd(content, abs(c))
    p_content = 0
    m = content
    while m % p == 0:
        m //= p
        p_content += 1
    return {
        "zero": False,
        "monomial": len(coeff.terms) == 1,
        "content": content,
        "p_content": p_content,
        "coefficient": coeff,
    }


"""Exact computations with codimension-one foliations in positive characteristic.

The package is organised bottom-up:

- ``rings``: coefficient arithmetic (prime fields, their extensions, Z, Q,
  and monogenic number rings) together with reduction modulo primes.
- ``mpoly``: sparse multivariate polynomials over any of those coefficient
  rings, with gcd and squarefree decomposition.
- ``exterior``: differential forms and vector fields with polynomial
  coefficients, wedge/d/contraction, p-th power derivations and pullbacks
  on affine charts.
- ``cartier``: the Cartier operator on closed forms.
- ``foliation``: p-curvature, degeneracy divisors, closed defining forms,
  kernel distributions and invariant hypersurfaces.
- ``geommaps``: maps with one common denominator, pullbacks, ramification
  and differents.
- ``models``: integral models and prime scans.
- ``distmin``: minimal-degree subdistribution search by exact linear algebra.
- ``parsing``: expressions and documents; the one place that adds and
  divides fractions, handing forms and maps on as polynomial numerators.
- ``cli``: the command line front end.
"""

__version__ = "0.1.0"


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in the engine, not bad input.

    ``stage`` names where it was found, in the layer.function form the
    benchmark's per-layer report uses; the command line exits with code 3.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.message = message

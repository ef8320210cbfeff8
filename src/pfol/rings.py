"""Coefficient rings: GF(p^k), Z, Q and monogenic number rings Z[a]/(f).

All rings expose a small common protocol used by the polynomial layer:

- ``zero()``, ``one()``, ``coerce(x)``
- ``characteristic`` (int, 0 for Z/Q/number rings)
- ``is_field`` (bool)
- ``inv(c)`` (fields only)
- ``random(rng)`` for randomised tests
- ``descriptor()``, the text :func:`pfol.parsing.parse_descriptor` reads

Elements are plain ``int`` (for Z), ``fractions.Fraction`` (for Q), or the
wrapper classes :class:`GFElem` / :class:`NRElem`, all of which support the
usual arithmetic operators and are falsy exactly when zero.

A :class:`GFElem` holds one int, its code c_0 + c_1 p + ... + c_{k-1} p^{k-1}.
A field of q <= ``TABLE_LIMIT`` elements creates its q elements once and
returns them from every operation; a prime field computes with ints mod p,
an extension field looks products, sums, inverses and powers up in the
log/antilog (Zech) tables it builds at construction.  A larger extension
field multiplies the digits of two codes in F_p[t] and inverts as a^(q-2).
``GF(p, k, modulus)`` shares a field from its second call on, in a bounded table.

Dense polynomials over F_p are little-endian int lists.  Their kernel sums
products as plain ints and reduces each coefficient mod p once: ``up_mul``
after all products, ``up_divmod`` after working down from the top
coefficient.  ``up_pow_mod`` makes the modulus monic once and powers left
to right.  The gcds with x^(p^d) - x are taken in one loop,
``_distinct_degree``, which serves the irreducibility test and the
factorization mod p.  The factorization splits each distinct-degree part
by the gcds of ``_equal_degree`` (Cantor and Zassenhaus, with a
deterministic sequence of trial elements) and counts multiplicities by
division, so it needs no squarefree decomposition of its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import InternalError

# ---------------------------------------------------------------------------
# primality


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all word-sized inputs."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1) if n >= 0 else bytearray()
    out = []
    for q in range(2, n + 1):
        if sieve[q]:
            out.append(q)
            for m in range(q * q, n + 1, q):
                sieve[m] = 0
    return out


# ---------------------------------------------------------------------------
# univariate polynomials over F_p, stored as little-endian int lists


def up_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def up_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        c = (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
        out[i] = c % p
    return up_trim(out)


def up_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return up_trim([c % p for c in out])


def up_scale(a, c, p):
    c %= p
    return up_trim([ai * c % p for ai in a])


def _divide(s, b, inv_lead, p):
    """Divide the int list s in place by b, whose leading coefficient has
    the inverse inv_lead mod p, from the top coefficient down: s[d:]
    becomes the quotient, and the remainder, reduced once at the end, is
    returned."""
    d = len(b) - 1
    for k in range(len(s) - 1, d - 1, -1):
        c = s[k] = s[k] * inv_lead % p
        if c:
            for i in range(d):
                s[k - d + i] -= c * b[i]
    return up_trim([c % p for c in s[:d]])


def up_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    s = list(a)
    r = _divide(s, b, pow(b[-1], p - 2, p), p)
    return up_trim(s[len(b) - 1:]), r


def up_mod(a, b, p):
    return up_divmod(a, b, p)[1]


def up_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, up_mod(a, b, p)
    if a:
        a = up_scale(a, pow(a[-1], p - 2, p), p)
    return a


def up_pow_mod(a, e, mod, p):
    """a^e mod ``mod``, left to right: the modulus is made monic once, a
    square sums each cross product once and doubles it, and a step by the
    base x is a shift and one reduction step."""
    if not e:
        return [1]
    m = up_scale(mod, pow(mod[-1], p - 2, p), p)
    a = up_mod(a, m, p)
    by_x = a == [0, 1]
    r = a
    for bit in bin(e)[3:]:
        sq = [0] * (2 * len(r) - 1)
        for i, ri in enumerate(r):
            if ri:
                sq[2 * i] += ri * ri
                ri += ri
                for j in range(i + 1, len(r)):
                    sq[i + j] += ri * r[j]
        r = _divide(sq, m, 1, p)
        if bit == "1":
            if not by_x:
                r = _divide(up_mul(r, a, p), m, 1, p)
            elif len(r) == len(m) - 1:
                c = r[-1]
                r = up_trim([(x - c * y) % p for x, y in zip([0] + r, m)])
            elif r:
                r = [0] + r
    return r


def _distinct_degree(g: list[int], p: int):
    """The parts (d, gcd(x^(p^d) - x, g)) of the nonconstant g over F_p,
    for d = 1, 2, ... while 2d is at most the degree of g, each nonconstant
    part divided out of g as often as it divides, and then (the degree of
    the rest, the rest).

    A part is the monic product of the distinct irreducible factors of g of
    degree d, and the rest is irreducible; the first part has the least
    degree d of an irreducible factor, and is (k, g) for g of degree k
    exactly when g is irreducible.
    """
    h = [0, 1]
    d = 0
    while len(g) > 1:
        d += 1
        if 2 * d > len(g) - 1:
            yield len(g) - 1, g
            return
        h = up_pow_mod(h, p, g, p)
        part = up_gcd(up_sub(h, [0, 1], p), g, p)
        if len(part) > 1:
            yield d, part
            while len(part) > 1:
                g, _ = up_divmod(g, part, p)
                part = up_gcd(part, g, p)


def _equal_degree(g: list[int], d: int, p: int) -> list[list[int]]:
    """The factors of g, a monic product of distinct irreducibles of degree
    d over F_p (Cantor and Zassenhaus, with deterministic choices).

    For a = x, x + 1, ..., the polynomials of degree 1 to deg g - 1 in code
    order, take u = gcd(g, a^((p^d - 1)/2) - 1), or for p = 2 the gcd with
    the trace a + a^2 + ... + a^(2^(d-1)), and split g at the first proper
    u.  Modulo each irreducible factor a is an element of F_(p^d), so the
    factor divides u exactly when that element's quadratic character is 1
    (its trace is 0 for p = 2).  By the Chinese remainder theorem some such
    a is 0 modulo one factor and, modulo another, 1 (for p = 2, an element
    of trace 1), so a proper u is always found.
    """
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    for code in range(p, p**n):
        a = []
        while code:
            code, c = divmod(code, p)
            a.append(c)
        if p == 2:
            s = t = a
            for _ in range(d - 1):
                t = up_pow_mod(t, 2, g, 2)
                s = up_sub(s, t, 2)
        else:
            s = up_sub(up_pow_mod(a, e, g, p), [1], p)
        u = up_gcd(g, s, p)
        if 1 < len(u) < len(g):
            return _equal_degree(u, d, p) + _equal_degree(up_divmod(g, u, p)[0], d, p)
    raise InternalError("rings.factor_mod_p", "no proper split found")  # pragma: no cover


def up_is_irreducible(g: list[int], p: int) -> bool:
    """Whether g of degree k >= 1 is irreducible over F_p: its first
    distinct-degree part is (k, g)."""
    return len(g) > 1 and next(_distinct_degree(g, p))[0] == len(g) - 1


def canonical_irreducible(p: int, k: int) -> list[int]:
    """The first monic irreducible of degree k over F_p in counter order.

    Candidates x^k + c_{k-1} x^{k-1} + ... + c_0 are enumerated by the
    integer c_0 + c_1 p + ... + c_{k-1} p^{k-1}, smallest first.
    """
    for code in range(p**k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        g = coeffs + [1]
        if up_is_irreducible(g, p):
            return g
    raise ArithmeticError("no irreducible polynomial found")  # pragma: no cover


def _power(base, e: int, result):
    """result * base**e by binary powering, for e >= 0."""
    while e > 0:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# GF(p^k)

# Fields with at most this many elements build their element objects and
# tables once, at construction; larger fields compute every result afresh.
TABLE_LIMIT = 1 << 16


class GFElem:
    """An element of GF(p^k), held as one int, its code.

    The element c_0 + c_1 t + ... + c_{k-1} t^{k-1} has the code
    c_0 + c_1 p + ... + c_{k-1} p^{k-1}.  In an extension field with tables
    (see :class:`GF`) ``log`` is its discrete logarithm, 2q - 2 for zero.
    """

    __slots__ = ("field", "code", "log")

    def __init__(self, field: "GF", code: int):
        self.field = field
        self.code = code

    def _co(self, other):
        if isinstance(other, GFElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.coerce(other)
        return NotImplemented

    def __add__(self, other):
        f = self.field
        o = other if other.__class__ is GFElem and other.field is f else self._co(other)
        if o is NotImplemented:
            return NotImplemented
        if f.k == 1:
            return f._make((self.code + o.code) % f.p)
        if f._exp is None:
            digits = zip(f._digits(self.code), f._digits(o.code))
            return f._make(f._code([x + y for x, y in digits]))
        if not self.code:
            return o
        if not o.code:
            return self
        return f._exp[self.log + f._zech[o.log - self.log]]

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        f = self.field
        if f.k == 1:
            return f._make(-self.code % f.p)
        if f._exp is None:
            return f._make(f._code([-x for x in f._digits(self.code)]))
        return f._exp[self.log + f._half]

    def __mul__(self, other):
        f = self.field
        o = other if other.__class__ is GFElem and other.field is f else self._co(other)
        if o is NotImplemented:
            return NotImplemented
        if f._exp is not None:
            return f._exp[self.log + o.log]
        if f.k == 1:
            return f._make(self.code * o.code % f.p)
        prod = up_mul(f._digits(self.code), f._digits(o.code), f.p)
        return f._make(f._code(_divide(prod, f.modulus, 1, f.p)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self.field.coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.field.coerce(other) * self.inverse()

    def inverse(self) -> "GFElem":
        f = self.field
        if not self.code:
            raise ZeroDivisionError("inverse of zero")
        if f._exp is not None:
            return f._exp[f.order - 1 - self.log]
        if f.k == 1:
            return f._make(pow(self.code, f.p - 2, f.p))
        return self ** (f.order - 2)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        if f.k == 1:
            return f._make(pow(self.code, e, f.p))
        if not self.code:
            return self if e else f.one()
        if f._exp is not None:
            return f._exp[self.log * e % (f.order - 1)]
        return _power(self, e, f.one())

    def __eq__(self, other):
        if isinstance(other, GFElem):
            return other.code == self.code and (
                other.field is self.field or other.field == self.field
            )
        if isinstance(other, int):
            return other % self.field.p == self.code
        return False

    def __hash__(self):
        return hash(self.code)

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return format_up(self.field._digits(self.code), "t")


class _Interned(type):
    """Makes ``GF(p, k, modulus)`` share the field kept for its arguments."""

    def __call__(cls, p, k=1, modulus=None):
        global _held
        key = (p, k, None if modulus is None else tuple(modulus))
        asked = key in _FIELDS
        _held -= _weight(_FIELDS[key]) if asked else 0
        field = _FIELDS.pop(key, None) or super().__call__(p, k, modulus)
        _FIELDS[key] = field if asked else None  # kept from the second call on
        _held += _weight(_FIELDS[key])
        while _held > TABLE_LIMIT:
            _held -= _weight(_FIELDS.pop(next(iter(_FIELDS))))
        return field


def _weight(entry) -> int:
    return entry.order if entry is not None and entry.order <= TABLE_LIMIT else 1


_FIELDS: dict = {}  # key -> kept GF, or None when asked for once; least recent first
_held = 0  # the entries of _FIELDS weighed by _weight


class GF(metaclass=_Interned):
    """The finite field GF(p^k) = F_p[t]/(g), g monic irreducible of degree k.

    Kept from the second call with the same arguments on (a field asked for
    once is not held) and shared, a field never changes after ``__init__``.
    The table weighs at most ``TABLE_LIMIT``; the least recently used leave
    it first, and their elements equal those of a rebuilt field.

    ``_make(code)`` gives the element of a code: for q <= ``TABLE_LIMIT``
    one of the q elements created here, otherwise a new one.  An extension
    field within the limit has ``_exp``, the q - 1 powers of its primitive
    element g twice over and then zeros, so that it is indexed by a sum of
    two logs, the log of zero being 2q - 2; and ``_zech``, log(1 + g^n)
    twice over, so that it is indexed by a difference of two logs.  Then
    ``*``, ``+``, ``-``, ``inverse`` and ``**`` are lookups.  ``_exp`` is
    None in every other field.
    """

    is_field = True

    def __init__(self, p: int, k: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be positive")
        if k == 1 and modulus is not None:
            raise ValueError(f"a modulus needs k >= 2; write Fp:{p} for the prime field")
        self.p = p
        self.k = k
        self.characteristic = p
        self.order = q = p**k
        if k == 1:
            self.modulus = [0, 1]
        else:
            if modulus is None:
                modulus = canonical_irreducible(p, k)
            modulus = [c % p for c in modulus]
            if len(up_trim(list(modulus))) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not up_is_irreducible(list(modulus), p):
                raise ValueError("modulus is reducible")
            self.modulus = list(modulus)
        self._exp = None
        if q > TABLE_LIMIT:
            self._make = partial(GFElem, self)
            return
        elems = [GFElem(self, c) for c in range(q)]
        self._make = elems.__getitem__
        if k == 1:
            return
        self._tables(elems)

    def _tables(self, elems) -> None:
        """Give every element its log and build ``_exp`` and ``_zech``.

        The powers of g, the primitive element of least code, are stepped
        through as codes.  A step adds the products with g of the code's low
        and high digits, read from tables as ints with b bits per digit, and
        reduces every digit mod p at once, so it costs the same for every k.
        """
        p, k, q, m = self.p, self.k, self.order, self.modulus
        # g is primitive when no g^((q-1)/r) is 1, r a prime factor of q - 1
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        for code in range(p, q):
            g = up_trim(self._digits(code))
            if all(up_pow_mod(g, (q - 1) // r, m, p) != [1] for r in primes):
                break
        # spread[c]: the digits of code c in slots of b bits, wide enough
        # for the sum of two digits plus the bias below
        b = p.bit_length() + 1
        spread = list(range(q))
        for c in range(p, q):
            spread[c] = spread[c // p] << b | c % p
        unspread = dict(zip(spread, range(q)))
        low = p ** (k // 2)
        tab = [spread[self._code(_divide(up_mul(self._digits(c), g, p), m, 1, p))]
               for c in [*range(low), *range(0, q, low)]]
        low_tab, high_tab = tab[:low], tab[low:]
        # adding bias sets the top bit of exactly the slots holding p or more
        flags = ((1 << b * k) - 1) // ((1 << b) - 1) << (b - 1)
        bias = (flags >> (b - 1)) * ((1 << (b - 1)) - p)
        cycle, c = [], 1
        for n in range(q - 1):
            x = elems[c]
            x.log = n
            cycle.append(x)
            s = low_tab[c % low] + high_tab[c // low]
            c = unspread[s - (((s + bias) & flags) >> (b - 1)) * p]
        elems[0].log = 2 * q - 2
        self._exp = cycle * 2 + [elems[0]] * (2 * q)
        self._half = 0 if p == 2 else (q - 1) // 2
        self._zech = [elems[x.code + 1 - p * (x.code % p == p - 1)].log for x in cycle] * 2

    def _digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.k):
            code, c = divmod(code, self.p)
            out.append(c)
        return out

    def _code(self, digits) -> int:
        code = 0
        for c in reversed(digits):
            code = code * self.p + c % self.p
        return code

    def __eq__(self, other):
        return other is self or (
            isinstance(other, GF)
            and other.p == self.p
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("GF", self.p, self.k, tuple(self.modulus)))

    def zero(self) -> GFElem:
        return self._make(0)

    def one(self) -> GFElem:
        return self._make(1)

    def generator(self) -> GFElem:
        """The class of t (for k = 1 this is just 1)."""
        return self._make(self.p if self.k > 1 else 1)

    def coerce(self, x) -> GFElem:
        if isinstance(x, GFElem):
            if x.field is not self and x.field != self:
                raise ValueError("element of a different field")
            return x
        if isinstance(x, int):
            return self._make(x % self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by p")
            return self.coerce(x.numerator) / self.coerce(x.denominator)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def inv(self, c: GFElem) -> GFElem:
        return self.coerce(c).inverse()

    def frobenius(self, c: GFElem) -> GFElem:
        return self.coerce(c) ** self.p

    def pth_root(self, c: GFElem) -> GFElem:
        """The unique p-th root; inverse of Frobenius, so c**(p^(k-1)).
        Over GF(p) every element is its own p-th root."""
        c = self.coerce(c)
        return c if self.k == 1 else c ** (self.p ** (self.k - 1))

    def elements(self):
        """All elements, in the order of their codes."""
        return map(self._make, range(self.order))

    def random(self, rng) -> GFElem:
        return self._make(self._code([rng.randrange(self.p) for _ in range(self.k)]))

    def random_nonzero(self, rng) -> GFElem:
        while True:
            c = self.random(rng)
            if c:
                return c

    def descriptor(self) -> str:
        if self.k == 1:
            return f"Fp:{self.p}"
        return f"Fq:{self.p}^{self.k}:{format_up(self.modulus, 't')}"

    def __repr__(self):
        return self.descriptor()


# ---------------------------------------------------------------------------
# Z and Q


class _ZZ:
    is_field = False
    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        raise TypeError(f"cannot coerce {x!r} into Z")

    def random(self, rng):
        return rng.randint(-9, 9)

    def descriptor(self):
        return "Z"

    def __repr__(self):
        return "Z"


class _QQ:
    is_field = True
    characteristic = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def inv(self, c):
        return 1 / Fraction(c)

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def descriptor(self):
        return "Q"

    def __repr__(self):
        return "Q"


ZZ = _ZZ()
QQ = _QQ()


# ---------------------------------------------------------------------------
# monogenic number rings Z[a]/(f)


class NRElem:
    """An element of Z[a]/(f), stored by its coefficient tuple in a."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "NumberRing", coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    def _co(self, other):
        if isinstance(other, NRElem):
            if other.ring != self.ring:
                raise ValueError("elements of different number rings")
            return other
        if isinstance(other, int):
            return self.ring.coerce(other)
        return NotImplemented

    def __add__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        return NRElem(self.ring, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return NRElem(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.ring.degree
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                prod[i + j] += a * b
        # reduce modulo the monic minimal polynomial
        f = self.ring.minpoly
        for i in range(len(prod) - 1, d - 1, -1):
            c = prod[i]
            if c == 0:
                continue
            prod[i] = 0
            for j in range(d):
                prod[i - d + j] -= c * f[j]
        return NRElem(self.ring, prod[:d])

    __rmul__ = __mul__

    def __mod__(self, m: int):
        """The element with every coefficient reduced mod the integer m."""
        return NRElem(self.ring, [c % m for c in self.coeffs])

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined in a ring")
        return _power(self, e, self.ring.one())

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.coerce(other)
        return (
            isinstance(other, NRElem)
            and other.ring == self.ring
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((tuple(self.ring.minpoly), self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return format_up(self.coeffs, "a")


class NumberRing:
    """Z[a]/(f) for a monic integer polynomial f."""

    is_field = False
    characteristic = 0

    def __init__(self, minpoly):
        minpoly = list(minpoly)
        if len(minpoly) < 2 or minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic of degree >= 1")
        self.minpoly = minpoly[:-1]  # non-leading coefficients, little-endian
        self.full_minpoly = minpoly
        self.degree = len(minpoly) - 1

    def __eq__(self, other):
        return isinstance(other, NumberRing) and other.full_minpoly == self.full_minpoly

    def __hash__(self):
        return hash(("NR", tuple(self.full_minpoly)))

    def zero(self):
        return NRElem(self, (0,) * self.degree)

    def one(self):
        return NRElem(self, (1,) + (0,) * (self.degree - 1))

    def generator(self) -> NRElem:
        if self.degree == 1:
            return NRElem(self, (-self.minpoly[0],))
        return NRElem(self, (0, 1) + (0,) * (self.degree - 2))

    def coerce(self, x):
        if isinstance(x, NRElem):
            if x.ring != self:
                raise ValueError("element of a different number ring")
            return x
        if isinstance(x, int):
            return NRElem(self, (x,) + (0,) * (self.degree - 1))
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def random(self, rng):
        return NRElem(self, [rng.randint(-5, 5) for _ in range(self.degree)])

    def descriptor(self) -> str:
        return "NR:" + format_up(self.full_minpoly, "a")

    def __repr__(self):
        return self.descriptor()


# ---------------------------------------------------------------------------
# reduction of number-ring coefficients modulo a prime


def factor_mod_p(coeffs, p: int) -> list[tuple[list[int], int]]:
    """Factor a univariate integer polynomial modulo p into monic irreducibles.

    Returns a list of (monic factor as little-endian coefficient list,
    multiplicity), sorted by (degree, coefficients).  The distinct-degree
    parts of f are split by ``_equal_degree``, and the multiplicity of each
    factor is the number of times it divides f.
    """
    f = up_trim([c % p for c in coeffs])
    if not f:
        raise ValueError("polynomial vanishes modulo p")
    f = up_scale(f, pow(f[-1], p - 2, p), p)
    factors = []
    for d, part in _distinct_degree(f, p):
        for g in _equal_degree(part, d, p):
            m, (q, r) = 0, up_divmod(f, g, p)
            while not r:
                m, f = m + 1, q
                q, r = up_divmod(f, g, p)
            factors.append((g, m))
    return sorted(factors, key=lambda gm: (len(gm[0]), gm[0]))


# ---------------------------------------------------------------------------
# descriptors


def format_up(coeffs, var: str) -> str:
    """Render a little-endian integer coefficient list as e.g. 't^2+1'."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            v = var if i == 1 else f"{var}^{i}"
            if c == 1:
                term = v
            elif c == -1:
                term = f"-{v}"
            else:
                term = f"{c}*{v}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for s in parts[1:]:
        out += s if s.startswith("-") else "+" + s
    return out

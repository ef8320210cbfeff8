"""F_p[x] reference: the dense univariate routines the reduce-once kernel
replaced.

Polynomials are little-endian coefficient lists.  These versions reduce
every coefficient mod p after each product, divide from the top by the
inverse of the leading coefficient at every step, and power right to left
by repeated squaring, reducing by the modulus as given; irreducibility is
Rabin's test.  The tests keep them to check ``pfol.rings`` against by
exact equality.  Each expects a trimmed divisor; one with a zero leading
entry never terminates.
"""

from pfol.rings import is_prime, up_sub


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def up_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def up_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _trim(a):
        if len(a) < len(b):
            break
        c = a[-1] * inv_lead % p
        k = len(a) - len(b)
        q[k] = c
        for i, bi in enumerate(b):
            a[i + k] = (a[i + k] - c * bi) % p
        _trim(a)
    return _trim(q), _trim(a)


def up_mod(a, b, p):
    return up_divmod(a, b, p)[1]


def up_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, up_mod(a, b, p)
    if a:
        c = pow(a[-1], p - 2, p)
        a = _trim([ai * c % p for ai in a])
    return a


def up_pow_mod(a, e, mod, p):
    result = [1]
    a = up_mod(a, mod, p)
    while e > 0:
        if e & 1:
            result = up_mod(up_mul(result, a, p), mod, p)
        a = up_mod(up_mul(a, a, p), mod, p)
        e >>= 1
    return result


def up_is_irreducible(g, p):
    """Rabin's test for a monic g of degree k: x^(p^k) = x mod g, and
    gcd(x^(p^(k/q)) - x, g) = 1 for every prime q dividing k."""
    k = len(g) - 1
    if k <= 0:
        return False
    if k == 1:
        return True
    x = [0, 1]
    h = x
    for _ in range(k):
        h = up_pow_mod(h, p, g, p)
    if _trim(up_sub(h, x, p)):
        return False
    for q in sorted({d for d in range(2, k + 1) if k % d == 0 and is_prime(d)}):
        h = x
        for _ in range(k // q):
            h = up_pow_mod(h, p, g, p)
        if len(up_gcd(up_sub(h, x, p), g, p)) > 1:
            return False
    return True

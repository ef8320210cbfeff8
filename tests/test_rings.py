import functools
import itertools
import random

from fractions import Fraction

import pytest

import up_reference
from pfol import rings
from pfol.exterior import affine_chart
from pfol.models import IntegralModel, prime_scan
from pfol.parsing import parse_descriptor, parse_document, parse_int_poly
from pfol.rings import (
    GF,
    TABLE_LIMIT,
    NumberRing,
    _distinct_degree,
    QQ,
    ZZ,
    canonical_irreducible,
    factor_mod_p,
    format_up,
    is_prime,
    primes_upto,
    up_divmod,
    up_gcd,
    up_is_irreducible,
    up_mod,
    up_mul,
    up_pow_mod,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the bases
    # 2, 3, 5 and 7: base 11 exposes it
    assert not is_prime(3215031751)


def test_primes_upto():
    assert primes_upto(13) == [2, 3, 5, 7, 11, 13]
    assert primes_upto(1) == []


def test_canonical_moduli():
    # smallest irreducible in the enumeration order, frozen
    assert canonical_irreducible(3, 2) == [1, 0, 1]  # t^2 + 1
    assert canonical_irreducible(5, 2) == [2, 0, 1]  # t^2 + 2
    assert canonical_irreducible(7, 2) == [1, 0, 1]
    for p, k in [(2, 3), (3, 3), (5, 2), (7, 2), (11, 2)]:
        g = canonical_irreducible(p, k)
        assert len(g) == k + 1 and g[-1] == 1
        assert up_is_irreducible(g, p)


def test_gf_prime_field_arithmetic():
    F = GF(7)
    rng = random.Random(0)
    for _ in range(200):
        a, b = F.random(rng), F.random(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == F.zero()
        if b:
            assert (a / b) * b == a
    assert F.coerce(10) == F.coerce(3)
    assert -F.one() == F.coerce(6)


def test_gf_extension_field():
    F = GF(3, 2)
    t = F.generator()
    assert t * t == F.coerce(-1)  # modulus t^2 + 1
    assert len(list(F.elements())) == 9
    rng = random.Random(1)
    for _ in range(50):
        a = F.random_nonzero(rng)
        assert a * a.inverse() == F.one()
        assert a**8 == F.one()  # multiplicative group order


def test_frobenius_and_pth_root():
    F = GF(5, 2)
    rng = random.Random(2)
    for _ in range(50):
        a = F.random(rng)
        assert F.pth_root(F.frobenius(a)) == a
        assert F.frobenius(F.pth_root(a)) == a
    # pth_root is additive and multiplicative
    a, b = F.generator(), F.coerce(3) + F.generator()
    assert F.pth_root(a * b) == F.pth_root(a) * F.pth_root(b)
    assert F.pth_root(a + b) == F.pth_root(a) + F.pth_root(b)


def test_factor_mod_p():
    # a^2 + 1 splits mod 5, stays irreducible mod 3
    fs = factor_mod_p([1, 0, 1], 5)
    assert [g for g, _ in fs] == [[2, 1], [3, 1]]
    fs = factor_mod_p([1, 0, 1], 3)
    assert fs == [([1, 0, 1], 1)]
    # ramification: a^2 + 1 = (a+1)^2 mod 2
    fs = factor_mod_p([1, 0, 1], 2)
    assert fs == [([1, 1], 2)]


def test_factor_product_reconstruction():
    p = 7
    rng = random.Random(3)
    for _ in range(10):
        f = [rng.randrange(p) for _ in range(4)] + [1]
        prod = [1]
        for g, m in factor_mod_p(f, p):
            for _ in range(m):
                prod = up_mul(prod, g, p)
        assert prod == [c % p for c in f]


@functools.cache
def monic_irreducibles(p, d):
    candidates = ([code // p**i % p for i in range(d)] + [1] for code in range(p**d))
    return [g for g in candidates if up_is_irreducible(g, p)]


def factor_by_trial_division(coeffs, p):
    """Monic irreducible factors mod p with multiplicities: every monic
    irreducible of degree up to half the degree is divided out as often as
    it divides, and what remains is irreducible."""
    f = [c % p for c in coeffs]
    while not f[-1]:
        f.pop()
    lead = pow(f[-1], p - 2, p)
    f = [c * lead % p for c in f]
    factors = []
    for d in range(1, (len(f) - 1) // 2 + 1):
        for cand in monic_irreducibles(p, d):
            m = 0
            while len(f) > d and not up_mod(f, cand, p):
                f = up_divmod(f, cand, p)[0]
                m += 1
            if m:
                factors.append((cand, m))
    if len(f) > 1:
        factors.append((f, 1))
    return sorted(factors, key=lambda gm: (len(gm[0]), gm[0]))


def test_factor_mod_p_matches_trial_division():
    # random polynomials of degree up to 6, and products g^2 h that have
    # repeated factors, over small primes
    rng = random.Random(5)
    cases = 0
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(12):
            deg = rng.randint(1, 6 if p < 11 else 4)
            f = [rng.randrange(-20, 21) for _ in range(deg)] + [rng.randrange(1, 4)]
            g = [rng.randrange(p) for _ in range(2)] + [1]
            h = [rng.randrange(p) for _ in range(2)] + [1]
            for coeffs in (f, up_mul(up_mul(g, g, p), h, p)):
                if not any(c % p for c in coeffs):
                    continue
                assert factor_mod_p(coeffs, p) == factor_by_trial_division(coeffs, p)
                cases += 1
    assert cases >= 130


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 2857])
def test_up_kernel_matches_the_reference(p):
    # dividends with trailing zero coefficients, divisors that are constant
    # or not monic, and the powers e = 0, 1, p and random ones of a zero
    # base, the base x (also with trailing zeros) and bases of higher degree
    # than the modulus
    rng = random.Random(p)

    def poly(length, trailing=0):
        return [rng.randrange(p) for _ in range(length)] + [0] * trailing

    moduli = [[0, 0, 1], [0, 0, 0, p - 1], [rng.randrange(1, p)]]
    for i in range(60):
        a = poly(rng.randrange(9), rng.randrange(3))
        b = poly(rng.randrange(6)) + [rng.randrange(1, p)]
        assert up_mul(a, b, p) == up_reference.up_mul(a, b, p)
        assert up_mul(b, a, p) == up_reference.up_mul(b, a, p)
        assert up_divmod(a, b, p) == up_reference.up_divmod(a, b, p)
        assert up_gcd(a, b, p) == up_reference.up_gcd(a, b, p)
        high = poly(len(b) + rng.randrange(3), 1) + [rng.randrange(1, p)]
        for m in (b, moduli[i % 3]):
            for base in (a, [], [0, 1], [0, 1, 0], high):
                for e in (0, 1, 2, p, rng.randrange(3, 300), rng.randrange(10**6)):
                    got = up_pow_mod(base, e, m, p)
                    assert got == up_reference.up_pow_mod(base, e, m, p)
        assert up_pow_mod(a, 0, b, p) == [1]


@pytest.mark.parametrize("p, kmax", [(2, 7), (3, 5), (5, 4), (7, 3), (13, 2)])
def test_irreducibility_matches_rabins_test(p, kmax):
    for k in range(kmax + 1):
        for low in itertools.product(range(p), repeat=k):
            g = [*low, 1]
            assert up_is_irreducible(g, p) == up_reference.up_is_irreducible(g, p)


def test_factor_mod_p_splits_x4_plus_1_into_two_quadratics():
    # x^4 + 1 has no root mod 1031 and 1427 (neither is 1 mod 8), and
    # splits into two quadratics there
    assert factor_mod_p([1, 0, 0, 0, 1], 1031) == [([1, 473, 1], 1), ([1, 558, 1], 1)]
    assert factor_mod_p([1, 0, 0, 0, 1], 1427) == [
        ([1426, 217, 1], 1), ([1426, 1210, 1], 1)
    ]
    for p in (1031, 1427):
        (g, _), (h, _) = factor_mod_p([1, 0, 0, 0, 1], p)
        assert up_mul(g, h, p) == [1, 0, 0, 0, 1]


@pytest.mark.parametrize("p, dmax", [(2, 8), (3, 4), (5, 4), (7, 4)])
def test_factor_mod_p_matches_trial_division_on_every_small_polynomial(p, dmax):
    # every monic polynomial of degree <= dmax; over F_2 up to degree 8 this
    # splits products of equal-degree factors with d >= 2 by traces
    for deg in range(dmax + 1):
        for low in itertools.product(range(p), repeat=deg):
            f = [*low, 1]
            assert factor_mod_p(f, p) == factor_by_trial_division(f, p)


def assert_factorization(f, factors, p):
    """The factors are distinct monic irreducibles whose product, with
    multiplicities, is f made monic."""
    prod = [1]
    for g, m in factors:
        assert g[-1] == 1 and up_reference.up_is_irreducible(g, p)
        for _ in range(m):
            prod = up_mul(prod, g, p)
    assert len({tuple(g) for g, _ in factors}) == len(factors)
    lead = pow(f[-1] % p, p - 2, p)
    assert prod == [c * lead % p for c in f]


def test_factor_mod_p_of_products_with_a_pth_power():
    # g^p h: the derivative of g^p vanishes, and each factor of g has
    # multiplicity at least p
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        for _ in range(6):
            g = [rng.randrange(p) for _ in range(rng.randint(1, 2))] + [1]
            h = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
            f = h
            for _ in range(p):
                f = up_mul(f, g, p)
            factors = factor_mod_p(f, p)
            assert_factorization(f, factors, p)
            mults = dict((tuple(q), m) for q, m in factors)
            for q, _ in factor_mod_p(g, p):
                assert mults[tuple(q)] >= p


def test_factor_mod_p_at_large_primes():
    # seeded polynomials of degree <= 8, some with a squared factor, for
    # primes up to 10^5
    rng = random.Random(13)
    primes = [q for q in primes_upto(10**5) if q > 1000]
    for i in range(40):
        p = rng.choice(primes)
        if i % 3:
            f = [rng.randrange(p) for _ in range(rng.randint(1, 8))] + [rng.randrange(1, p)]
        else:
            g = [rng.randrange(p) for _ in range(rng.randint(1, 2))] + [1]
            h = [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [1]
            f = up_mul(up_mul(g, g, p), h, p)
        assert_factorization(f, factor_mod_p(f, p), p)


def test_distinct_degree_of_input_that_is_not_squarefree():
    # each part is the product of the distinct irreducible factors of its
    # degree, whatever their multiplicity, and the rest is irreducible
    rng = random.Random(17)
    for p in (2, 3, 5):
        for _ in range(20):
            g = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
            h = [rng.randrange(p) for _ in range(rng.randint(0, 3))] + [1]
            f = up_mul(up_mul(g, g, p), h, p)
            expected = {}
            for q, _ in factor_by_trial_division(f, p):
                d = len(q) - 1
                expected[d] = up_mul(expected.get(d, [1]), q, p)
            assert dict(_distinct_degree(f, p)) == expected


def test_number_ring():
    R = NumberRing([1, 0, 1])  # Z[a]/(a^2+1)
    a = R.generator()
    assert a * a == R.coerce(-1)
    assert (a + 1) * (a - 1) == R.coerce(-2)
    assert [repr(x) for x in (R.zero(), a, -a + 3, 2 * a - 1, a * a * a)] == [
        "0", "a", "-a+3", "2*a-1", "-a"]
    b = NumberRing([1, 0, 0, 1]).generator()
    assert repr(3 * b * b - b + 1) == "3*a^2-a+1"


def test_powers_match_repeated_products():
    p = 5
    F = GF(p, 2)
    rng = random.Random(3)
    R = NumberRing([1, 0, 1])
    cases = [(a, F.one()) for a in (F.generator(), F.random_nonzero(rng), F.zero())]
    cases.append((R.generator() + 2, R.one()))
    for a, acc in cases:
        for e in range(2 * p + 1):
            assert a**e == acc
            acc = acc * a


def test_format_parse_roundtrip():
    for coeffs in [[1, 0, 1], [2, 1], [0, 0, 3], [5], [1, 2, 3, 4]]:
        assert parse_int_poly(format_up(coeffs, "t"), "t") == coeffs
    assert parse_int_poly("t^2+1", "t") == [1, 0, 1]
    assert parse_int_poly("-t + 2", "t") == [2, -1]


def test_parse_descriptor():
    assert parse_descriptor("Z") is ZZ
    assert parse_descriptor("Q") is QQ
    F = parse_descriptor("Fp:5")
    assert isinstance(F, GF) and F.p == 5 and F.k == 1
    F = parse_descriptor("Fq:3^2:t^2+1")
    assert isinstance(F, GF) and F.order == 9
    R = parse_descriptor("NR:a^2+1")
    assert isinstance(R, NumberRing)
    # the polynomials are expressions: (a + 1)^2 + 1 = a^2 + 2a + 2
    assert parse_descriptor("NR:(a+1)^2+1") == NumberRing([2, 2, 1])
    assert parse_descriptor("Fq:3^2:t**2 + 1") == parse_descriptor("Fq:3^2:t^2+1")
    with pytest.raises(ValueError):
        parse_descriptor("Fp:4")


def test_descriptor_roundtrip():
    for text in ["Fp:5", "Fq:3^2:t^2+1", "Z", "Q"]:
        ring = parse_descriptor(text)
        assert parse_descriptor(ring.descriptor()) == ring


# ---------------------------------------------------------------------------
# table-driven GF(q) against the F_p[t] route it replaces


def code_digits(x):
    """The digits c_0, ..., c_{k-1} of an element's code."""
    F = x.field
    return [x.code // F.p**i % F.p for i in range(F.k)]


def ref_mul(F, a, b):
    prod = up_mod(up_mul(a, b, F.p), F.modulus, F.p)
    return prod + [0] * (F.k - len(prod))


def ref_pow(F, a, e):
    result = [1] + [0] * (F.k - 1)
    while e:
        if e & 1:
            result = ref_mul(F, result, a)
        a = ref_mul(F, a, a)
        e >>= 1
    return result


def ref_repr(F, a):
    """The element printer of the coefficient-tuple representation."""
    if F.k == 1:
        return str(a[0])
    parts = []
    for i in range(F.k - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            t = "t" if i == 1 else f"t^{i}"
            parts.append(t if c == 1 else f"{c}*{t}")
    return "+".join(parts) if parts else "0"


def check_against_reference(F, elems, pairs):
    p, q = F.p, F.order
    # a field within the limit returns its interned elements
    by_code = list(F.elements()) if q <= TABLE_LIMIT else None
    ref_inv = {}
    for a in elems:
        da = code_digits(a)
        assert repr(a) == ref_repr(F, da)
        assert code_digits(-a) == [(-c) % p for c in da]
        assert code_digits(F.frobenius(a)) == ref_pow(F, da, p)
        assert code_digits(F.pth_root(a)) == ref_pow(F, da, p ** (F.k - 1))
        for e in (0, 1, 2, 3, p, q - 2, q - 1, q, 2 * q + 5):
            assert code_digits(a**e) == ref_pow(F, da, e)
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            with pytest.raises(ZeroDivisionError):
                a ** -1
            continue
        inv = ref_pow(F, da, q - 2)
        assert ref_mul(F, da, inv) == [1] + [0] * (F.k - 1)
        ref_inv[a.code] = inv
        assert code_digits(a.inverse()) == inv
        for e in (1, 2, 3, q):
            assert code_digits(a**-e) == ref_pow(F, inv, e)
    for a, b in pairs:
        da, db = code_digits(a), code_digits(b)
        results = [
            (a + b, [(x + y) % p for x, y in zip(da, db)]),
            (a - b, [(x - y) % p for x, y in zip(da, db)]),
            (a * b, ref_mul(F, da, db)),
        ]
        if b:
            binv = ref_inv.get(b.code) or ref_pow(F, db, q - 2)
            results.append((a / b, ref_mul(F, da, binv)))
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        for got, want in results:
            assert code_digits(got) == want
            if by_code is not None:
                assert got is by_code[got.code]


SMALL_FIELDS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (5, 1)]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_table_arithmetic_matches_reference_on_all_pairs(p, k):
    F = GF(p, k)
    elems = list(F.elements())
    check_against_reference(F, elems, [(a, b) for a in elems for b in elems])


@pytest.mark.parametrize("p,k", [(251, 2), (257, 2), (65537, 1)])
def test_arithmetic_matches_reference_at_and_above_the_table_limit(p, k):
    F = GF(p, k)
    # only a field within the limit interns its elements
    assert (F.order <= TABLE_LIMIT) == (p == 251) == (F.one() is F.one())
    rng = random.Random(p)
    elems = [F.random(rng) for _ in range(30)] + [F.zero(), F.one(), F.generator()]
    pairs = [(F.random(rng), F.random(rng)) for _ in range(300)]
    pairs += [(a, F.zero()) for a in elems[:3]] + [(F.zero(), a) for a in elems[:3]]
    check_against_reference(F, elems, pairs)


@pytest.mark.parametrize("p,k", SMALL_FIELDS + [(257, 2)])
def test_element_order_and_random_draws_unchanged(p, k):
    F = GF(p, k)
    q = min(F.order, 700)
    for code, x in zip(range(q), F.elements()):
        digits = [code // p**i % p for i in range(k)]
        assert code_digits(x) == digits
        assert repr(x) == ref_repr(F, digits)
    rng, ref_rng = random.Random(7), random.Random(7)
    for _ in range(100):
        x = F.random(rng)
        assert code_digits(x) == [ref_rng.randrange(p) for _ in range(k)]
    assert code_digits(F.generator()) == ([0, 1] + [0] * (k - 2) if k > 1 else [1])


@pytest.fixture
def empty_table(monkeypatch):
    """GF's table of fields, empty for one test and restored after it."""
    monkeypatch.setattr(rings, "_FIELDS", {})
    monkeypatch.setattr(rings, "_held", 0)


@pytest.mark.parametrize("p,k", [(3, 2), (2, 4), (7, 1), (257, 2)])
def test_equal_elements_hash_equal_and_compare_with_ints(empty_table, p, k):
    # equal fields, built twice: a first call keeps no field
    F, G = GF(p, k), GF(p, k)
    assert G is not F
    rng, other_rng = random.Random(11), random.Random(11)
    for _ in range(50):
        x, y = F.random(rng), G.random(other_rng)
        assert x == y and hash(x) == hash(y)
        assert x - y == 0 and y * x == x * x
        assert x * 1 == x and hash(x * 1) == hash(x)
    for n in range(-2 * p, 2 * p):
        assert F.coerce(n) == n and F.coerce(n) == n + p
        assert hash(F.coerce(n)) == hash(G.coerce(n))
        assert (F.coerce(n) == n + 1) is False
    assert (F.one() == "1") is False


def test_mixing_fields_raises():
    for F, G in [(GF(3, 2), GF(5, 2)), (GF(3), GF(3, 2)), (GF(3, 2), GF(3, 2, [2, 2, 1])),
                 (GF(257, 2), GF(3))]:
        a, b = F.generator(), G.one()
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            with pytest.raises(ValueError):
                getattr(a, op)(b)
        with pytest.raises(ValueError):
            F.coerce(b)
        assert a != b


def test_modulus_needs_an_extension_degree():
    with pytest.raises(ValueError, match="Fp:5"):
        GF(5, 1, [2, 1])
    with pytest.raises(ValueError, match="Fp:5"):
        parse_descriptor("Fq:5^1:t+2")
    assert parse_descriptor("Fq:5^1") == GF(5)
    assert parse_descriptor("Fq:5^1").generator() == 1


def held_elements() -> int:
    """The weight of GF's table, the quantity its bound limits, counted
    afresh; it must equal the running total the table keeps."""
    held = sum(F.order if F is not None and F.order <= TABLE_LIMIT else 1
               for F in rings._FIELDS.values())
    assert held == rings._held
    return held


def test_fields_are_shared_from_the_second_call_on(empty_table, monkeypatch):
    builds = []
    build = GF.__init__
    monkeypatch.setattr(GF, "__init__", lambda F, *args: builds.append(args) or build(F, *args))
    first = GF(5)
    assert GF(5) is not first
    assert GF(5) is GF(5) is GF(5, 1) is GF(5, 1, None)
    GF(3, 2), GF(3, 2, [1, 0, 1])
    assert GF(3, 2) is GF(3, 2) and GF(3, 2, [1, 0, 1]) is GF(3, 2, (1, 0, 1))
    for text in ("Fp:7", "Fq:7^2", "Fq:7^2:t^2+1", "Fq:7^1"):
        parse_descriptor(text)
        assert parse_descriptor(text) is parse_descriptor(text)
    assert parse_descriptor("Fp:7") is GF(7)
    # GF(5, 1) and GF(5, 1, None) share the key of GF(5); "Fq:7^1" that of "Fp:7"
    assert builds == [(5, 1, None)] * 2 + [(3, 2, None), (3, 2, [1, 0, 1])] * 2 + [
        (7, 1, None)] * 2 + [(7, 2, None)] * 2 + [(7, 2, [1, 0, 1])] * 2
    assert held_elements() == 5 + 9 + 9 + 7 + 49 + 49


def test_refused_fields_raise_on_every_call_and_are_not_kept(empty_table):
    for args, message in [((4,), "4 is not prime"), ((3, 2, [2, 0, 1]), "reducible"),
                          ((5, 1, [2, 1]), "Fp:5"), ((3, 0), "positive")]:
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                GF(*args)
    assert rings._FIELDS == {} and held_elements() == 0


def test_least_recently_used_fields_are_evicted_and_their_elements_mix(empty_table):
    GF(7), GF(251, 2)
    small, F = GF(7), GF(251, 2)
    assert held_elements() == 7 + 251**2
    GF(7)  # used again: now more recent than GF(251^2)
    GF(241, 2)
    G = GF(241, 2)  # 251^2 + 241^2 > TABLE_LIMIT: GF(251^2) goes, GF(7) stays
    assert held_elements() <= TABLE_LIMIT
    assert GF(7) is small and GF(241, 2) is G
    assert (251, 2, None) not in rings._FIELDS
    rng = random.Random(3)
    old = [F.random(rng) for _ in range(20)] + [F.zero(), F.one()]
    F2 = GF(251, 2)
    assert F2 is not F and F2 == F and hash(F2) == hash(F)
    assert rings._FIELDS[(251, 2, None)] is None  # only noted: asked for once since
    assert held_elements() <= TABLE_LIMIT
    rng = random.Random(3)
    new = [F2.random(rng) for _ in range(20)] + [F2.zero(), F2.one()]
    for x, y in zip(old, new):
        assert x == y and hash(x) == hash(y) and F2.coerce(x) == y
        for a, b in [(x, y), (y, x)]:
            assert a + F2.generator() == b + F.generator()
            assert a * F2.generator() == y * F2.generator()
            assert (a - b) == 0 and (a * b) == y * y
            if b:
                assert a / b == 1


def test_keys_alone_are_bounded_too(empty_table, monkeypatch):
    # each key weighs 1, so asking for more fields than TABLE_LIMIT, each
    # once, drops the oldest keys
    monkeypatch.setattr(rings, "TABLE_LIMIT", 40)
    primes = [p for p in range(2, 1000) if rings.is_prime(p)][:50]
    for p in primes:
        GF(p)
    assert held_elements() == 40
    assert list(rings._FIELDS) == [(p, 1, None) for p in primes[10:]]


def test_a_cold_scan_keeps_no_extension_field_and_a_second_stays_bounded(empty_table):
    # the residue fields of Z[i] are GF(p^2) for p = 3 mod 4: up to 260
    # they hold far more than TABLE_LIMIT elements together
    doc = parse_document("field NR:a^2+1\nambient affine 3\nvars x y z\n"
                         "model omega = 2*a*y*z*dx + 2*x*z*dy + 1*x*y*dz\n")
    model = IntegralModel(doc.the_form())
    rows = prime_scan(model, 260)
    assert sum(p * p for p in {r.p for r in rows if r.k == 2}) > TABLE_LIMIT
    # one scan asks for each GF(p^2) once and for GF(p), p = 1 mod 4, twice
    kept = {key for key, F in rings._FIELDS.items() if F is not None}
    assert kept == {(r.p, 1, None) for r in rows if r.p % 4 == 1}
    assert held_elements() <= TABLE_LIMIT
    # a second scan keeps the GF(p^2) it asks for again, as many as fit
    assert [str(r) for r in prime_scan(model, 260)] == [str(r) for r in rows]
    assert held_elements() <= TABLE_LIMIT
    assert (127, 2, (1, 0, 1)) in {key for key, F in rings._FIELDS.items() if F is not None}


# ---------------------------------------------------------------------------
# elements meet ints and polynomials on either side of an operator


@pytest.mark.parametrize("field", [GF(5), GF(3, 2)], ids=["GF5", "GF9"])
def test_field_elements_mix_with_ints_and_polynomials(field):
    chart = affine_chart(field, 2)
    x, _ = chart.vars()
    dx = chart.dx(0)
    c = field.generator() + 1
    assert c * x == x * c == x.scale(c)
    assert c + x == x + c
    assert c - x == -(x - c)
    assert 3 - c == field.coerce(3) - c
    assert 1 / c == c.inverse() == field.one() / c
    assert x * dx == dx * x


def test_number_ring_elements_mix_with_ints_and_polynomials():
    R = NumberRing([1, 0, 1])
    chart = affine_chart(R, 2)
    X, _ = chart.vars()
    a = R.generator()
    assert a * X == X * a == X.scale(a)
    assert a - X == -(X - a)
    assert 3 - a == R.coerce(3) - a
    assert -1 == a * a and 3 != a
    assert hash(R.generator()) == hash(a)
    assert hash(NumberRing([1, 0, 1])) == hash(R)
    assert X * chart.dx(0) == chart.dx(0) * X
    # Z[a]/(a - 3) is Z, with a = 3
    assert NumberRing([-3, 1]).generator() == 3


R2 = NumberRing([1, 0, 1])

RING_GUARDS = [
    (lambda: up_divmod([1, 1], [], 5), ZeroDivisionError, "univariate division by zero"),
    (lambda: GF(5, 2, [2, 0, 2]), ValueError, "modulus must be monic of degree k"),
    (lambda: GF(5).coerce(Fraction(1, 5)), ZeroDivisionError, "denominator divisible by p"),
    (lambda: ZZ.coerce(Fraction(1, 2)), TypeError, "cannot coerce Fraction(1, 2) into Z"),
    (lambda: QQ.coerce(0.5), TypeError, "cannot coerce 0.5 into Q"),
    (lambda: R2.generator() + NumberRing([2, 0, 1]).generator(), ValueError,
     "elements of different number rings"),
    (lambda: R2.generator() ** -1, ValueError, "negative powers are not defined in a ring"),
    (lambda: NumberRing([1, 2]), ValueError, "minimal polynomial must be monic of degree >= 1"),
    (lambda: R2.coerce(NumberRing([2, 0, 1]).one()), ValueError,
     "element of a different number ring"),
    (lambda: factor_mod_p([5, 10], 5), ValueError, "polynomial vanishes modulo p"),
]


@pytest.mark.parametrize(
    "call, error, message", [pytest.param(*guard, id=guard[2]) for guard in RING_GUARDS]
)
def test_ring_guards_refuse_with_their_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message

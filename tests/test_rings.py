import random

import pytest

from pfol.rings import (
    GF,
    NumberRing,
    QQ,
    ZZ,
    canonical_irreducible,
    factor_mod_p,
    format_up,
    is_prime,
    parse_descriptor,
    parse_up,
    primes_upto,
    up_is_irreducible,
    up_mul,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


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


def test_number_ring():
    R = NumberRing([1, 0, 1])  # Z[a]/(a^2+1)
    a = R.generator()
    assert a * a == R.coerce(-1)
    assert (a + 1) * (a - 1) == R.coerce(-2)


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
        assert parse_up(format_up(coeffs, "t"), "t") == coeffs
    assert parse_up("t^2+1", "t") == [1, 0, 1]
    assert parse_up("-t + 2", "t") == [2, -1]


def test_parse_descriptor():
    assert parse_descriptor("Z") is ZZ
    assert parse_descriptor("Q") is QQ
    F = parse_descriptor("Fp:5")
    assert isinstance(F, GF) and F.p == 5 and F.k == 1
    F = parse_descriptor("Fq:3^2:t^2+1")
    assert isinstance(F, GF) and F.order == 9
    R = parse_descriptor("NR:a^2+1")
    assert isinstance(R, NumberRing)
    with pytest.raises(ValueError):
        parse_descriptor("Fp:4")


def test_descriptor_roundtrip():
    for text in ["Fp:5", "Fq:3^2:t^2+1", "Z", "Q"]:
        ring = parse_descriptor(text)
        assert parse_descriptor(ring.descriptor()) == ring

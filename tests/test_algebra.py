import itertools
import random

import numpy as np
import pytest

from oaqec.algebra import (
    Field,
    _poly_mod,
    factorize_prime_powers,
    field_create,
    is_prime_power,
    prime_power_decomposition,
)
from oaqec.errors import NotPrimePower

from conftest import (field_add, field_inv, field_neg, naive_field_axiom_failure, naive_pow,
                      poly_eval, poly_mul)


def test_prime_field_is_mod_arithmetic():
    f = field_create(5)
    assert f.mul_table[3, 4] == 2
    assert f.add_table[3, 4] == 2


def test_gf4_tables_pinned():
    # reduction polynomial x^2 + x + 1; x * x = x + 1
    f = field_create(4)
    assert f.poly == (1, 1, 1)
    assert f.mul_table[2, 2] == 3
    assert f.mul_table[2, 3] == 1  # x * (x+1) = x^2 + x = 1
    assert f.add_table[1, 1] == 0
    assert f.add_table[2, 3] == 1


def test_gf8_tables_pinned():
    # reduction polynomial x^3 + x + 1; x * x^2 = x + 1
    f = field_create(8)
    assert f.poly == (1, 1, 0, 1)
    assert f.mul_table[2, 4] == 3


def test_gf9_pinned():
    # smallest irreducible is x^2 + 1
    f = field_create(9)
    assert f.poly == (1, 0, 1)
    assert f.mul_table[3, 3] == 2  # x * x = -1


def test_not_prime_power():
    for q in (0, 1, 6, 10, 12, 100):
        with pytest.raises(NotPrimePower):
            field_create(q)


def test_field_create_deterministic():
    a = Field(2, 3)
    b = Field(2, 3)
    assert a.poly == b.poly
    assert (a.mul_table == b.mul_table).all()


def _scalar_products(f):
    """Every product a * b by the scalar polynomial helpers, as nested lists."""
    p, k = f.p, f.k
    digits = [tuple((e // p**i) % p for i in range(k)) for e in range(f.q)]

    def index(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    return [[index(_poly_mod(poly_mul(a, b, p), f.poly, p)) for b in digits]
            for a in digits]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49, 64, 81, 125, 128, 256])
def test_mul_table_matches_the_scalar_polynomial_product(q):
    assert field_create(q).mul_table.tolist() == _scalar_products(field_create(q))


@pytest.mark.parametrize("q", [7, 9, 128, 256])
def test_inv_and_pow_read_the_multiplication_table(q):
    f = field_create(q)
    for a in range(1, q):
        assert f.mul_table[a, field_inv(f, a)] == 1
        assert naive_pow(f, a, q - 1) == 1 and naive_pow(f, a, 1) == a


@pytest.mark.parametrize("m", range(1, 13))
def test_add_table_is_xor_in_characteristic_two(m):
    q = 2**m
    table = field_create(q).add_table
    e = np.arange(q)
    assert table.dtype == (np.uint8 if q <= 256 else np.uint16)
    assert np.array_equal(table, e[:, None] ^ e[None, :])


@pytest.mark.parametrize("q", [3**7, 5**5, 4093])
def test_add_table_matches_scalar_add_on_sampled_pairs(q):
    f = field_create(q)
    rng = random.Random(q)
    for _ in range(5000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.add_table[a, b] == field_add(f, a, b)
    assert f.add_table.dtype == np.uint16


@pytest.mark.parametrize("q", [127, 243, 251])
def test_add_table_digit_sums_that_wrap_the_dtype(q):
    # digit sums of GF(251) reach 500, past the uint8 range of its table
    f = field_create(q)
    assert f.add_table.dtype == np.uint8
    assert f.add_table.tolist() == [[field_add(f, a, b) for b in range(q)] for a in range(q)]


def _inverses(q):
    """Each element's inverse (0 for 0)."""
    f = field_create(q)
    return [field_inv(f, a) if a else 0 for a in range(q)]


@pytest.mark.parametrize("q", [q for q in range(2, 65) if is_prime_power(q)])
def test_every_field_up_to_order_64_satisfies_the_axioms(q):
    # fields check nothing when they are created; this is the check, on
    # every element, pair and triple of each field of order q <= 64
    f = field_create(q)
    assert f.add_table.tolist() == [[field_add(f, a, b) for b in range(q)] for a in range(q)]
    assert naive_field_axiom_failure(f.add_table.tolist(), f.mul_table.tolist(),
                                     [field_neg(f, a) for a in range(q)], _inverses(q)) is None


def test_axiom_oracle_sees_a_failing_triple():
    # in GF(4), x^2 = x + 1 and (x + 1)^2 = x; swapping the two squares keeps
    # the table symmetric with identities and inverses intact, so only a
    # triple law can fail
    f = field_create(4)
    table = f.mul_table.copy()
    table[2, 2], table[3, 3] = table[3, 3], table[2, 2]
    assert naive_field_axiom_failure(f.add_table.tolist(), table.tolist(),
                                     [field_neg(f, a) for a in range(4)], _inverses(4)) == (
        "distributivity or associativity fails at (2, 1, 2)")


def test_poly_eval():
    f3 = field_create(3)
    assert poly_eval(f3, (1, 2), 2) == 2  # 1 + 2*2 = 5 = 2 mod 3
    f2 = field_create(2)
    assert poly_eval(f2, (1, 1, 1), 1) == 1
    f4 = field_create(4)
    assert poly_eval(f4, (0, 0, 1), 2) == f4.mul_table[2, 2] == 3
    with pytest.raises(ValueError):
        poly_eval(f3, (), 1)


def test_factorize_examples():
    assert factorize_prime_powers(56) == [8, 7]
    assert factorize_prime_powers(12) == [4, 3]
    assert factorize_prime_powers(7) == [7]
    assert factorize_prime_powers(360) == [8, 9, 5]


def test_factorize_range():
    for s in range(2, 10001):
        factors = factorize_prime_powers(s)
        prod = 1
        for f in factors:
            prod *= f
        assert prod == s
        for a, b in itertools.combinations(factors, 2):
            import math
            assert math.gcd(a, b) == 1
        for f in factors:
            assert is_prime_power(f)


def test_decomposition_sorted_by_prime():
    assert prime_power_decomposition(360) == [(2, 3), (3, 2), (5, 1)]

"""Finite-field arithmetic.

Moduli and product values were independently derived by
tools/oracle_fields.py (trial-division irreducibility, hand polynomial
products).
"""

import importlib.util
import re
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

import quiverfold as qf
from quiverfold import gf
from quiverfold.errors import BudgetExceeded, DegreeTooLarge, NotPrime, NotSubfield
from quiverfold.gf import _prime_factors, prime_power


def test_prime_field():
    f = qf.make_field(5)
    assert f.spec == "5"
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.neg(2) == 3
    assert f.sub(1, 3) == 3
    assert list(f.elements()) == [0, 1, 2, 3, 4]


def test_canonical_moduli():
    # tail coefficients (constant term first) of the canonical monic modulus
    assert qf.make_field(2, 2).modulus == (1, 1)
    assert qf.make_field(2, 3).modulus == (1, 0, 1)
    assert qf.make_field(3, 2).modulus == (1, 0)
    assert qf.make_field(5, 2).modulus == (1, 1)
    assert qf.make_field(2, 4).modulus == (1, 0, 0, 1)
    assert qf.make_field(2, 12).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0)
    assert qf.make_field(3, 12).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)
    assert qf.make_field(5, 12).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 4)
    assert qf.make_field(7, 12).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3)
    assert qf.make_field(13, 12).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1)


def _load_oracle():
    path = Path(__file__).resolve().parent.parent / "tools" / "oracle_fields.py"
    spec = importlib.util.spec_from_file_location("oracle_fields", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_rabin_test_matches_trial_division():
    oracle = _load_oracle()
    for p, top in ((2, 8), (3, 4), (5, 3)):
        for m in range(2, top + 1):
            for low in product(range(p), repeat=m):
                assert gf._is_irreducible(low, p) == oracle.is_irreducible([*low, 1], p), (p, low)


def test_products_match_oracle():
    oracle = _load_oracle()
    for p, m in ((2, 2), (2, 4), (3, 2), (3, 4), (5, 2)):
        f = qf.make_field(p, m)
        modulus = oracle.least_irreducible(p, m)
        assert [*f.modulus, 1] == modulus
        for a in range(f.q):
            for b in range(f.q):
                assert f.mul(a, b) == oracle.mul_packed(a, b, p, modulus), (p, m, a, b)


def test_modulus_search_skips_multiples_of_x(monkeypatch):
    # x divides every candidate with a zero constant term; testing them all
    # took 177,176 irreducibility tests for GF(3^12)
    calls = []
    rabin = gf._is_irreducible

    def counted(low, p):
        calls.append(low)
        return rabin(low, p)

    monkeypatch.setattr(gf, "_is_irreducible", counted)
    assert gf._smallest_irreducible(3, 12) == (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)
    assert len(calls) <= 29


def test_gf4_products():
    f4 = qf.make_field(2, 2)
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.mul(3, 3) == 2
    assert f4.add(2, 3) == 1
    assert f4.inv(2) == 3


def test_gf9_products():
    f9 = qf.make_field(3, 2)
    assert f9.mul(3, 3) == 2
    assert f9.spec == "3^2"


def test_field_factory_is_cached():
    assert qf.make_field(2, 2) is qf.make_field(2, 2)
    assert qf.field_from_spec("2^2") is qf.make_field(2, 2)
    assert qf.field_from_spec("4") is qf.make_field(2, 2)
    # a prime field is one object whether or not its degree is passed, so
    # catalogs stored under (p, m) never mix fields
    assert qf.make_field(3) is qf.make_field(3, 1) is qf.make_field(p=3, m=1)
    assert qf.parse_field_spec(" 7 ") == (7, 1)
    assert qf.parse_field_spec("3^2") == (3, 2)


def test_field_validation():
    with pytest.raises(NotPrime):
        qf.make_field(4)
    with pytest.raises(NotPrime):
        qf.make_field(1)
    with pytest.raises(DegreeTooLarge):
        qf.make_field(2, 99)
    for spec in ("x", "2^", "^3", "2^3^1", ""):
        with pytest.raises(NotPrime):
            qf.parse_field_spec(spec)


def test_prime_factors_match_sympy():
    from sympy import primefactors

    for n in range(1, 10**4):
        assert _prime_factors(n) == primefactors(n), n


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(7**12) == (7, 12)
    assert prime_power(65521) == (65521, 1)
    assert prime_power("3^2") == (3, 2)
    assert prime_power("2^3") == (2, 3)
    # the p of the p^m form must itself be prime
    for spec in ("4^1", "6^2", "1^3", "0^2", "9^1"):
        with pytest.raises(NotPrime, match=f"^{spec.split('^')[0]} is not prime$"):
            prime_power(spec)
    # an extension degree below 1 names no field
    for spec in ("2^0", "2^-1", "5^-3"):
        want = f"^field spec '{re.escape(spec)}' is not a prime power p\\^m with m >= 1$"
        with pytest.raises(NotPrime, match=want):
            prime_power(spec)
    # one integer names a field size, as it does when passed as an int
    assert prime_power("4") == prime_power(" 4 ") == (2, 2)
    assert prime_power("7") == (7, 1)
    for q in (-4, 0, 1, 6, 12, 2**5 * 3):
        for spec in (q, str(q)):
            with pytest.raises(NotPrime):
                prime_power(spec)
            with pytest.raises(NotPrime):
                qf.field_from_spec(str(spec))


def test_huge_characteristic_refused_at_once():
    big = 2**61 - 1
    calls = [
        (lambda: qf.make_field(big), big),
        (lambda: qf.make_field(2**32), 2**32),
        (lambda: qf.field_from_spec(str(big)), big),
        # an integer field size whose prime is past trial division
        (lambda: prime_power(big), big),
        # the prime of a p^m spec past trial division
        (lambda: prime_power(f"{big}^1"), big),
    ]
    for call, predicted in calls:
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as ei:
            call()
        assert time.perf_counter() - start < 0.25
        assert ei.value.predicted == predicted


def test_frobenius():
    f4 = qf.make_field(2, 2)
    for x in f4.elements():
        assert f4.frobenius(x) == f4.mul(x, x)
        assert qf.frobenius(f4, 2, x) == x
    f9 = qf.make_field(3, 2)
    for x in f9.elements():
        assert f9.frobenius(x) == f9.pow_(x, 3)


def test_generator():
    for p, m in [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1), (2, 4)]:
        f = qf.make_field(p, m)
        g = f.generator()
        seen = {f.pow_(g, k) for k in range(p**m - 1)}
        assert seen == set(range(1, p**m))
        assert f.mul(g, f.generator_inverse()) == 1


def test_solve_univariate():
    F7 = qf.make_field(7)
    # t^2 - t + 1: coefficients constant first
    assert qf.solve_univariate(F7, (1, -1 % 7, 1)) == (3, 5)
    F5 = qf.make_field(5)
    assert qf.solve_univariate(F5, (0, -2 % 5, 1)) == (0, 2)
    F4 = qf.make_field(2, 2)
    # t^2 + t + 1 splits over GF(4) with roots 2 and 3
    assert qf.solve_univariate(F4, (1, 1, 1)) == (2, 3)
    # the zero polynomial vanishes everywhere, however it is written
    assert qf.solve_univariate(F5, (0, 5, -5)) == (0, 1, 2, 3, 4)


def test_subfield_embedding():
    F2, F4 = qf.make_field(2), qf.make_field(2, 2)
    emb = qf.subfield_embedding(F2, F4)
    assert emb(0) == 0 and emb(1) == 1
    F16 = qf.make_field(2, 4)
    emb2 = qf.subfield_embedding(F4, F16)
    xs = [emb2(x) for x in F4.elements()]
    assert len(set(xs)) == 4
    # homomorphism property
    for a in F4.elements():
        for b in F4.elements():
            assert emb2(F4.mul(a, b)) == F16.mul(emb2(a), emb2(b))
            assert emb2(F4.add(a, b)) == F16.add(emb2(a), emb2(b))
    with pytest.raises(NotSubfield):
        qf.subfield_embedding(F4, qf.make_field(2, 3))
    with pytest.raises(NotSubfield):
        qf.subfield_embedding(qf.make_field(3), F4)


def test_bulk_tables():
    # prime fields and extensions share one exp/log table builder
    for p, m in [(2, 2), (2, 1), (5, 1), (7, 1), (3, 2), (2, 3), (2, 4), (5, 2)]:
        f = qf.make_field(p, m)
        add, mul = f.tables()
        assert add.shape == mul.shape == (f.q, f.q)
        for a in range(f.q):
            for b in range(f.q):
                assert add[a, b] == f.add(a, b)
                assert mul[a, b] == f.mul(a, b)


def test_addition_table_peak_memory():
    # the addition table is summed digit by digit, never as a (q, q, m) array
    from quiverfold import labelling  # noqa: F401  (numpy loads outside the trace)

    f = qf.make_field(2, 10)
    gf.FiniteField.tables.cache_clear()
    tracemalloc.start()
    try:
        f.tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20

"""Small finite fields with integer-coded elements.

An element of GF(p^m) is the integer sum(c_k p^k) packing the coefficients
of its polynomial representative, so 0 and 1 are the additive and
multiplicative identities and prime-field elements are plain residues.
The modulus is the lexicographically least monic irreducible polynomial of
degree m, comparing coefficient tuples from the constant term up; this
makes every field canonical, so equal parameters give the identical field
object (the factory is cached).  The search runs Rabin's irreducibility
test in F_p[x]/(f) on ``FiniteField``'s own arithmetic, the one polynomial
arithmetic here, and starts at c_0 = 1, since x divides every candidate of
degree m >= 2 with a zero constant term.

Every polynomial evaluation in a field (root finding, the search for a
subfield's image and an embedding applied to an element) goes through one
Horner evaluator, ``_horner``.  Fields small enough also expose dense numpy
addition and multiplication tables for vectorised bulk work; numpy is
loaded only when a table is first built, and from ``labelling``, which loads
it with a one-thread BLAS pool.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial
from itertools import product
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import BudgetExceeded, DegreeTooLarge, NotPrime, NotSubfield

if TYPE_CHECKING:
    import numpy as np

_DEGREE_CAP = 12
_TABLE_CAP = 1024
_TRIAL_LIMIT = 2**16  # trial division proves primality only below its square


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division; refuses
    a cofactor of _TRIAL_LIMIT**2 or more with no factor below _TRIAL_LIMIT."""
    out = []
    d = 2
    while d * d <= n:
        if d == _TRIAL_LIMIT:
            raise BudgetExceeded(f"{n} has no prime factor below 2**16", predicted=n)
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(p: int) -> bool:
    return p >= 2 and _prime_factors(p) == [p]


def parse_field_spec(spec: str) -> tuple[int, int]:
    """Parse "p" or "p^m" into (p, m)."""
    s = spec.strip()
    try:
        if "^" in s:
            ps, ms = s.split("^", 1)
            return int(ps), int(ms)
        return int(s), 1
    except ValueError:
        raise NotPrime(f"field spec {spec!r} is not a prime power p or p^m") from None


def prime_power(q: int | str) -> tuple[int, int]:
    """(p, m) with p prime and q = p^m, from an integer such as 4 or "4", or "p^m"."""
    if isinstance(q, str) and "^" in q:
        p, m = parse_field_spec(q)
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if m < 1:
            raise NotPrime(f"field spec {q!r} is not a prime power p^m with m >= 1")
        return p, m
    from .quiver import _integer

    n = parse_field_spec(q)[0] if isinstance(q, str) else _integer(q, "field size")
    primes = _prime_factors(n)
    if len(primes) != 1:
        raise NotPrime(f"{n} is not a prime power")
    m = 1
    while primes[0] ** m < n:
        m += 1
    return primes[0], m


def _is_irreducible(low: Sequence[int], p: int) -> bool:
    """Rabin's test for the monic f = x^m + sum low[k] x^k of degree m >= 2.

    It runs in the ring F_p[x]/(f), a ``FiniteField`` on the candidate
    modulus, where x is the integer p and q = p^m.  f is irreducible exactly
    when x^q = x and, for each prime l dividing m, x^(p^(m/l)) - x is a unit.
    Once f divides x^q - x it is squarefree with factors of degrees dividing
    m, so the ring is a product of fields GF(p^d), d | m, and y is a unit
    exactly when y^(q-1) = 1.  The ring need not be a field, so only add,
    neg, sub, mul, pow_ and coeffs are called on it, never inv, div,
    generator or tables.
    """
    m = len(low)
    ring = FiniteField(p, m, tuple(low))
    if ring.pow_(p, ring.q) != p:
        return False
    return all(
        ring.pow_(ring.sub(ring.pow_(p, p ** (m // ell)), p), ring.q - 1) == 1
        for ell in _prime_factors(m)
    )


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Low coefficients (c_0..c_{m-1}) of the least monic irreducible
    x^m + sum c_k x^k, in constant-term-first lexicographic order."""
    if m == 1:
        return (0,)
    # x divides every candidate with c_0 = 0, so the search starts at c_0 = 1
    for low in product(range(1, p), *[range(p)] * (m - 1)):
        if _is_irreducible(low, p):
            return low
    raise RuntimeError("no irreducible polynomial found (unreachable)")


class FiniteField:
    """GF(p^m) with integer-coded elements; obtain instances via
    :func:`make_field`.  The one other construction is ``_is_irreducible``'s
    ring F_p[x]/(f) on a candidate modulus f, which need not be a field."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus  # low coefficients (c_0 .. c_{m-1}) of x^m + ...

    def __repr__(self) -> str:
        return f"GF({self.q})"

    @property
    def spec(self) -> str:
        return str(self.p) if self.m == 1 else f"{self.p}^{self.m}"

    # element packing

    def coeffs(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            x, r = divmod(x, self.p)
            out.append(r)
        return tuple(out)

    def element(self, coeffs: Sequence[int]) -> int:
        acc = 0
        for c in reversed(list(coeffs)):
            acc = acc * self.p + c % self.p
        return acc

    def elements(self) -> range:
        return range(self.q)

    # arithmetic

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        ca, cb = self.coeffs(a), self.coeffs(b)
        return self.element([(x + y) % self.p for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return self.element([(-x) % self.p for x in self.coeffs(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a <= 1 or b <= 1:  # 0 and 1 are the integers 0 and 1
            return a * b
        m, cb = self.m, self.coeffs(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.coeffs(a)):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] += x * y
        # from the top down, x^k = -x^(k-m) (c_0 + ... + c_{m-1} x^{m-1})
        for k in range(2 * m - 2, m - 1, -1):
            top = prod[k] % self.p
            if top:
                for i, c in enumerate(self.modulus):
                    prod[k - m + i] -= top * c
        return self.element(prod[:m])  # element reduces each coefficient mod p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow_(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        acc, sq = 1, a
        while e:
            if e & 1:
                acc = self.mul(acc, sq)
            e >>= 1
            if e:
                sq = self.mul(sq, sq)
        return acc

    def frobenius(self, x: int, s: int = 1) -> int:
        """x to the power p^s (s taken modulo m)."""
        s %= self.m
        if x == 0 or s == 0 or self.q == 2:
            return x
        return self.pow_(x, pow(self.p, s, self.q - 1))

    @lru_cache(maxsize=None)
    def generator(self) -> int:
        """The least integer-coded multiplicative generator."""
        if self.q == 2:
            return 1
        primes = _prime_factors(self.q - 1)
        for g in range(1, self.q):
            if all(self.pow_(g, (self.q - 1) // ell) != 1 for ell in primes):
                return g
        raise RuntimeError("no multiplicative generator found (unreachable)")

    @lru_cache(maxsize=None)
    def generator_inverse(self) -> int:
        """The inverse of ``generator()``."""
        return self.inv(self.generator())

    # dense tables

    @lru_cache(maxsize=None)
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(add, mul) tables of shape (q, q), for q <= 1024."""
        from .labelling import np
        from .quiver import _orbit

        if self.q > _TABLE_CAP:
            raise BudgetExceeded(
                f"dense field tables capped at q <= {_TABLE_CAP}", predicted=self.q
            )
        dtype = np.uint8 if self.q <= 256 else np.uint16
        # digit by digit, so memory stays at a few (q, q) arrays
        digits = np.array([self.coeffs(x) for x in range(self.q)], dtype=np.int64)
        add = np.zeros((self.q, self.q), dtype=np.int64)
        for k in range(self.m):
            add += np.add.outer(digits[:, k], digits[:, k]) % self.p * self.p**k

        # exp[k] = g^k for the generator g, and dlog inverts it
        exp = np.array(_orbit(1, partial(self.mul, self.generator())), dtype=np.int64)
        dlog = np.zeros(self.q, dtype=np.int64)
        dlog[exp] = np.arange(self.q - 1)
        mul = np.zeros((self.q, self.q), dtype=np.int64)
        nz = np.arange(1, self.q)
        idx = (dlog[nz][:, None] + dlog[nz][None, :]) % (self.q - 1)
        mul[1:, 1:] = exp[idx]
        return add.astype(dtype), mul.astype(dtype)


def _check_states(quiver, dims, field, cap: int, origin=None, note="", planned=False) -> None:
    """Refuse the state space of the quiver at dims over the field past
    ``cap`` states, or with entries over a field past the dense tables' cap:
    the one numpy-free size check that every catalog build and plan reads.
    The message names dims, reduced from ``origin`` if given, then ``note``."""
    q, n = field.q, quiver.entry_count(dims)
    if q**n > cap:
        limit = f"cap is {cap}"
    elif n and q > _TABLE_CAP:
        limit = f"dense field tables are capped at q <= {_TABLE_CAP}"
    else:
        return
    where = f"{dims} (reduced from {origin})" if origin else dims
    stage = "; refused while planning, before any catalog was built" if planned else ""
    raise BudgetExceeded(
        f"state space at dims {where} over GF({q}) holds {q}^{n} = {q**n} "
        f"representations, {limit}{note}{stage}",
        predicted=q**n,
    )


def make_field(p: int, m: int = 1) -> FiniteField:
    """The canonical GF(p^m).  Cached on (p, m) however they are passed, so
    repeated calls share one object and its tables."""
    from .quiver import _integer

    return _make_field(_integer(p, "characteristic"), _integer(m, "extension degree"))


@cache
def _make_field(p: int, m: int) -> FiniteField:
    if p >= _TRIAL_LIMIT**2:
        raise BudgetExceeded(f"characteristic {p} is not below 2**32", predicted=p)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1 or m > _DEGREE_CAP:
        raise DegreeTooLarge(f"extension degree {m} outside 1..{_DEGREE_CAP}")
    return FiniteField(p, m, _smallest_irreducible(p, m))


def field_from_spec(spec: str) -> FiniteField:
    return make_field(*prime_power(spec))


def frobenius(field: FiniteField, s: int, x: int) -> int:
    """The s-th Frobenius power x -> x^(p^s)."""
    return field.frobenius(x, s)


def _horner(field: FiniteField, coeffs: Sequence[int], x: int) -> int:
    """sum coeffs[k] x^k in the field, for integer-coded coefficients,
    constant term first."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def _roots(field: FiniteField, coeffs: Sequence[int]) -> Iterator[int]:
    """The roots of sum coeffs[k] X^k in the field, ascending."""
    return (x for x in range(field.q) if _horner(field, coeffs, x) == 0)


class Embedding:
    """A field embedding determined by the image of the small field's
    polynomial variable; callable on integer-coded elements."""

    def __init__(self, sub: FiniteField, big: FiniteField, var_image: int):
        self.sub = sub
        self.big = big
        self.var_image = var_image

    def __call__(self, x: int) -> int:
        return _horner(self.big, self.sub.coeffs(x), self.var_image)


def subfield_embedding(sub: FiniteField, big: FiniteField) -> Embedding:
    """The canonical embedding: the small field's variable class goes to the
    least root of the small modulus inside the big field."""
    if sub.p != big.p or big.m % sub.m != 0:
        raise NotSubfield(f"GF({sub.q}) does not embed in GF({big.q})")
    root = next(_roots(big, (*sub.modulus, 1)), None)
    if root is None:
        raise NotSubfield(
            f"modulus of GF({sub.q}) has no root in GF({big.q})"
        )
    return Embedding(sub, big, root)


def solve_univariate(field: FiniteField, coeffs: Sequence[int]) -> tuple[int, ...]:
    """All roots of sum coeffs[k] X^k by exhaustive evaluation, ascending.

    Coefficients are integer-coded field elements, constant term first;
    plain negative Python ints are folded into the prime subfield.
    """
    return tuple(_roots(field, [c % field.p if not 0 <= c < field.q else c for c in coeffs]))

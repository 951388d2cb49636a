"""Exact arithmetic in the prime fields F_p for small primes p.

Field elements are plain Python ints in ``range(p)``; every function
normalizes its inputs mod p, so callers may pass arbitrary ints (including
negatives).  Nothing here is vectorized: the hot paths in :mod:`.census`
work on numpy arrays directly and only share the prime list with this
module.
"""

from __future__ import annotations

from numbers import Integral

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


class FieldError(ValueError):
    """Raised for unsupported moduli or inversion of zero."""


def check_prime(p: int) -> int:
    """Return ``p`` if it is an integer (numpy's too) and a supported
    prime, else raise FieldError; 3.0 would build float tables."""
    if not isinstance(p, Integral) or p not in SUPPORTED_PRIMES:
        raise FieldError(f"unsupported field size {p!r}; pick one of {SUPPORTED_PRIMES}")
    return p


def inv(a: int, p: int) -> int:
    """Multiplicative inverse mod p (p prime), via Fermat's little theorem."""
    a %= p
    if a == 0:
        raise FieldError(f"0 is not invertible mod {p}")
    return pow(a, p - 2, p)


def quadratic_roots(t: int, n: int, p: int) -> tuple[int, ...]:
    """Roots in F_p of X^2 - t*X + n, as a sorted tuple (scan; p is tiny)."""
    t %= p
    n %= p
    return tuple(x for x in range(p) if (x * x - t * x + n) % p == 0)

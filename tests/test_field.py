"""Prime-field scalar arithmetic."""

import numpy as np
import pytest

from splitoct.algebra import SplitOctonions
from splitoct.field import FieldError, check_prime, inv, quadratic_roots


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_check_prime_accepts_primes(p):
    assert check_prime(p) == p


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, -3, 15])
def test_check_prime_rejects_nonprimes(p):
    with pytest.raises(FieldError):
        check_prime(p)


@pytest.mark.parametrize("p", [3.0, 5.0, "3", None, np.float32(2)])
def test_check_prime_rejects_non_integers(p):
    """A float equal to a prime would build float tables, so it is refused
    like any other non-integer; numpy integers pass."""
    with pytest.raises(FieldError):
        check_prime(p)
    with pytest.raises(FieldError):
        SplitOctonions(p)
    assert check_prime(np.int64(5)) == 5 and check_prime(np.int8(3)) == 3


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_inverses(p):
    for a in range(1, p):
        assert a * inv(a, p) % p == 1
        assert inv(a - 3 * p, p) == inv(a, p)


def test_inv_of_zero_fails():
    with pytest.raises(FieldError):
        inv(0, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_squares_and_roots(p):
    # square roots of a are the roots of X^2 - a
    squares = {(x * x) % p for x in range(p)}
    for a in range(p):
        roots = quadratic_roots(0, -a, p)
        assert bool(roots) == (a in squares)
        assert all((r * r) % p == a for r in roots)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quadratic_roots_match_bruteforce(p):
    # roots of x^2 - t*x + n over F_p
    for t in range(p):
        for n in range(p):
            expected = tuple(sorted(x for x in range(p)
                                    if (x * x - t * x + n) % p == 0))
            assert tuple(sorted(quadratic_roots(t, n, p))) == expected

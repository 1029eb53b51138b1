import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from gfibdiv import DomainError, divides, is_prime, positive_divisors, valuation
from gfibdiv import numtheory
from gfibdiv.numtheory import INFINITE, Valuation, factored_divisors, factorize


class TestDivides:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (0, 0, True),
            (0, 5, False),
            (3, -9, True),
            (-3, 9, True),
            (20, 10, False),
            (1, 0, True),
            (7, 7, True),
        ],
    )
    def test_table(self, a, b, expected):
        assert divides(a, b) is expected

    @given(a=st.integers(-100, 100).filter(bool), k=st.integers(-100, 100))
    def test_multiples(self, a, k):
        assert divides(a, a * k)


class TestValuation:
    def test_examples(self):
        assert valuation(40, 2) == Valuation(3)
        assert valuation(-27, 3) == Valuation(3)
        assert valuation(10, 7) == Valuation(0)

    def test_infinite(self):
        v = valuation(0, 5)
        assert v is INFINITE
        assert v.is_infinite
        assert v.exponent is None

    def test_bad_base(self):
        for s in (1, 0, -2):
            with pytest.raises(DomainError):
                valuation(12, s)

    def test_defining_property_fuzz(self):
        rng = random.Random(99)
        for _ in range(10_000):
            m = rng.randint(-10**9, 10**9)
            s = rng.randint(2, 50)
            v = valuation(m, s)
            if m == 0:
                assert v.is_infinite
            else:
                k = v.exponent
                assert m % s**k == 0
                assert m % s ** (k + 1) != 0


class TestPositiveDivisors:
    def test_examples(self):
        assert positive_divisors(12) == [1, 2, 3, 4, 6, 12]
        assert positive_divisors(-20) == [1, 2, 4, 5, 10, 20]
        assert positive_divisors(1) == [1]
        assert positive_divisors(13) == [1, 13]

    def test_zero(self):
        with pytest.raises(DomainError):
            positive_divisors(0)

    @given(m=st.integers(-5000, 5000).filter(bool))
    def test_closure_and_order(self, m):
        ds = positive_divisors(m)
        assert ds == sorted(ds)
        am = abs(m)
        assert all(am % d == 0 for d in ds)
        assert sorted(am // d for d in ds) == ds

    def test_complete_to_5000(self):
        # Closure and order alone would pass [1, |m|]; this lists every divisor.
        for m in range(1, 5001):
            expected = [d for d in range(1, m + 1) if m % d == 0]
            assert positive_divisors(m) == expected, m
            assert positive_divisors(-m) == expected, m


class TestFactoredDivisors:
    def test_each_divisor_carries_its_factorization_below_2000(self):
        for m in range(1, 2000):
            pairs = factored_divisors(m)
            assert [d for d, _ in pairs] == [d for d in range(1, m + 1) if m % d == 0], m
            assert all(factors == oracles.brute_factorization(d) for d, factors in pairs), m
            assert factored_divisors(-m) == pairs, m

    def test_divisors_of_a_discriminant_with_two_large_primes(self):
        # r = 4*400000000019*600000000031, the discriminant at (p, q) = (2, 240000000023800000000588).
        big, bigger = 400000000019, 600000000031
        assert is_prime(big) and is_prime(bigger)
        exponents = [(a, b, c) for a in range(3) for b in range(2) for c in range(2)]
        expected = sorted(
            (2**a * big**b * bigger**c, [(f, e) for f, e in ((2, a), (big, b), (bigger, c)) if e]) for a, b, c in exponents
        )
        assert factored_divisors(4 * big * bigger) == expected

    def test_zero(self):
        with pytest.raises(DomainError):
            factored_divisors(0)


class TestFactorize:
    def test_agrees_with_brute_force_to_2000(self):
        for m in range(1, 2001):
            pairs = factorize(m)
            assert pairs == oracles.brute_factorization(m) == factorize(-m), m
            primes = [prime for prime, _ in pairs]
            assert primes == sorted(set(primes)) and all(is_prime(prime) for prime in primes), m
            assert all(e >= 1 for _, e in pairs), m
            assert math.prod(prime**e for prime, e in pairs) == m, m

    def test_zero(self):
        with pytest.raises(DomainError):
            factorize(0)

    def test_agrees_with_brute_force_on_a_sample_below_1e9(self):
        rng = random.Random(20260613)
        sample = [rng.randrange(2, 10**9) for _ in range(100)]
        prime_powers = [2**29, 3**18, 1021**3, 1031**2, 65537**2 * 3, 10007**2]
        squares = [p * p for p in range(10**6 - 30, 10**6 + 40) if is_prime(p)]  # parts past trial division
        carmichael = [561, 1105, 1729, 41041, 825265, 321197185, 5394826801, 232250619601]
        for m in sample + prime_powers + squares + carmichael:
            assert factorize(m) == oracles.brute_factorization(m), m

    def test_large_values(self):
        assert factorize(2**61 - 1) == [(2**61 - 1, 1)]
        assert factorize(2**64 + 1) == [(274177, 1), (67280421310721, 1)]
        assert factorize(10**18 + 9) == [(10**18 + 9, 1)]
        assert factorize(-(2**10) * (10**9 + 7) ** 2 * (10**9 + 9)) == [(2, 10), (10**9 + 7, 2), (10**9 + 9, 1)]

    def test_budget_checked_every_block_of_rho_steps(self):
        # (10^9 + 7)(10^9 + 9) has no factor below 2^10, and rho takes 12
        # blocks of 2^12 steps to split it, so check runs after each block.
        m = (10**9 + 7) * (10**9 + 9)
        checks = []
        assert factorize(m, check=lambda: checks.append(1)) == factorize(m) == [(10**9 + 7, 1), (10**9 + 9, 1)]
        assert len(checks) == 12
        assert positive_divisors(m, check=lambda: checks.append(1)) == [1, 10**9 + 7, 10**9 + 9, m]
        assert len(checks) == 24
        # Rho splits 8191^2 within its first block: no check.
        assert factorize(8191**2, check=lambda: checks.append(1)) == [(8191, 2)] and len(checks) == 24

        def stop():
            raise RuntimeError("over budget")

        # A balanced semiprime just below psi_12, about a second of rho.
        with pytest.raises(RuntimeError, match="over budget"):
            factorize(400000000019 * 600000000031, check=stop)

    def test_part_past_psi12_that_rho_does_not_split(self):
        # F_131 is prime and past psi_12, where is_prime proves nothing: a
        # strong probable prime there is left unsplit.  The error names the part.
        f131 = 1066340417491710595814572169
        for m in (f131, 3 * f131, -(2**5) * f131):
            with pytest.raises(DomainError, match=str(f131)):
                factorize(m)
        # A composite part past psi_12 gets at most _RHO_CAP rho steps: far
        # fewer than the 10^6 or so that split a product of two primes near 10^12.
        m = (10**12 + 39) * (10**12 + 61)
        with pytest.raises(DomainError, match=str(m)):
            factorize(m)
        assert numtheory._strong_probable_prime(f131) and not numtheory._strong_probable_prime(m)
        # Past psi_12, rho still splits a part whose factors it reaches within the cap.
        assert factorize((10**6 + 3) * (10**18 + 9) * (10**9 + 7)) == [(10**6 + 3, 1), (10**9 + 7, 1), (10**18 + 9, 1)]

    def test_probable_prime_past_psi12_takes_no_rho_steps(self, monkeypatch):
        # Rho cannot split a prime, so a strong probable prime past psi_12 is
        # left unsplit at once; psi_12 itself is a strong pseudoprime to the bases.
        monkeypatch.setattr(numtheory, "_rho", lambda n, check: pytest.fail(f"rho ran on {n}"))
        for part in (1066340417491710595814572169, 318665857834031151167461):
            with pytest.raises(DomainError, match=str(part)):
                factorize(7 * part)


class TestIsPrime:
    def test_agrees_with_sieve_to_1e6(self):
        limit = 10**6
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        mismatches = [s for s in range(limit + 1) if is_prime(s) != bool(sieve[s])]
        assert mismatches == []

    def test_large_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**61 + 1)
        assert is_prime(10**18 + 9)
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7

    def test_small_and_negative(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert not is_prime(-7)

    def test_refuses_above_proven_range(self):
        # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to all
        # twelve bases: the least number the test would call prime wrongly.
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        with pytest.raises(DomainError, match=str(psi12)):
            is_prime(psi12)
        with pytest.raises(DomainError):
            is_prime(psi12 + 6)  # no factor among the bases
        assert not is_prime(psi12 - 2)
        assert not is_prime(psi12 + 1)  # even: decided by a base
        assert not is_prime(3 * psi12)

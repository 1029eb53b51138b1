import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfibdiv import (
    ABPair,
    DomainError,
    InputError,
    ResourceLimitError,
    SequenceParams,
    ab_exact,
    g_exact,
    g_mod,
    g_pairs_mod,
    g_range,
)
from gfibdiv.sequences import _parse_index, g_is_zero


def naive_g(p: int, q: int, n: int) -> int:
    """Independent oracle: the recurrence written as an explicit list."""
    values = [0, 1]
    while len(values) <= n:
        values.append(p * values[-1] + q * values[-2])
    return values[n]


def matrix_g_mod(p: int, q: int, n: int, m: int) -> int:
    """Independent modular oracle: companion-matrix exponentiation."""

    def mat_mul(x, y):
        return (
            (x[0][0] * y[0][0] + x[0][1] * y[1][0]) % m,
            (x[0][0] * y[0][1] + x[0][1] * y[1][1]) % m,
        ), (
            (x[1][0] * y[0][0] + x[1][1] * y[1][0]) % m,
            (x[1][0] * y[0][1] + x[1][1] * y[1][1]) % m,
        )

    result = ((1 % m, 0), (0, 1 % m))
    base = ((p % m, q % m), (1 % m, 0))
    e = n
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    # result = M^n, and M^n @ (G_1, G_0) has G_{n+1} on top, G_n below
    return result[1][0]


class TestGExact:
    @pytest.mark.parametrize(
        "p,q,n,expected",
        [
            (1, 1, 0, 0),
            (4, 1, 10, 416020),
            (2, 2, 6, 120),
            (5, 2, 3, 27),
        ],
    )
    def test_golden_values(self, p, q, n, expected):
        assert g_exact(SequenceParams(p, q), n) == expected

    def test_negative_p_matches_naive_oracle(self):
        # 0, 1, -3, 16, -69, 319, -1440, 6553, -29739
        assert naive_g(-3, 7, 8) == -29739
        assert g_exact(SequenceParams(-3, 7), 8) == -29739

    @given(
        p=st.integers(-8, 8),
        q=st.integers(-8, 8),
        n=st.integers(0, 2000),
    )
    def test_matches_naive_oracle(self, p, q, n):
        assert g_exact(SequenceParams(p, q), n) == naive_g(p, q, n)

    @pytest.mark.parametrize("p,q", [(1, 1), (3, -2), (-5, -7), (0, 3), (0, -2)])
    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_large_index_matches_matrix_oracle(self, p, q, n):
        m = 10**12 + 39
        assert g_exact(SequenceParams(p, q), n) % m == matrix_g_mod(p, q, n, m)

    def test_string_index_accepted(self):
        assert g_exact(SequenceParams(1, 1), "10") == 55

    def test_negative_index_rejected(self):
        with pytest.raises(InputError):
            g_exact(SequenceParams(1, 1), -1)

    @pytest.mark.parametrize("n", [True, 1.5])
    def test_non_integer_index_rejected(self, n):
        with pytest.raises(InputError):
            _parse_index(n)


class TestGRange:
    def test_jacobsthal_prefix(self):
        assert g_range(SequenceParams(1, 2), 3) == [0, 1, 1, 3]

    def test_p_zero(self):
        assert g_range(SequenceParams(0, 2), 3) == [0, 1, 0, 2]

    def test_seeds_only(self):
        assert g_range(SequenceParams(1, 1), 1) == [0, 1]

    def test_zero_terms(self):
        assert g_range(SequenceParams(7, -3), 0) == [0]

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            g_range(SequenceParams(1, 1), 10**7)
        assert len(g_range(SequenceParams(1, 1), 100, max_terms=101)) == 101

    def test_ceiling_on_the_last_index_read(self):
        # G_0..G_{n_max} is n_max + 1 terms, refused before any is built.
        with pytest.raises(ResourceLimitError, match="g_range of 102 terms exceeds ceiling 101"):
            g_range(SequenceParams(1, 1), 101, max_terms=101)
        assert g_range(SequenceParams(1, 1), 100, max_terms=101)[-1] == naive_g(1, 1, 100)


class TestABExact:
    def test_seeds(self):
        assert ab_exact(SequenceParams(1, 1), 0) == ABPair(0, 1, 0)
        assert ab_exact(SequenceParams(1, 1), 1) == ABPair(1, 1, 1)

    def test_fibonacci_n3(self):
        # oracle: (1+sqrt5)^3 = 16 + 8*sqrt5, so A_3 = 16, B_3 = 8 = 2^2 * G_3
        assert ab_exact(SequenceParams(1, 1), 3) == ABPair(3, 16, 8)

    def test_quadratic_instance(self):
        pair = ab_exact(SequenceParams(4, 1), 2)
        assert pair.a**2 - 20 * pair.b**2 == 16

    @pytest.mark.parametrize("p", range(-8, 9))
    @pytest.mark.parametrize("q", [-8, -3, -1, 0, 1, 2, 5, 8])
    def test_invariants_along_sequence(self, p, q):
        params = SequenceParams(p, q)
        r = params.r
        gs = g_range(params, 300)
        a, b = 1, 0
        for n in range(1, 301):
            a, b = p * a + r * b, a + p * b
            assert b == 2 ** (n - 1) * gs[n]
            assert a * a - r * b * b == (-4 * q) ** n
            if p % 2 == 0:
                assert a % 2**n == 0

    def test_matches_stepwise(self):
        params = SequenceParams(-5, 3)
        a, b = 1, 0
        for n in range(0, 60):
            assert ab_exact(params, n) == ABPair(n, a, b)
            a, b = params.p * a + params.r * b, a + params.p * b


class TestGMod:
    def test_fibonacci_mod8(self):
        assert g_mod(SequenceParams(1, 1), "10", 8) == 7

    def test_index_zero(self):
        assert g_mod(SequenceParams(123, -456), "0", 5) == 0

    def test_golden_divisibility_point(self):
        assert g_mod(SequenceParams(4, 1), "10", 20) == 0

    def test_modulus_one(self):
        assert g_mod(SequenceParams(3, 4), 17, 1) == 0

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            g_mod(SequenceParams(1, 1), 3, 0)
        with pytest.raises(InputError):
            g_mod(SequenceParams(1, 1), "12x", 5)
        with pytest.raises(InputError):
            g_mod(SequenceParams(1, 1), "-4", 5)

    def test_oracle_equivalence_sampled(self):
        rng = random.Random(20240817)
        for _ in range(400):
            p, q = rng.randint(-8, 8), rng.randint(-8, 8)
            n, m = rng.randint(0, 2000), rng.randint(1, 10**6)
            params = SequenceParams(p, q)
            assert g_mod(params, n, m) == g_exact(params, n) % m

    def test_huge_index_against_matrix_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            p, q = rng.randint(-20, 20), rng.randint(-20, 20)
            m = rng.randint(1, 10**9)
            n = rng.randint(10**17, 10**18)
            assert g_mod(SequenceParams(p, q), str(n), m) == matrix_g_mod(p, q, n, m)

    @pytest.mark.parametrize("width", [639, 640, 641, 4301, 5000, 20000])
    def test_index_string_of_any_width(self, width):
        rng = random.Random(width)
        digits = "".join(rng.choice("0123456789") for _ in range(width))
        n = 0
        for d in digits:  # digit by digit, where int() would refuse the string
            n = 10 * n + int(d)
        m = rng.randint(2, 10**9)
        assert _parse_index(" +00" + digits) == n
        assert g_mod(SequenceParams(3, -2), digits, m) == matrix_g_mod(3, -2, n, m)

    @given(
        p=st.integers(-8, 8),
        q=st.integers(-8, 8),
        n=st.integers(2, 5000),
        m=st.integers(1, 10**6),
    )
    @settings(max_examples=60)
    def test_addition_chain_consistency(self, p, q, n, m):
        # the doubling chain at n must agree with the recurrence step
        params = SequenceParams(p, q)
        direct = g_mod(params, n, m)
        stepped = (p * g_mod(params, n - 1, m) + q * g_mod(params, n - 2, m)) % m
        assert direct == stepped


class TestGPairsMod:
    @pytest.mark.parametrize("p,q", [(1, 1), (-3, 5), (4, -7), (-2, -2), (0, 3), (3, 0)])
    @pytest.mark.parametrize("m", [1, 2, 7, 20, 10**9 + 7])
    def test_matches_g_mod(self, p, q, m):
        params = SequenceParams(p, q)
        pairs = list(g_pairs_mod(params, range(80), m))
        assert pairs == [(g_mod(params, n, m), g_mod(params, n + 1, m)) for n in range(80)]

    def test_matches_exact_values_on_the_criterion_8_moduli(self):
        # Every modulus d = s^k that the exact and modular sweeps of acceptance
        # criterion 8 may walk (|p|, |q| <= 8; s >= 2 dividing r, which takes
        # in every s | r/4; k <= 3; n <= 2000), against the exact values of
        # the linear recurrence reduced mod d.
        ns = range(2001)
        for p, q in itertools.product(range(-8, 9), repeat=2):
            params, r = SequenceParams(p, q), abs(p * p + 4 * q)
            moduli = {s**k for s in range(2, r + 1) if r % s == 0 for k in (1, 2, 3)}
            if not moduli:  # r in (-1, 0, 1)
                continue
            gs = [g % r**3 for g in g_range(params, 2001)]  # each d divides r^3
            for d in sorted(moduli):
                residues = [g % d for g in gs]
                assert list(g_pairs_mod(params, ns, d)) == list(zip(residues, residues[1:])), (p, q, d)

    def test_matches_exact_values_across_reseeds(self):
        # Seeds where a block of claims.conclusion_failures starts (4096, 8192),
        # gaps of 64 and 65, a repeated index, and backward steps: each index
        # that is not one past the one before is seeded afresh.
        ns = [4096, 4097, 4161, 4226, 4226, 4227, 8192, 8193, 8257, 8322, 8323, 4100, 4101, 0, 1, 65, 130, 129]
        for p, q in [(1, 1), (-3, 5), (4, -7), (8, -8), (0, 3)]:
            params = SequenceParams(p, q)
            gs = g_range(params, max(ns) + 1)
            for d in [2, 125, 4096, 8000, 10**9 + 7]:
                assert list(g_pairs_mod(params, ns, d)) == [(gs[n] % d, gs[n + 1] % d) for n in ns], (p, q, d)

    def test_seeded_at_large_start(self):
        params = SequenceParams(-5, 3)
        ns = range(10**30, 10**30 + 50)
        expected = [(matrix_g_mod(-5, 3, n, 97), matrix_g_mod(-5, 3, n + 1, 97)) for n in ns]
        assert list(g_pairs_mod(params, ns, 97)) == expected

    def test_gaps_and_order(self):
        params = SequenceParams(3, -4)
        ns = [5, 6, 6, 70, 200, 3, 10**20, 10**20 + 64, 10**20 + 129, 0]
        expected = [(g_mod(params, n, 1000), g_mod(params, n + 1, 1000)) for n in ns]
        assert list(g_pairs_mod(params, ns, 1000)) == expected

    def test_lazy(self):
        stream = g_pairs_mod(SequenceParams(1, 1), itertools.count(), 10)
        assert [g for g, _ in itertools.islice(stream, 8)] == [0, 1, 1, 2, 3, 5, 8, 3]

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            g_pairs_mod(SequenceParams(1, 1), range(3), 0)
        with pytest.raises(InputError):
            list(g_pairs_mod(SequenceParams(1, 1), [-1], 5))


class TestScaling:
    @pytest.mark.parametrize("alpha", range(-5, 6))
    def test_scaled_seed_is_alpha_times_g(self, alpha):
        p, q = 3, -2
        params = SequenceParams(p, q)
        a, b = 0, alpha
        for n in range(200):
            assert a == alpha * g_exact(params, n)
            a, b = b, p * b + q * a


class TestGIsZero:
    @pytest.mark.parametrize("p", range(-4, 5))
    @pytest.mark.parametrize("q", range(-4, 5))
    def test_agrees_with_exact(self, p, q):
        params = SequenceParams(p, q)
        gs = g_range(params, 100)
        for n in range(101):
            assert g_is_zero(params, n) == (gs[n] == 0), (p, q, n)

    def test_huge_index(self):
        # p=0: zeros exactly at even indices
        assert g_is_zero(SequenceParams(0, 3), 10**18)
        assert not g_is_zero(SequenceParams(0, 3), 10**18 + 1)
        assert not g_is_zero(SequenceParams(1, 1), 10**18)


class TestDiscriminant:
    @given(p=st.integers(-10**6, 10**6), q=st.integers(-10**6, 10**6))
    def test_r_definition(self, p, q):
        assert SequenceParams(p, q).r == p * p + 4 * q

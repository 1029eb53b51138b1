import functools
import itertools
import json
import math
import random
import tracemalloc

import pytest

import oracles
from gfibdiv import (
    ClaimId,
    InputError,
    Mode,
    ResourceLimitError,
    SequenceParams,
    SweepConfig,
    Verdict,
    catalog,
    claim_by_name,
    conclusion_holds,
    hypothesis_check,
    iter_counterexamples,
    thm12_lift_condition,
    verify_claim,
)
from gfibdiv import claims, verify
from gfibdiv.claims import (
    _CONDITIONS,
    _S_FREE,
    _applicable,
    _rank,
    DEFAULT_SCALE_FACTORS,
    REGISTRY,
    ConclusionKind,
    claim_spec,
    conclusion_failures,
    hypothesis_gate,
)
from gfibdiv.numtheory import factorize, is_prime
from gfibdiv.sequences import g_exact, g_pairs_mod, g_range


class TestRegistry:
    def test_thirteen_claims(self):
        assert len(REGISTRY) == 13
        assert len({spec.claim for spec in REGISTRY}) == 13
        assert len({spec.citation for spec in REGISTRY}) == 13

    def test_names_are_kebab(self):
        for claim in ClaimId:
            assert claim.value == claim.value.lower()
            assert " " not in claim.value

    def test_every_condition_is_registered(self):
        for spec in REGISTRY:
            for name in spec.condition_names:
                assert name in _CONDITIONS

    def test_claim_by_name(self):
        assert claim_by_name("thm1.1-multdiv").claim is ClaimId.Thm1_1_MultDiv
        with pytest.raises(InputError):
            claim_by_name("no-such-claim")

    def test_catalog_is_json_serializable(self):
        entries = catalog()
        assert len(entries) == 13
        round_trip = json.loads(json.dumps(entries))
        assert round_trip == entries
        for entry in entries:
            assert entry["conclusion"] in {k.value for k in ConclusionKind}

    def test_case_structure_difference_thm11_vs_thm12(self):
        # Theorem 1.1's prime case requires s >= 3; Theorem 1.2's does not.
        case3_11 = claim_spec(ClaimId.Thm1_1_Equiv).cases[2]
        case3_12 = claim_spec(ClaimId.Thm1_2_BaseEquiv).cases[2]
        assert "s-ge-3" in case3_11
        assert "s-ge-3" not in case3_12


class TestHypothesisCheck:
    def test_fibonacci_s5_applicable(self):
        report = hypothesis_check(ClaimId.Thm1_1_Equiv, SequenceParams(1, 1), 5)
        assert report.applicable
        values = dict(report.conditions)
        assert values["p-odd"] and values["gcd-pq"] and values["s-div-r"]

    def test_gcd_failure_not_applicable(self):
        report = hypothesis_check(ClaimId.Thm1_1_Equiv, SequenceParams(3, 9), 3)
        assert not report.applicable
        assert dict(report.conditions)["gcd-pq"] is False

    def test_mod3_guard_blocks(self):
        # q = 2 gives q+1 = 3; with s = 3 the guard fails.
        report = hypothesis_check(ClaimId.Thm1_1_Equiv, SequenceParams(5, 2), 3)
        assert not report.applicable
        assert dict(report.conditions)["mod3-guard"] is False

    def test_even_p_case(self):
        # p=2, q=1: r=8, r/4=2, gcd(p/2, q)=1, so s=2 applies via case 2.
        report = hypothesis_check(ClaimId.Thm1_2_BaseEquiv, SequenceParams(2, 1), 2)
        assert report.applicable

    def test_conditions_cover_exactly_the_claims_names(self):
        for spec in REGISTRY:
            report = hypothesis_check(spec.claim, SequenceParams(1, 1), 5)
            assert tuple(name for name, _ in report.conditions) == spec.condition_names


class TestHypothesisGate:
    """hypothesis_gate against the full per-point evaluation it replaces."""

    @pytest.mark.parametrize("claim", list(ClaimId))
    def test_matches_the_full_evaluation(self, claim):
        # p = 0, q = 0, r = 0 (p = 2, q = -1) and negative r are all on the grid.
        spec = claim_spec(claim)
        qualifying = 0
        for p in range(-12, 13):
            for q in range(-12, 13):
                params = SequenceParams(p, q)
                sweep = hypothesis_gate(claim, params)
                search = {name: hypothesis_gate(claim, params, name) for name in spec.condition_names}
                for s in range(1, 41):
                    report = hypothesis_check(claim, params, s)
                    assert (sweep is not None and sweep(s)) == report.applicable, (p, q, s)
                    values = dict(report.conditions)
                    for name, gate in search.items():
                        want = (
                            not values[name]
                            and not report.applicable
                            and _applicable(spec, {**values, name: True})
                        )
                        assert (gate is not None and gate(s)) == want, (name, p, q, s)
                        qualifying += want
        assert qualifying > 0

    # Criterion 6's searches on |p|,|q| <= 10, s <= 20: (claim, relaxed
    # condition, qualifying points).  Examples 2.5 and 2.6(a) share a search,
    # and so do 2.6(b) and 2.9.
    CRITERION_6 = (
        (ClaimId.Thm1_1_Equiv, "gcd-pq", 182),
        (ClaimId.Thm1_1_Equiv, "s-prime", 140),
        (ClaimId.Thm1_1_Equiv, "s-ge-3", 42),
        (ClaimId.Thm1_1_Equiv, "gcd-p2-q", 274),
        (ClaimId.Cor_Square, "gcd-p2-q", 120),
        (ClaimId.Thm1_1_Equiv, "mod3-guard", 112),
        (ClaimId.Cor_P1P2, "mod3-guard", 26),
        (ClaimId.Cor_PrimeR, "r-prime", 17),
        (ClaimId.Cor_P1P2, "s-div-q1", 322),
        (ClaimId.Cor_PrimeRover4, "r4-prime", 38),
        (ClaimId.Cor_PrimeRover4, "p-nonzero", 4),
        (ClaimId.Cor_PrimeR, "q-positive", 12),
        (ClaimId.Cor_PrimeRover4, "q-positive", 22),
    )

    @pytest.mark.parametrize("claim,relaxed,points", CRITERION_6)
    def test_criterion_6_qualifying_points(self, claim, relaxed, points):
        count = 0
        for p in range(-10, 11):
            for q in range(-10, 11):
                gate = hypothesis_gate(claim, SequenceParams(p, q), relaxed)
                count += gate is not None and sum(map(gate, range(1, 21)))
        assert count == points

    def test_cell_decides_s_free_conditions(self):
        # (3, 9): gcd(p, q) = 3 rules out every case of Theorem 1.1(2) ...
        assert hypothesis_gate(ClaimId.Thm1_1_Equiv, SequenceParams(3, 9)) is None
        # ... and relaxing gcd-pq leaves only conditions on s.
        gate = hypothesis_gate(ClaimId.Thm1_1_Equiv, SequenceParams(3, 9), "gcd-pq")
        assert [s for s in range(1, 50) if gate(s)] == [1, 3, 5, 9, 15, 45]  # s | r = 45
        # A relaxed condition that holds on the cell leaves nothing to relax.
        assert hypothesis_gate(ClaimId.Thm1_1_Equiv, SequenceParams(1, 1), "gcd-pq") is None

    def test_undecidable_primality_not_reached(self, monkeypatch):
        # s is never tested for primality where an s-free condition already
        # rules out the case that reads s-prime.
        def no_primality(m):
            raise AssertionError(f"is_prime({m}) reached")

        monkeypatch.setattr(claims, "is_prime", no_primality)
        gate = hypothesis_gate(ClaimId.Thm1_1_Equiv, SequenceParams(2, 2))  # gcd(2, 2) = 2
        assert gate(1) and not gate(318665857834031151167461)  # s | r/4 = 3 decides

    def test_a_case_answering_no_is_tried_first(self, monkeypatch):
        # Relaxing s-ge-3, case 3 answers yes, and s-prime is its first
        # condition on s after mod3-guard; case 2 does not name s-ge-3, so it
        # answers no, and it is tried first.
        def no_primality(m):
            raise AssertionError(f"is_prime({m}) reached")

        monkeypatch.setattr(claims, "is_prime", no_primality)
        gate = hypothesis_gate(ClaimId.Thm1_1_Equiv, SequenceParams(2, 1), "s-ge-3")
        assert gate(1) is False and gate(2) is False  # s | r/4 = 2: case 2 holds
        # At (1, 1) p is odd, so case 2 is dropped with the cell; case 1 fails
        # at s = 2 (2 does not divide r = 5), and case 3 reaches s-prime.
        with pytest.raises(AssertionError, match="is_prime"):
            hypothesis_gate(ClaimId.Thm1_1_Equiv, SequenceParams(1, 1), "s-ge-3")(2)


    @pytest.mark.parametrize("claim", list(ClaimId))
    def test_predicate_never_calls_an_s_free_condition(self, claim, monkeypatch):
        calls = []
        for name, condition in list(_CONDITIONS.items()):
            monkeypatch.setitem(_CONDITIONS, name, lambda *args, name=name, condition=condition: calls.append(name) or condition(*args))
        for p in range(-6, 7):
            for q in range(-6, 7):
                for relaxed in (None,) + claim_spec(claim).condition_names:
                    gate = hypothesis_gate(claim, SequenceParams(p, q), relaxed)
                    calls.clear()
                    if gate is not None:
                        for s in range(1, 41):
                            gate(s)
                    assert not _S_FREE.intersection(calls), (p, q, relaxed)

    @pytest.mark.parametrize("p,q,relaxed", [(1, 2, None), (1, 2, "s-div-r"), (2, 2, "gcd-pq"), (4, -1, "p-odd")])
    def test_global_mod3_guard_fails_before_primality(self, p, q, relaxed, monkeypatch):
        # 3 | q+1, so at s = 3k the global mod3-guard fails, and it comes first in every case.
        def no_primality(m):
            raise AssertionError(f"is_prime({m}) reached")

        monkeypatch.setattr(claims, "is_prime", no_primality)
        gate = hypothesis_gate(ClaimId.Thm1_1_Equiv, SequenceParams(p, q), relaxed)
        assert gate is not None
        assert not any(gate(s) for s in range(3, 121, 3))


class TestHypothesesAtAPoint:
    """The claims whose hypothesis holds at a point, read from hypothesis_check."""

    @staticmethod
    def applicable(params, s):
        return {spec.claim for spec in REGISTRY if hypothesis_check(spec.claim, params, s).applicable}

    def test_fibonacci_point(self):
        found = self.applicable(SequenceParams(1, 1), 5)
        assert {
            ClaimId.Thm1_1_MultDiv,
            ClaimId.Thm1_1_Equiv,
            ClaimId.Thm1_2_BaseEquiv,
            ClaimId.Cor_Fibonacci,
            ClaimId.Remark_Scaled,
        } <= found
        assert ClaimId.Cor_Pell not in found

    def test_pell_point(self):
        found = self.applicable(SequenceParams(2, 1), 2)
        assert ClaimId.Cor_Pell in found
        assert ClaimId.Cor_Square not in found  # 4 does not divide r/4 = 2

    def test_degenerate_point(self):
        found = self.applicable(SequenceParams(3, 9), 3)
        assert found == {ClaimId.Thm1_1_MultDiv, ClaimId.Remark_Scaled}


class TestConclusionHolds:
    def test_multdiv_true_point(self):
        assert conclusion_holds(ClaimId.Thm1_1_MultDiv, SequenceParams(1, 1), 5, 1, 5)

    def test_equiv_false_point(self):
        # p=4, q=1, s=20: 20 | G_10 = 416020 but 20 does not divide 10.
        assert not conclusion_holds(ClaimId.Thm1_1_Equiv, SequenceParams(4, 1), 20, 1, 10)

    def test_base_equiv_clamps_exponent(self):
        params = SequenceParams(4, 1)
        for k in (1, 2, 3):
            assert conclusion_holds(ClaimId.Thm1_2_BaseEquiv, params, 20, k, 10) is False
        assert conclusion_holds(ClaimId.Thm1_2_BaseEquiv, params, 20, 0, 10)

    @pytest.mark.parametrize("claim", list(ClaimId))
    def test_k_zero_and_s_one_degenerate(self, claim):
        rng = random.Random(hash(claim.value) & 0xFFFF)
        for _ in range(20):
            params = SequenceParams(rng.randint(-6, 6), rng.randint(-6, 6))
            n = rng.randint(0, 30)
            assert conclusion_holds(claim, params, rng.randint(1, 9), 0, n)
            assert conclusion_holds(claim, params, 1, rng.randint(0, 4), n)

    def test_negative_k_or_n_rejected(self):
        with pytest.raises(InputError):
            conclusion_holds(ClaimId.Thm1_1_Equiv, SequenceParams(1, 1), 5, -1, 3)
        with pytest.raises(InputError):
            conclusion_holds(ClaimId.Thm1_1_Equiv, SequenceParams(1, 1), 5, 1, -3)

    def test_modular_flag_agrees_with_exact(self):
        rng = random.Random(1234)
        for _ in range(300):
            params = SequenceParams(rng.randint(-6, 6), rng.randint(-6, 6))
            s, k, n = rng.randint(1, 10), rng.randint(0, 3), rng.randint(0, 40)
            claim = rng.choice([ClaimId.Thm1_1_Equiv, ClaimId.Thm1_2_BaseEquiv, ClaimId.Cor_Square])
            exact = conclusion_holds(claim, params, s, k, n, modular=False)
            modular = conclusion_holds(claim, params, s, k, n, modular=True)
            assert exact == modular

    def test_scaled_matches_direct_divisibility(self):
        # Scaling both sides by alpha preserves divisibility, so for nonzero
        # divisors the scaled claim coincides with the plain one.
        params = SequenceParams(3, 4)  # r = 25
        for n in range(1, 15):
            divisor = 5 * g_exact(params, n)
            assert divisor != 0
            expected = g_exact(params, 5 * n) % divisor == 0
            assert conclusion_holds(ClaimId.Remark_Scaled, params, 5, 1, n) == expected


@pytest.fixture(scope="module")
def direct_divisibility_failures():
    """(p, q, s) -> {(k, n): remainder} for each failure of s^k*G_n | G_{s^k*n}
    on |p|,|q| <= 6, s <= 12, k <= 3, n <= 30, by oracles.divisibility_failures."""
    return {
        (p, q, s): failing
        for p in range(-6, 7)
        for q in range(-6, 7)
        for s, failing in oracles.divisibility_failures(p, q, range(1, 13), 3, 30).items()
    }


class TestConclusionFailures:
    @pytest.mark.parametrize(
        "kind", [ConclusionKind.MULT_DIV, ConclusionKind.SCALED, ConclusionKind.CLASSICAL]
    )
    def test_lucas_composition_matches_big_residue(self, kind, direct_divisibility_failures):
        claim = next(spec.claim for spec in REGISTRY if spec.conclusion is kind)
        zero_points = 0
        for (p, q, s), divisibility in direct_divisibility_failures.items():
            params = SequenceParams(p, q)
            gs = oracles.g_values(p, q, 30)
            zero_points += sum(g == 0 for g in gs[1:])
            found = list(conclusion_failures(claim, params, s, range(4), range(31), modular=True))
            expected = set(divisibility)
            if kind is ConclusionKind.CLASSICAL:
                expected |= oracles.direct_failures("equiv", gs, s, 3, 30)
            assert {(k, n) for k, n, _ in found} == expected, (p, q, s)
            scale = DEFAULT_SCALE_FACTORS[0] if kind is ConclusionKind.SCALED else 1
            for k, n, evidence in found:
                witness = claims.witness(claim, params, n, *evidence)
                assert ("divisor" in witness) == ((k, n) in divisibility), (p, q, s, k, n)
                if "divisor" in witness:
                    # The remainder of a*G_{s^k*n} modulo the whole divisor a*s^k*G_n,
                    # from that of G_{s^k*n} modulo s^k*|G_n|.
                    divisor = scale * s**k * gs[n]
                    remainder = divisibility[k, n] * scale % abs(divisor)
                    assert witness == {
                        "divisor": divisor, "index": s**k * n, "g_n": gs[n], "remainder": remainder
                    }, (p, q, s, k, n)
        assert zero_points > 0
        assert any(direct_divisibility_failures.values())

    def test_repeated_orbit_states_match_big_residue(self):
        """Past a few dozen indices the states (G_n, G_{n+1}) mod s^k repeat, so
        most quotients come from the per-modulus memo; the failures and their
        remainders still match the big residue, in both modes."""
        repeats = shared_factor_failures = 0
        for p in range(-3, 4):
            for q in range(-3, 4):
                params = SequenceParams(p, q)
                gs = oracles.g_values(p, q, 201)
                divisibility = oracles.divisibility_failures(p, q, (2, 3, 5, 6), 3, 200)
                for s, expected in divisibility.items():
                    shared_factor_failures += bool(expected) and math.gcd(q, s) > 1
                    for k in range(1, 4):
                        repeats += 201 - len({(gs[n] % s**k, gs[n + 1] % s**k) for n in range(201)})
                    for modular in (False, True):
                        found = list(
                            conclusion_failures(ClaimId.Thm1_1_MultDiv, params, s, range(4), range(201), modular=modular)
                        )
                        assert {(k, n) for k, n, _ in found} == set(expected), (p, q, s, modular)
                        for k, n, evidence in found:
                            witness = claims.witness(ClaimId.Thm1_1_MultDiv, params, n, *evidence)
                            assert witness["remainder"] == expected[k, n], (p, q, s, k, n)
        assert repeats > 0 and shared_factor_failures > 0

    @pytest.mark.parametrize("modular", [False, True])
    def test_blocks_match_one_walk_and_check_between_them(self, modular, monkeypatch):
        # Classical has both halves, and in exact mode, or in modular mode
        # where s does not divide r, no certificate decides either, so each
        # k >= 1 walks its modulus.
        ks, ns = range(3), range(31)
        grid = [
            (p, q, s)
            for p in range(-3, 4)
            for q in range(-3, 4)
            for s in (2, 3, 6)
            if not modular or (p * p + 4 * q) % s
        ]
        whole = {
            (p, q, s): list(conclusion_failures(ClaimId.Cor_Fibonacci, SequenceParams(p, q), s, ks, ns, modular=modular))
            for p, q, s in grid
        }
        assert any(whole.values())
        monkeypatch.setattr(claims, "_BLOCK", 4)
        for (p, q, s), want in whole.items():
            checks = []
            got = conclusion_failures(
                ClaimId.Cor_Fibonacci, SequenceParams(p, q), s, ks, ns, modular=modular, check=checks.append
            )
            assert list(got) == want, (p, q, s)
            # Once before each k, then between the 8 blocks of the moduli s and s^2.
            assert checks == [0] + [1] * 8 + [2] * 8, (p, q, s)

        def stop(k):
            raise RuntimeError("over budget")

        s = 2 if modular else 5  # 5 divides r = 5, so modular mode certifies it
        walk = conclusion_failures(ClaimId.Cor_Fibonacci, SequenceParams(1, 1), s, ks, ns, modular=modular, check=stop)
        with pytest.raises(RuntimeError, match="over budget"):
            list(walk)

    def test_exact_walk_memory_does_not_grow_with_n(self):
        # Both modes read the residues from one stream per modulus, in blocks,
        # so 40,001 indices hold a few residues, not G_0..G_40001 (about 72 MiB).
        tracemalloc.start()
        try:
            found = list(conclusion_failures(ClaimId.Thm1_1_Equiv, SequenceParams(1, 1), 5, (1,), range(40001)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == [] and peak < 2**20, peak

    def test_exact_walk_answers_past_the_term_ceiling(self):
        # 5 | n and the rank of apparition of 5 is 5, so 5 | F_n: both modes
        # decide the point from one fast-doubling seed, not 2,000,002 terms.
        for modular in (False, True):
            assert conclusion_holds(ClaimId.Thm1_1_Equiv, SequenceParams(1, 1), 5, 1, 2_000_000, modular=modular)

    @pytest.mark.parametrize(
        "claim", [ClaimId.Thm1_1_MultDiv, ClaimId.Cor_Fibonacci, ClaimId.Remark_Scaled]
    )
    def test_modular_holding_point_builds_no_table(self, claim, no_g_range):
        n = 10**30  # 5 | n, so the Fibonacci equivalence holds as well
        for modular in (False, True):
            assert conclusion_holds(claim, SequenceParams(1, 1), 5, 3, n, modular=modular)
            # A failing point's witness states G_n exactly, from g_exact, so it builds no table either:
            # 2*F_n | F_{2n} = F_n*L_n fails where 3 does not divide n.
            assert not conclusion_holds(claim, SequenceParams(1, 1), 2, 1, 1001, modular=modular)
            [(_, n, evidence)] = conclusion_failures(claim, SequenceParams(1, 1), 2, (1,), (1001,), modular=modular)
            witness = claims.witness(claim, SequenceParams(1, 1), n, *evidence)
            assert witness["g_n"] == g_exact(SequenceParams(1, 1), 1001)

    def test_modular_witness_past_the_term_ceiling(self, no_g_range):
        # 3 does not divide r = 5, so the residue is streamed, and 3*F_n | F_{3n}
        # fails at odd n; G_n comes from g_exact, not a 2,000,003-term table.
        for modular in (False, True):
            assert not conclusion_holds(ClaimId.Thm1_1_MultDiv, SequenceParams(1, 1), 3, 1, 2_000_001, modular=modular)

    def test_failing_point_computes_no_exact_value(self, monkeypatch):
        # The walk yields residue evidence, so a one-point check that fails
        # never states F_2000001 (about 1.4 million bits) for a witness.
        def no_exact(*args):
            raise AssertionError("exact value computed")

        monkeypatch.setattr(claims, "g_exact", no_exact)
        monkeypatch.setattr(verify, "g_exact", no_exact)
        for modular in (False, True):
            assert not conclusion_holds(ClaimId.Thm1_1_MultDiv, SequenceParams(1, 1), 3, 1, 2_000_001, modular=modular)

    def test_lift_condition_checks_every_block(self, monkeypatch):
        monkeypatch.setattr(claims, "_BLOCK", 4)
        checks = []
        lift = thm12_lift_condition(SequenceParams(1, 1), 5, 30, check=lambda: checks.append(1))
        assert lift == thm12_lift_condition(SequenceParams(1, 1), 5, 30) and lift.holds
        assert len(checks) == 7  # before t = 4, 8, ..., 28

    @pytest.mark.parametrize("modular", [False, True])
    @pytest.mark.parametrize("kind", list(ConclusionKind))
    def test_matches_direct_divisibility(self, kind, modular):
        claim = next(spec.claim for spec in REGISTRY if spec.conclusion is kind)
        k_max, n_max = 2, 15
        total = 0
        for p in range(-4, 5):
            for q in range(-4, 5):
                params = SequenceParams(p, q)
                gs = oracles.g_values(p, q, 8**k_max * n_max)
                for s in range(1, 9):
                    found = list(
                        conclusion_failures(
                            claim, params, s, range(k_max + 1), range(n_max + 1), modular=modular
                        )
                    )
                    points = [(k, n) for k, n, _ in found]
                    assert points == sorted(set(points)), (p, q, s)
                    scales = DEFAULT_SCALE_FACTORS if kind is ConclusionKind.SCALED else (1,)
                    assert set(points) == oracles.direct_failures(kind.value, gs, s, k_max, n_max, scales), (p, q, s)
                    total += len(points)
        assert total > 0

    def test_witness_shapes(self):
        params = SequenceParams(1, 1)
        _, n, evidence = next(conclusion_failures(ClaimId.Thm1_1_Equiv, params, 2, (1,), range(10)))
        equiv = claims.witness(ClaimId.Thm1_1_Equiv, params, n, *evidence)
        assert list(equiv) == ["s_pow", "s_pow_divides_n", "s_pow_divides_g", "g_residue"]
        # Fibonacci at s = 2: 2*F_1 = 2 does not divide F_2 = 1, so the
        # divisibility half fails first although 2 | 1 <=> 2 | F_1 holds.
        k, n, evidence = next(conclusion_failures(ClaimId.Cor_Fibonacci, params, 2, (1,), range(10)))
        classical = claims.witness(ClaimId.Cor_Fibonacci, params, n, *evidence)
        assert (k, n) == (1, 1)
        assert classical == {"divisor": 2, "index": 2, "g_n": 1, "remainder": 1}

    def test_each_modulus_evaluated_once_and_lazily(self, monkeypatch):
        streams = []  # [modulus, residues drawn] for each residue stream opened

        def counting_pairs(params, ns, m):
            drawn = [m, 0]
            streams.append(drawn)
            for pair in g_pairs_mod(params, ns, m):
                drawn[1] += 1
                yield pair

        monkeypatch.setattr(claims, "g_pairs_mod", counting_pairs)
        params = SequenceParams(4, 1)  # 20 | G_10 but 20 does not divide 10
        found = list(
            conclusion_failures(ClaimId.Thm1_2_BaseEquiv, params, 20, range(4), range(31), modular=True)
        )
        assert streams == [[20, 31]]
        assert [(k, n) for k, n, _ in found] == [(k, n) for k in (1, 2, 3) for n in (10, 30)]
        streams.clear()
        first = next(
            conclusion_failures(ClaimId.Thm1_2_BaseEquiv, params, 20, (1,), range(1000), modular=True)
        )
        assert first[:2] == (1, 10)
        assert streams == [[20, 11]]

    def test_cassini(self):
        """(-q)^n = G_{n+1}^2 - p*G_n*G_{n+1} - q*G_n^2, so the pair fixes (-q)^n."""
        for p in range(-9, 10):
            for q in range(-9, 10):
                gs = g_range(SequenceParams(p, q), 61)
                for n in range(61):
                    assert (-q) ** n == gs[n + 1] ** 2 - p * gs[n] * gs[n + 1] - q * gs[n] ** 2, (p, q, n)

    def test_one_quotient_per_orbit_state(self, monkeypatch):
        """On the Corollary 1.4 checks at k <= 5, n <= 5000, in exact mode (modular
        mode certifies them, as s | r, and computes no quotient), W
        mod s^k is computed once for each distinct (s^k, V_n mod s^k,
        (-q)^n mod s^k), where V_n = 2*G_{n+1} - p*G_n: not once per index, nor
        once per distinct (G_n, G_{n+1}) mod s^k (8,909 of those).  The cache
        starts empty, and each miss calls _pair_mod(V_n, -(-q)^n, d, d) once."""
        calls = []

        def recording_pair_mod(v, minus_q_pow, n, d):
            calls.append((d, v, -minus_q_pow))
            return pair_mod(v, minus_q_pow, n, d)

        pair_mod = claims._pair_mod
        monkeypatch.setattr(claims, "_pair_mod", recording_pair_mod)
        total = 0
        for claim, p, q, s in (
            (ClaimId.Cor_Fibonacci, 1, 1, 5),
            (ClaimId.Cor_Pell, 2, 1, 2),
            (ClaimId.Cor_Jacobsthal, 1, 2, 3),
        ):
            calls.clear()
            params = SequenceParams(p, q)
            assert not list(conclusion_failures(claim, params, s, range(6), range(5001)))
            gs = g_range(params, 5001)
            states = {
                (s**k, (2 * gs[n + 1] - p * gs[n]) % s**k, pow(-q, n, s**k))
                for k in range(1, 6)
                for n in range(5001)
            }
            assert sorted(calls) == sorted(states), claim
            total += len(calls)
        assert total == 1575

    def test_shared_memo_matches_fresh_memo_and_big_residue(self, monkeypatch):
        """The process-wide quotient cache, shared by every cell, s, kind and
        mode, gives the failures of a fresh cache per call, and each
        divisibility remainder is the residue of the big index modulo the
        whole divisor."""
        shared_memo = claims._lifted_quotient
        fresh_states = zero_points = divisibility_failures = 0
        kinds = (ConclusionKind.MULT_DIV, ConclusionKind.SCALED, ConclusionKind.CLASSICAL)
        for p in range(-6, 7):
            for q in range(-6, 7):
                params = SequenceParams(p, q)
                gs = oracles.g_values(p, q, 21)
                zero_points += sum(g == 0 for g in gs[1:21])
                for s in range(1, 13):  # s need not divide r, so failures occur
                    residues = {}  # (index, |divisor|) -> G_index mod |divisor|
                    for kind, modular in itertools.product(kinds, (False, True)):
                        claim = next(spec.claim for spec in REGISTRY if spec.conclusion is kind)
                        scale = DEFAULT_SCALE_FACTORS[0] if kind is ConclusionKind.SCALED else 1
                        shared = list(conclusion_failures(claim, params, s, range(4), range(21), modular=modular))
                        fresh_memo = functools.lru_cache(maxsize=None)(shared_memo.__wrapped__)
                        with monkeypatch.context() as patch:
                            patch.setattr(claims, "_lifted_quotient", fresh_memo)
                            fresh = list(conclusion_failures(claim, params, s, range(4), range(21), modular=modular))
                        fresh_states += fresh_memo.cache_info().misses
                        assert shared == fresh, (kind, p, q, s, modular)
                        for k, n, evidence in shared:
                            witness = claims.witness(claim, params, n, *evidence)
                            if "divisor" in witness:
                                divisibility_failures += 1
                                modulus = abs(scale * s**k * gs[n])
                                if (s**k * n, modulus) not in residues:
                                    residues[s**k * n, modulus] = oracles.mat_g_mod(p, q, s**k * n, modulus)
                                remainder = residues[s**k * n, modulus] * scale % modulus
                                assert witness["remainder"] == remainder, (kind, p, q, s, k, n)
        assert zero_points > 0 and divisibility_failures > 0
        assert shared_memo.cache_info().misses < fresh_states

    def test_s_below_one_rejected(self):
        for s in (0, -5):
            with pytest.raises(InputError, match="s must be >= 1"):
                conclusion_holds(ClaimId.Thm1_1_Equiv, SequenceParams(1, 1), s, 1, 3)


class TestRankCertificate:
    """Modular mode skips the residue stream of an equivalence modulus d = s^j
    whose rank of apparition _rank finds to be d, where gcd(q, s) = 1 and each
    prime of s divides r; exact mode never certifies."""

    @staticmethod
    def _certified(params, s, j, factors):
        return _rank(params, s**j, [(ell, e * j) for ell, e in factors]) == s**j

    @pytest.mark.parametrize(
        "claim", [ClaimId.Thm1_1_Equiv, ClaimId.Thm1_2_BaseEquiv, ClaimId.Thm1_2_LiftedEquiv]
    )
    def test_modular_matches_exact(self, claim, monkeypatch):
        def forbidden(*args):
            raise AssertionError("exact mode used the certificate")

        grid = [(p, q, s) for p in range(-6, 7) for q in range(-6, 7) for s in range(1, 25)]
        ks, ns = range(4), range(121)
        monkeypatch.setattr(claims, "_rank", forbidden)
        exact = {
            (p, q, s): list(conclusion_failures(claim, SequenceParams(p, q), s, ks, ns)) for p, q, s in grid
        }
        asked = []  # (params, d, certified) for each modulus the certificate decided

        def recording(params, d, primes):
            rank = _rank(params, d, primes)
            asked.append((params, d, rank == d))
            return rank

        monkeypatch.setattr(claims, "_rank", recording)
        for p, q, s in grid:
            modular = list(conclusion_failures(claim, SequenceParams(p, q), s, ks, ns, modular=True))
            assert modular == exact[p, q, s], (p, q, s)
        assert all(math.gcd(params.q, d) == 1 and pow(params.r, d, d) == 0 for params, d, _ in asked)
        assert {held for _, _, held in asked} == {True, False}
        # The grid holds failures at q = 0, at p = 0 and where gcd(q, s) > 1,
        # which the certificate never decides.
        assert any(exact[p, 0, s] for p in range(-6, 7) for s in range(2, 25))
        assert any(exact[0, q, s] for q in range(-6, 7) for s in range(2, 25))
        assert any(exact[p, q, s] for p, q, s in grid if math.gcd(q, s) > 1)

    def test_certificate_matches_the_orbit_walk_rank(self):
        # On |p|,|q| <= 8, gcd(q, s) = 1 and d = s^k <= 1,000, _rank reads
        # alpha(d) = d from the primes of s^k exactly where the rank of d is d.
        # d | G_d is part of that, so the orbit walk runs only where it holds.
        moduli = [(s, k) for s in range(2, 1001) for k in range(1, 10) if s**k <= 1000]
        held = 0
        for p in range(-8, 9):
            for q in range(-8, 9):
                for s, k in moduli:
                    if math.gcd(q, s) == 1:
                        d = s**k
                        rank_is_d = oracles.mat_g_mod(p, q, d, d) == 0 and oracles.brute_rank(p, q, d) == d
                        assert self._certified(SequenceParams(p, q), s, k, factorize(s)) == rank_is_d, (p, q, s, d)
                        held += rank_is_d
        assert held == 5624

    def test_rank_matches_the_orbit_walk(self):
        # alpha(d) from the laws of apparition and repetition, on |p|,|q| <= 12
        # and 2 <= d < 200: p = 0, r = 0, d = 2^e, odd prime powers, primes
        # dividing r and primes that do not, and gcd(q, d) > 1, where a prime
        # of d that divides q but not p leaves no rank (None).
        compared, shared, none = 0, 0, 0
        for p in range(-12, 13):
            for q in range(-12, 13):
                for d in range(2, 200):
                    rank = _rank(SequenceParams(p, q), d)
                    assert rank == oracles.brute_rank(p, q, d), (p, q, d)
                    compared += 1
                    shared += math.gcd(q, d) > 1
                    none += rank is None
        assert (compared, shared, none) == (123750, 49800, 30962)

    def test_rank_checks_while_l_minus_r_over_l_is_factored(self):
        # l = 46*(10^9 + 7)(10^9 + 9) - 1 is prime and (5/l) = -1: rho takes
        # 12 blocks of 2^12 steps to split l + 1, so check runs between them.
        fibonacci, ell = SequenceParams(1, 1), 46000000736000002897
        rank = _rank(fibonacci, ell, [(ell, 1)])
        assert (ell + 1) % rank == 0 and oracles.mat_g_mod(1, 1, rank, ell) == 0

        def over():
            raise ResourceLimitError("over budget")

        with pytest.raises(ResourceLimitError):
            _rank(fibonacci, ell, [(ell, 1)], check=over)

    def test_certificate_factors_only_s(self, monkeypatch):
        # Where each prime of s divides r, alpha's descent starts from d itself,
        # so no l - (r/l) is factored, also where s does not divide r.
        def forbidden(*args, **kwargs):
            raise AssertionError("the certificate factored a number")

        factors = {s: factorize(s) for s in range(2, 40)}
        monkeypatch.setattr(claims, "factorize", forbidden)
        held = declined = 0
        for p in range(-6, 7):
            for q in range(-6, 7):
                r = SequenceParams(p, q).r
                for s in range(2, 40):
                    if math.gcd(q, s) == 1 and r % s and all(r % ell == 0 for ell, _ in factors[s]):
                        for k in (1, 2):
                            certified = self._certified(SequenceParams(p, q), s, k, factors[s])
                            assert certified == (oracles.brute_rank(p, q, s**k) == s**k), (p, q, s, k)
                            held += certified
                            declined += not certified
        assert held > 0 and declined > 0

    @staticmethod
    def _streams(monkeypatch):
        streams = []  # the modulus of each residue stream opened

        def counting_pairs(params, ns, m):
            streams.append(m)
            return g_pairs_mod(params, ns, m)

        monkeypatch.setattr(claims, "g_pairs_mod", counting_pairs)
        return streams

    def test_certified_modulus_opens_no_stream(self, monkeypatch):
        streams = self._streams(monkeypatch)
        fibonacci = SequenceParams(1, 1)  # alpha(5^k) = 5^k
        assert list(conclusion_failures(ClaimId.Thm1_1_Equiv, fibonacci, 5, range(4), range(500), modular=True)) == []
        assert list(conclusion_failures(ClaimId.Thm1_2_BaseEquiv, fibonacci, 5, range(4), range(500), modular=True)) == []
        assert streams == []

    def test_declined_modulus_keeps_its_stream(self, monkeypatch):
        streams = self._streams(monkeypatch)
        # alpha(20) = 10 at (4, 1): 20 | G_10, so 20 is not certified.
        found = list(conclusion_failures(ClaimId.Thm1_1_Equiv, SequenceParams(4, 1), 20, (1,), range(31), modular=True))
        assert [n for _, n, _ in found] == [10, 30]
        assert streams == [20]
        # gcd(q, s) = 2 at (2, 2), s = 2: no certificate is tried.
        ns = range(31)
        exact = list(conclusion_failures(ClaimId.Thm1_1_Equiv, SequenceParams(2, 2), 2, range(3), ns))
        streams.clear()  # exact mode streams every modulus; count the modular call's alone
        found = list(conclusion_failures(ClaimId.Thm1_1_Equiv, SequenceParams(2, 2), 2, range(3), ns, modular=True))
        assert found == exact
        assert streams == [2, 4]

    def test_unfactored_modulus_keeps_its_stream(self, monkeypatch):
        streams = self._streams(monkeypatch)
        # s = psi_12 = r at (1, (psi_12 - 1)/4) is a strong pseudoprime to
        # every base, so factorize leaves it unsplit and the stream decides.
        s = 318665857834031151167461
        params = SequenceParams(1, (s - 1) // 4)
        assert list(conclusion_failures(ClaimId.Thm1_1_Equiv, params, s, range(3), range(201), modular=True)) == []
        assert streams == [s, s * s]


class TestResidueLemma:
    """L(s): G_s(a, b) = 0 (mod s) for every residue pair (a, b) mod s with
    s | a^2 + 4b.  It holds for every s, by the repeated-root closed form and
    the Lucas product (the proof in conclusion_failures); with s | r it gives
    the divisibility half for every k and n, so modular mode walks no stream
    there, while exact mode walks every point.  No code enumerates the
    lemma's pairs any more; only oracles.residue_lemma_pairs does, here."""

    def test_pairs_match_a_scan_of_every_pair(self):
        total = 0
        for s in range(1, 301):
            pairs = oracles.residue_lemma_pairs(s)
            assert all(oracles.mat_g_mod(a, b, s, s) == 0 for a, b in pairs), s
            total += len(pairs)
        assert total == 1 + 56549  # s = 1 has the one pair (0, 0)

    def test_repeated_root_closed_form(self):
        # G_n(2c, -c^2) = n*c^(n-1): r = 0, the root c repeated.
        for c in range(-7, 8):
            gs = g_range(SequenceParams(2 * c, -c * c), 40)
            assert gs == [n * c ** (n - 1) if n else 0 for n in range(41)], c

    def test_lucas_product(self):
        """G_{s^k*n} = G_n * W_0 ... W_{k-1}, exactly, where W_j is G_s of
        <V_m, -(-q)^m>, m = s^j*n, V_m = 2*G_{m+1} - p*G_m, a sequence of
        discriminant r*G_m^2: so where s | r, L(s) makes each W_j = 0 mod s."""
        divisible = 0
        for p in range(-3, 4):
            for q in range(-3, 4):
                params = SequenceParams(p, q)
                gs = g_range(params, 4**3 * 5 + 1)
                for s in range(1, 5):
                    for k in range(4):
                        for n in range(6):
                            product = gs[n]
                            for j in range(k):
                                m = s**j * n
                                v, b = 2 * gs[m + 1] - p * gs[m], -((-q) ** m)
                                assert v * v + 4 * b == params.r * gs[m] ** 2, (p, q, m)
                                w = g_exact(SequenceParams(v, b), s)
                                if params.r % s == 0:
                                    assert w % s == 0, (p, q, s, m)
                                    divisible += 1
                                product *= w
                            assert gs[s**k * n] == product, (p, q, s, k, n)
        assert divisible > 0

    # The acceptance gate's grids: criterion 2's sweeps, and criterion 4's checks.
    GATES = [
        (claim, SweepConfig(p_range=(-8, 8), q_range=(-8, 8), s_source=source, k_max=3, n_max=40))
        for claim in (ClaimId.Thm1_1_MultDiv, ClaimId.Remark_Scaled)
        for source in ("divisors-of-r", "divisors-of-r4")
    ] + [
        (claim, SweepConfig(p_range=(p, p), q_range=(q, q), s_source=(s,), k_max=5, n_max=5000))
        for claim, p, q, s in (
            (ClaimId.Cor_Fibonacci, 1, 1, 5),
            (ClaimId.Cor_Pell, 2, 1, 2),
            (ClaimId.Cor_Jacobsthal, 1, 2, 3),
        )
    ]

    @pytest.mark.parametrize("claim,config", GATES, ids=[f"{c.value}-{i}" for i, (c, _) in enumerate(GATES)])
    def test_fast_path_matches_exact(self, claim, config, monkeypatch):
        streams = []
        monkeypatch.setattr(claims, "g_pairs_mod", lambda params, ns, m: streams.append(m) or g_pairs_mod(params, ns, m))
        exact = verify_claim(claim, config._replace(mode=Mode.EXACT))
        assert streams  # exact mode certifies nothing: it walks the points
        streams.clear()
        modular = verify_claim(claim, config._replace(mode=Mode.MODULAR))
        assert (modular.points_checked, modular.violations, modular.verdict) == (
            exact.points_checked, exact.violations, exact.verdict
        )
        assert exact.verdict is Verdict.ALL_PASS and exact.points_checked > 0
        # Every s of these grids divides r, and the Corollary 1.4 moduli also
        # have their rank certified: no residue stream is opened.
        assert streams == []

    @pytest.mark.parametrize("claim", [ClaimId.Thm1_1_MultDiv, ClaimId.Cor_Fibonacci, ClaimId.Remark_Scaled])
    def test_certified_point_still_draws_every_k(self, claim, monkeypatch):
        # Drawing each k is what runs the caller's budget check before it.
        def no_stream(*args):
            raise AssertionError("a residue stream was opened")

        monkeypatch.setattr(claims, "g_pairs_mod", no_stream)
        drawn = []
        ks = (drawn.append(k) or k for k in range(6))
        assert list(conclusion_failures(claim, SequenceParams(1, 1), 5, ks, range(100), modular=True)) == []
        assert drawn == list(range(6))


class TestDivisibilityCertificate:
    """Modular mode's divisibility certificate where s | r: L(s)
    (TestResidueLemma) gives the divisibility half for every k and n, so
    modular mode walks no stream there, while exact mode walks every point."""

    def test_every_s_dividing_r_is_certified(self, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a residue stream was opened")

        monkeypatch.setattr(claims, "g_pairs_mod", no_stream)
        # s = r at each cell, up to the prime 10^18 + 9: s is neither factored
        # nor bounded.
        for s, params in (
            (2**13, SequenceParams(0, 2**11)),
            (3 * 2**13, SequenceParams(0, 3 * 2**11)),
            (65537, SequenceParams(1, 16384)),
            (10**18 + 9, SequenceParams(1, (10**18 + 8) // 4)),
        ):
            assert params.r == s
            for claim in (ClaimId.Thm1_1_MultDiv, ClaimId.Remark_Scaled):
                assert list(conclusion_failures(claim, params, s, range(4), range(201), modular=True)) == [], s

    def test_r_zero_cells_hold_in_both_modes(self, monkeypatch):
        # At r = 0 every s divides r, so the certificate covers every s; the
        # r-nonzero search probes just those cells, here (2, -1) and (4, -4).
        streams = []
        monkeypatch.setattr(claims, "g_pairs_mod", lambda params, ns, m: streams.append(m) or g_pairs_mod(params, ns, m))
        bounds = SweepConfig(p_range=(2, 4), q_range=(-4, -1), s_source=(2, 4096, 8192, 65537), k_max=2, n_max=40)
        assert list(iter_counterexamples(ClaimId.Thm1_1_MultDiv, "r-nonzero", bounds)) == []
        assert len(streams) == 2 * 4 * 2  # exact mode walks each cell, s and k >= 1
        streams.clear()
        modular = bounds._replace(mode=Mode.MODULAR)
        assert list(iter_counterexamples(ClaimId.Thm1_1_MultDiv, "r-nonzero", modular)) == []
        assert streams == []

    def test_relaxed_search_keeps_its_counterexamples(self):
        # Where s does not divide r, the lemma says nothing, so the stream decides.
        bounds = SweepConfig(p_range=(-4, 4), q_range=(-4, 4), s_source=range(1, 7), k_max=2, n_max=12)
        modular = list(iter_counterexamples(ClaimId.Thm1_1_MultDiv, "s-div-r", bounds._replace(mode=Mode.MODULAR)))
        assert len(modular) == 4544
        assert modular == list(iter_counterexamples(ClaimId.Thm1_1_MultDiv, "s-div-r", bounds))


class TestSoundness:
    """Wherever a hypothesis holds on a small grid, its conclusion holds."""

    @pytest.mark.parametrize("claim", list(ClaimId))
    def test_small_grid(self, claim):
        checked = 0
        for p in range(-4, 5):
            for q in range(-4, 5):
                params = SequenceParams(p, q)
                for s in range(1, 13):
                    if not hypothesis_check(claim, params, s).applicable:
                        continue
                    if (
                        claim is ClaimId.Thm1_2_LiftedEquiv
                        and s >= 2
                        and not thm12_lift_condition(params, s, 30).holds
                    ):
                        continue
                    for k in range(0, 3):
                        for n in range(0, 15):
                            assert conclusion_holds(claim, params, s, k, n), (p, q, s, k, n)
                            checked += 1
        assert checked > 0


class TestCaseThreeReduction:
    def test_even_p_odd_prime_s_dividing_r_also_divides_r4(self):
        # When 4 | r, any odd prime s | r also divides r/4, so for even p the
        # prime case of the base equivalence is subsumed by the p-even case.
        for p in range(-8, 9, 2):
            for q in range(-8, 9):
                r = p * p + 4 * q
                if r == 0 or r % 4 != 0:
                    continue
                for s in range(3, abs(r) + 1, 2):
                    if is_prime(s) and r % s == 0:
                        assert (r // 4) % s == 0, (p, q, s)


class TestLiftCondition:
    def test_matches_per_t_oracle_on_grid(self):
        # The grid holds q = 0, p = q = 0, gcd(q, s) > 1 and s not dividing r.
        seen = set()
        for p in range(-12, 13):
            for q in range(-12, 13):
                params = SequenceParams(p, q)
                for s in range(2, 40):
                    lift = thm12_lift_condition(params, s, 60)
                    first = oracles.lift_failure(p, q, s, 60)
                    assert lift == claims.LiftCheck(holds=first is None, t_max=60, first_failing_t=first), (p, q, s)
                    seen.add(lift.holds)
        assert seen == {True, False}

    @pytest.mark.parametrize("p,q,s", [(1, 1, 5), (1, 4, 17)])
    def test_matches_per_t_oracle_far(self, p, q, s):
        params = SequenceParams(p, q)
        lift = thm12_lift_condition(params, s, 200_000)
        assert oracles.lift_failure(p, q, s, 200_000) is None
        assert lift == claims.LiftCheck(holds=True, t_max=200_000)

    @pytest.mark.parametrize("p,q,s,t", [(3, -2, 7, 3), (-10, -1, 12, 4)])
    def test_pinned_first_failing_t(self, p, q, s, t):
        params = SequenceParams(p, q)
        assert thm12_lift_condition(params, s, 100) == claims.LiftCheck(holds=False, t_max=100, first_failing_t=t)
        assert g_exact(params, s * t) % (s * s) == 0

    def test_holds_for_fibonacci_s5(self):
        check = thm12_lift_condition(SequenceParams(1, 1), 5, 100)
        assert check.holds and check.first_failing_t is None and check.t_max == 100

    def test_reports_failing_t(self):
        # p=4, q=1 (r=20, r/4=5): s=2 divides r/4, but G_2 = 4 so 4 | G_{2*1}.
        check = thm12_lift_condition(SequenceParams(4, 1), 2, 10)
        assert not check.holds
        assert check.first_failing_t == 1
        assert g_exact(SequenceParams(4, 1), 2 * 1) % 4 == 0

    def test_bad_s(self):
        with pytest.raises(InputError):
            thm12_lift_condition(SequenceParams(1, 1), 1, 10)

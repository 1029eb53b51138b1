import json
from collections import Counter
from dataclasses import replace

import pytest

from gfibdiv import (
    ClaimId,
    InputError,
    Mode,
    ResourceLimitError,
    SequenceParams,
    SweepConfig,
    Verdict,
    conclusion_holds,
    converse_survey,
    divides,
    g_exact,
    g_range,
    identity_suite,
    iter_counterexamples,
    rank_of_apparition,
    reproduce_examples,
    search_counterexample,
    verify_claim,
)
from gfibdiv import claims, reporting, verify
from gfibdiv.claims import conclusion_failures


def small_config(**overrides) -> SweepConfig:
    base = dict(p_range=(-4, 4), q_range=(-4, 4), k_max=2, n_max=20)
    base.update(overrides)
    return SweepConfig(**base)


class TestVerifyClaim:
    def test_multdiv_all_pass(self):
        report = verify_claim(ClaimId.Thm1_1_MultDiv, small_config())
        assert report.verdict is Verdict.ALL_PASS
        assert report.points_checked > 0
        assert report.violations == ()

    def test_never_applicable(self):
        report = verify_claim(
            ClaimId.Thm1_1_Equiv, small_config(p_range=(3, 3), q_range=(9, 9))
        )
        assert report.verdict is Verdict.NEVER_APPLICABLE
        assert report.points_checked == 0

    def test_one_exact_table_per_cell(self, monkeypatch):
        built = Counter()  # (p, q) -> exact tables built by the sweep and the evaluator

        def counting_range(params, n_max, **kwargs):
            built[params.p, params.q] += 1
            return g_range(params, n_max, **kwargs)

        monkeypatch.setattr(verify, "g_range", counting_range)
        monkeypatch.setattr(claims, "g_range", counting_range)
        report = verify_claim(ClaimId.Thm1_1_MultDiv, small_config())  # exact mode
        assert report.verdict is Verdict.ALL_PASS
        # The hypothesis holds at every s | r, r != 0, and s = 1 needs no table.
        assert set(built.values()) == {1}
        assert set(built) == {(p, q) for p in range(-4, 5) for q in range(-4, 5) if abs(p * p + 4 * q) > 1}

    def test_cell_without_s_evaluates_no_condition(self):
        # r = psi_12 is odd, so the cell has no divisor of r/4 to try, and the
        # undecidable r-prime is never evaluated.
        q = (318665857834031151167461 - 1) // 4
        config = small_config(p_range=(1, 1), q_range=(q, q), s_source="divisors-of-r4")
        assert verify_claim(ClaimId.Cor_PrimeR, config).verdict is Verdict.NEVER_APPLICABLE

    def test_lift_gate_excludes_failing_cell(self):
        # At (p, q, s) = (5, 2, 3) the base hypothesis applies but the lift
        # condition fails at t = 1, so the lifted claim skips that s and the
        # sweep still passes -- even though the k=2 equivalence is false there.
        params = SequenceParams(5, 2)
        assert not conclusion_holds(ClaimId.Thm1_2_LiftedEquiv, params, 3, 2, 3)
        report = verify_claim(
            ClaimId.Thm1_2_LiftedEquiv, small_config(p_range=(5, 5), q_range=(2, 2))
        )
        assert report.verdict is Verdict.ALL_PASS

    @pytest.mark.parametrize("mode", list(Mode))
    def test_lifted_violation_pinned(self, mode):
        # (p, q, s) = (-10, -1, 12): the lift condition holds for t <= 3 but
        # not t <= 50, and 144 | G_48 although 144 does not divide 48.
        config = SweepConfig(
            p_range=(-10, -10), q_range=(-1, -1), s_source=(12,), k_max=2, n_max=48, t_max=3, mode=mode
        )
        report = verify_claim(ClaimId.Thm1_2_LiftedEquiv, config)
        assert report.verdict is Verdict.VIOLATIONS
        assert report.points_checked == 147
        [violation] = report.violations
        assert (violation.p, violation.q, violation.s, violation.k, violation.n) == (-10, -1, 12, 2, 48)
        assert violation.witness == {
            "s_pow": 144, "s_pow_divides_n": False, "s_pow_divides_g": True, "g_residue": 0,
        }
        gated = verify_claim(ClaimId.Thm1_2_LiftedEquiv, replace(config, t_max=50))
        assert gated.verdict is Verdict.NEVER_APPLICABLE

    def test_worker_counts_agree(self):
        config1 = small_config(p_range=(-3, 3), q_range=(-3, 3))
        config2 = small_config(p_range=(-3, 3), q_range=(-3, 3), worker_count=2)
        r1 = verify_claim(ClaimId.Thm1_1_Equiv, config1)
        r2 = verify_claim(ClaimId.Thm1_1_Equiv, config2)
        assert reporting.report_to_dict(r1) == reporting.report_to_dict(r2)

    def test_exact_and_modular_agree(self):
        base = dict(p_range=(-4, 4), q_range=(-4, 4), k_max=3, n_max=60)
        for claim in (ClaimId.Thm1_1_Equiv, ClaimId.Thm1_2_BaseEquiv, ClaimId.Cor_Square):
            exact = reporting.report_to_dict(
                verify_claim(claim, SweepConfig(mode=Mode.EXACT, **base))
            )
            modular = reporting.report_to_dict(
                verify_claim(claim, SweepConfig(mode=Mode.MODULAR, **base))
            )
            exact["config"].pop("mode")
            modular["config"].pop("mode")
            assert exact == modular

    def test_time_budget(self):
        with pytest.raises(ResourceLimitError):
            verify_claim(ClaimId.Thm1_1_Equiv, small_config(time_budget_s=0.0))

    def test_time_budget_stops_the_sweep(self, monkeypatch):
        cells = []

        def counting_cell(args):
            cells.append(args[2:])
            return sweep_cell(args)

        sweep_cell = verify._sweep_cell
        monkeypatch.setattr(verify, "_sweep_cell", counting_cell)
        config = small_config(p_range=(-3, 3), q_range=(-3, 3), time_budget_s=0.0)
        with pytest.raises(ResourceLimitError, match="1 of 49 cells"):
            verify_claim(ClaimId.Thm1_1_Equiv, config)
        assert cells == [(-3, -3)]

    def test_time_budget_stops_the_pool(self):
        config = small_config(worker_count=2, time_budget_s=0.0)
        with pytest.raises(ResourceLimitError, match="1 of 81 cells"):
            verify_claim(ClaimId.Thm1_1_Equiv, config)

    def test_empty_range_rejected(self):
        with pytest.raises(InputError):
            verify_claim(ClaimId.Thm1_1_MultDiv, small_config(p_range=(3, 1)))

    @pytest.mark.parametrize(
        "field,value",
        [("p_range", (3, 1)), ("q_range", (0, -1)), ("time_budget_s", -1.0), ("time_budget_s", float("nan"))],
    )
    def test_bad_config_names_the_field(self, field, value):
        with pytest.raises(InputError, match=field):
            small_config(**{field: value})


class TestGrid:
    CONFIG = SweepConfig(p_range=(-1, 2), q_range=(-1, 0))

    def test_canonical_order(self):
        assert verify._cells(self.CONFIG) == [
            (-1, -1), (-1, 0), (0, -1), (0, 0), (1, -1), (1, 0), (2, -1), (2, 0),
        ]

    def test_scan_order(self):
        assert verify._cells(self.CONFIG, scan=True) == [
            (0, 0), (0, -1), (1, 0), (1, -1), (-1, 0), (-1, -1), (2, 0), (2, -1),
        ]

    def test_grid_yields_each_cells_s_values(self):
        config = SweepConfig(p_range=(1, 2), q_range=(1, 1))
        assert [(params.p, params.q, s) for params, s in verify._grid(config, "test")] == [
            (1, 1, 1), (1, 1, 5), (2, 1, 1), (2, 1, 2), (2, 1, 4), (2, 1, 8),
        ]


class TestDivisibilitySequence:
    @pytest.mark.parametrize("p", range(-8, 9, 2))
    @pytest.mark.parametrize("q", [-8, -5, -1, 1, 3, 8])
    def test_g_n_divides_g_kn(self, p, q):
        params = SequenceParams(p, q)
        gs = g_range(params, 30 * 8)
        for n in range(31):
            for k in range(1, 9):
                assert divides(gs[n], gs[k * n]), (p, q, n, k)


class TestIdentitySuite:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (-3, 5), (4, -2), (0, 3)])
    def test_all_pass(self, p, q):
        results = identity_suite(SequenceParams(p, q), n_max=20, s_list=[2, 3])
        assert all(r.passed for r in results), [(r.name, r.first_failure) for r in results]
        names = {r.name for r in results}
        assert {"closed-form-pair", "b-to-g-bridge", "power-step", "quadratic"} <= names
        if p % 2 == 0:
            assert {"g-half-expansion", "a-half-integer"} <= names
        else:
            assert "g-half-expansion" not in names

    def test_bad_n_max(self):
        with pytest.raises(InputError):
            identity_suite(SequenceParams(1, 1), n_max=0, s_list=[2])


class TestGoldenExamples:
    def test_all_twelve_pass(self):
        results = reproduce_examples()
        assert len(results) == 12
        assert all(r.passed for r in results), [r.example for r in results if not r.passed]

    def test_specific_values(self):
        by_id = {r.example: r for r in reproduce_examples()}
        assert by_id["2.3"].observed["G_10"] == 416020
        assert by_id["2.7"].observed["12|G_6"] is True
        assert by_id["2.7"].observed["12|6"] is False
        assert by_id["2.11"].q == -5


class TestCounterexampleSearch:
    BOUNDS = SweepConfig(p_range=(-6, 6), q_range=(-6, 6), s_source=tuple(range(1, 13)), k_max=2, n_max=12)

    def test_gcd_relaxation_finds_first(self):
        first = search_counterexample(ClaimId.Thm1_1_Equiv, "gcd-pq", self.BOUNDS)
        assert first is not None
        assert first.relaxed_condition == "gcd-pq"
        # sanity: at that point s^k really does split n and G_n differently
        params = SequenceParams(first.p, first.q)
        d = first.s**first.k
        assert (first.n % d == 0) != (g_exact(params, first.n) % d == 0)

    def test_scan_order_minimality(self):
        found = list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", self.BOUNDS))
        assert found

        def key(ce):
            return (abs(ce.p), ce.p < 0, abs(ce.q), ce.q < 0, ce.s, ce.n, ce.k)

        assert [key(ce) for ce in found] == sorted(key(ce) for ce in found)
        assert found[0] == search_counterexample(ClaimId.Thm1_1_Equiv, "gcd-pq", self.BOUNDS)

    def test_unknown_condition_rejected(self):
        with pytest.raises(InputError):
            search_counterexample(ClaimId.Thm1_1_Equiv, "no-such-condition", self.BOUNDS)

    def test_none_when_out_of_bounds(self):
        tight = SweepConfig(p_range=(1, 1), q_range=(1, 1), s_source=(5,), k_max=1, n_max=5)
        assert search_counterexample(ClaimId.Thm1_1_Equiv, "gcd-pq", tight) is None

    def test_classical_witness_names_failed_half(self):
        # At Fibonacci with s = 2, n = 1 the equivalence 2 | 1 <=> 2 | F_1
        # holds; the divisibility half fails: 2*F_1 = 2 does not divide F_2 = 1.
        bounds = SweepConfig(p_range=(1, 1), q_range=(1, 1), s_source=(2,), k_max=1, n_max=6)
        first = next(iter_counterexamples(ClaimId.Cor_Fibonacci, "s-eq-5", bounds))
        assert (first.s, first.k, first.n) == (2, 1, 1)
        assert set(first.witness) == {"divisor", "index", "g_n", "dividend_g"}
        assert (first.witness["divisor"], first.witness["index"], first.witness["dividend_g"]) == (2, 2, 1)

    def test_witness_shapes(self):
        equiv = search_counterexample(ClaimId.Thm1_1_Equiv, "gcd-pq", self.BOUNDS)
        assert {"s_pow", "s_pow_divides_n", "s_pow_divides_g", "g_n"} <= set(equiv.witness)
        multdiv = search_counterexample(ClaimId.Thm1_1_MultDiv, "s-div-r", self.BOUNDS)
        if multdiv is not None:
            assert {"divisor", "index", "g_n", "dividend_g"} <= set(multdiv.witness)


    def test_one_exact_table_per_cell(self, monkeypatch):
        built = Counter()  # (p, q) -> exact tables built by the search and the evaluator

        def counting_range(params, n_max, **kwargs):
            built[params.p, params.q] += 1
            return g_range(params, n_max, **kwargs)

        monkeypatch.setattr(verify, "g_range", counting_range)
        monkeypatch.setattr(claims, "g_range", counting_range)
        # Example 2.2 under criterion 6's bounds
        bounds = SweepConfig(p_range=(-10, 10), q_range=(-10, 10), s_source=tuple(range(1, 21)), k_max=2, n_max=12)
        spec = claims.claim_spec(ClaimId.Thm1_1_Equiv)
        qualifying = set()
        for params, s in verify._grid(bounds, "search"):
            values = claims._evaluate_conditions(spec, params.p, params.q, s)
            relaxed = {**values, "gcd-pq": True}
            if not values["gcd-pq"] and not claims._applicable(spec, values) and claims._applicable(spec, relaxed):
                qualifying.add((params.p, params.q))
        # Exact mode decides every qualifying point from the cell's one table;
        # the parent commit built 216 here, one per s in the evaluator.
        found = list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", bounds))
        assert len(qualifying) == 92 and set(built) == qualifying
        assert set(built.values()) == {1}
        for ce in found:
            assert ce.witness["g_n"] == g_exact(SequenceParams(ce.p, ce.q), ce.n)
        # Modular mode builds it only where a witness states G_n.
        built.clear()
        found = list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", replace(bounds, mode=Mode.MODULAR)))
        assert len(built) == 78 and set(built) == {(ce.p, ce.q) for ce in found}
        assert set(built.values()) == {1}

    def test_modular_mode_reaches_the_evaluator(self, monkeypatch):
        modes = Counter()

        def spy(*args, modular=False, **kwargs):
            modes[modular] += 1
            return conclusion_failures(*args, modular=modular, **kwargs)

        monkeypatch.setattr(verify, "conclusion_failures", spy)
        # Example 2.2 under criterion 6's bounds
        bounds = SweepConfig(p_range=(-10, 10), q_range=(-10, 10), s_source=tuple(range(1, 21)), k_max=2, n_max=12)
        exact = list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", bounds))
        calls = modes[False]
        modular = list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", replace(bounds, mode=Mode.MODULAR)))
        assert calls > 0 and modes == {False: calls, True: calls}
        assert any((ce.p, ce.q, ce.s) == (3, 9, 3) for ce in exact)
        assert modular == exact

    def test_time_budget_stops_the_search(self):
        bounds = small_config(p_range=(-3, 3), q_range=(-3, 3), time_budget_s=0.0)
        # Scan order starts at p = 0: q = 0 has no s (r = 0), q = 1 has r = 4.
        stopped = r"search stopped after .* at \(p, q, s\) = \(0, 1, 1\), over the 0.0s budget"
        with pytest.raises(ResourceLimitError, match=stopped):
            list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", bounds))
        with pytest.raises(ResourceLimitError, match=stopped):
            search_counterexample(ClaimId.Thm1_1_Equiv, "gcd-pq", bounds)

    def test_time_budget_stops_the_survey(self):
        with pytest.raises(ResourceLimitError, match=r"survey stopped after .* at \(p, q, s\) = \(-3, -3, 1\)"):
            converse_survey(small_config(p_range=(-3, 3), q_range=(-3, 3), time_budget_s=0.0))


class TestRankOfApparition:
    def test_known_rank(self):
        assert rank_of_apparition(SequenceParams(3, 4), 5, 100) == 5

    def test_fibonacci_ranks(self):
        fib = SequenceParams(1, 1)
        assert rank_of_apparition(fib, 5, 100) == 5
        assert rank_of_apparition(fib, 8, 100) == 6
        assert rank_of_apparition(fib, 7, 100) == 8

    def test_none_within_bound(self):
        assert rank_of_apparition(SequenceParams(1, 1), 7, 5) is None

    def test_bad_s(self):
        with pytest.raises(InputError):
            rank_of_apparition(SequenceParams(1, 1), 1, 10)

    def test_rank_is_minimal_and_divisibility_propagates(self):
        for p, q, s in [(1, 1, 5), (4, 1, 20), (2, 2, 12), (5, -5, 5)]:
            params = SequenceParams(p, q)
            rank = rank_of_apparition(params, s, 1000)
            assert rank is not None
            gs = g_range(params, 4 * rank)
            assert gs[rank] % s == 0
            assert all(gs[n] % s != 0 for n in range(1, rank))
            for mult in range(2, 5):
                assert gs[mult * rank] % s == 0


class TestConverseSurvey:
    CONFIG = SweepConfig(p_range=(1, 5), q_range=(-5, 5), k_max=1, n_max=60)

    def test_expected_rows(self):
        report = converse_survey(self.CONFIG)
        index = {(row.p, row.q, row.s): row for row in report.rows}
        assert index[(4, 1, 20)].smallest_violating_n == 10
        assert index[(2, 2, 12)].smallest_violating_n == 6
        assert (1, 1, 5) not in index

    def test_failing_conditions_annotated(self):
        report = converse_survey(self.CONFIG)
        row = {(r.p, r.q, r.s): r for r in report.rows}[(4, 1, 20)]
        # 20 does not divide r/4 = 5 and is not prime, so cases 2 and 3 fail
        assert "s-div-r4" in row.failing_conditions
        assert "s-prime" in row.failing_conditions

    def test_note_flags_open_question(self):
        report = converse_survey(self.CONFIG)
        assert "open question" in report.note


class TestReporting:
    def test_to_json_is_canonical(self):
        doc = {"b": 2, "a": 1}
        text = reporting.to_json(doc)
        assert text == '{\n  "a": 1,\n  "b": 2\n}\n'

    def test_report_dict_excludes_execution_details(self):
        report = verify_claim(
            ClaimId.Thm1_1_MultDiv,
            small_config(p_range=(1, 1), q_range=(1, 1), worker_count=3, time_budget_s=60.0),
        )
        doc = reporting.report_to_dict(report)
        flat = json.dumps(doc)
        assert "worker" not in flat and "elapsed" not in flat and "budget" not in flat
        timed = reporting.report_to_dict(report, include_timing=True)
        assert "elapsed_s" in timed

    def test_violations_csv(self):
        found = list(
            iter_counterexamples(
                ClaimId.Thm1_1_Equiv,
                "gcd-pq",
                SweepConfig(p_range=(0, 3), q_range=(0, 3), s_source=(2, 3), k_max=1, n_max=8),
            )
        )
        text = reporting.violations_to_csv(found)
        lines = text.splitlines()
        assert lines[0] == "claim,p,q,s,k,n,relaxed_condition,witness"
        assert len(lines) == len(found) + 1

    def test_survey_and_examples_csv_headers(self):
        survey = converse_survey(SweepConfig(p_range=(1, 2), q_range=(1, 2), k_max=1, n_max=30))
        assert reporting.survey_to_csv(survey).splitlines()[0] == (
            "p,q,s,smallest_violating_n,failing_conditions"
        )
        examples = reporting.examples_to_csv(reproduce_examples())
        assert examples.splitlines()[0] == "example,p,q,passed,expected,observed"

import concurrent.futures
import functools
import gc
import inspect
import itertools
import json
import math
import os
import pickle
import time
import tracemalloc
from collections import Counter

import pytest

import oracles
from gfibdiv import (
    ClaimId,
    Counterexample,
    InputError,
    Mode,
    ResourceLimitError,
    SequenceParams,
    SweepConfig,
    Verdict,
    ab_exact,
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
from gfibdiv import claims, numtheory, reporting, verify
from gfibdiv.claims import conclusion_failures
from gfibdiv.numtheory import factorize


def small_config(**overrides) -> SweepConfig:
    base = dict(p_range=(-4, 4), q_range=(-4, 4), k_max=2, n_max=20)
    base.update(overrides)
    return SweepConfig(**base)


def recording_pool(monkeypatch):
    """Make each process pool record its size and the parts it is given, and report 2 CPUs; returns both records."""
    pools, parts = [], []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

        def map(self, fn, tasks):
            tasks = list(tasks)
            parts.extend(task[3] for task in tasks)
            return super().map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return pools, parts


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

    def test_no_table_in_either_mode(self, no_g_range):
        # Both modes read (G_n, G_{n+1}) mod s^k from the residue stream.
        for mode in Mode:
            report = verify_claim(ClaimId.Thm1_1_MultDiv, small_config(mode=mode))
            assert report.verdict is Verdict.ALL_PASS and report.points_checked == 17640, mode

    def test_each_divisor_of_r_is_factored_with_r(self, monkeypatch):
        # r = 4*400000000019*600000000031 at (2, q): rho splits r/4 = q + 1
        # once, and each s | r carries its primes to the rank certificate, so
        # no s is factored again.
        q, rho = 240000000023800000000588, numtheory._rho
        split = []
        monkeypatch.setattr(numtheory, "_rho", lambda n, check: split.append(n) or rho(n, check))
        config = SweepConfig(p_range=(2, 2), q_range=(q, q), k_max=3, n_max=2000, mode=Mode.MODULAR)
        report = verify_claim(ClaimId.Thm1_2_BaseEquiv, config)
        assert split == [q + 1]
        assert (report.verdict, report.points_checked, report.violations) == (Verdict.ALL_PASS, 32016, ())
        # With no certificate every modulus walks its residue stream, to the same report.
        monkeypatch.setattr(claims, "_rank", lambda params, d, primes: 0)
        streamed = verify_claim(ClaimId.Thm1_2_BaseEquiv, config)
        assert (streamed.verdict, streamed.points_checked, streamed.violations) == (Verdict.ALL_PASS, 32016, ())

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
        gated = verify_claim(ClaimId.Thm1_2_LiftedEquiv, config._replace(t_max=50))
        assert gated.verdict is Verdict.NEVER_APPLICABLE

    def test_worker_counts_agree(self, monkeypatch):
        monkeypatch.setattr(verify, "_POOL_AFTER_S", 0)  # the 2-worker sweep runs in a pool
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
        parts = []

        def counting_cell(args):
            parts.append(args[3])
            return sweep_cell(args)

        sweep_cell = verify._sweep_cell
        monkeypatch.setattr(verify, "_sweep_cell", counting_cell)
        config = small_config(p_range=(-3, 3), q_range=(-3, 3), time_budget_s=0.0)
        # A serial sweep is one part, stopped before its first cell.
        with pytest.raises(ResourceLimitError, match=r"sweep stopped after .* at \(p, q\) = \(-3, -3\), over"):
            verify_claim(ClaimId.Thm1_1_Equiv, config)
        assert parts == [(0, 49)]

    def test_time_budget_stops_the_pool(self, monkeypatch):
        pools, _ = recording_pool(monkeypatch)  # a real pool, even on a one-CPU host
        monkeypatch.setattr(verify, "_POOL_AFTER_S", 0)  # handed to the pool before the first cell
        config = small_config(worker_count=2, time_budget_s=0.0)
        # The first part's error is raised first, whichever worker walked it.
        with pytest.raises(ResourceLimitError, match=r"sweep stopped after .* at \(p, q\) = \(-4, -4\), over"):
            verify_claim(ClaimId.Thm1_1_Equiv, config)
        assert pools == [2]

    def test_pool_stops_at_its_budget(self, monkeypatch):
        # Each worker checks the run's clock before every cell and s, so the
        # sweep stops mid-part, not after whole parts of this 201 x 201 grid.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(verify, "_POOL_AFTER_S", 0)
        config = SweepConfig(
            p_range=(-100, 100), q_range=(-100, 100), n_max=2000, mode=Mode.MODULAR, worker_count=2, time_budget_s=0.2
        )
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match="sweep stopped after"):
            verify_claim(ClaimId.Thm1_1_Equiv, config)
        assert time.monotonic() - start < 1.5

    def test_budget_shorter_than_the_hand_off_starts_no_pool(self, monkeypatch):
        pools, _ = recording_pool(monkeypatch)
        config = SweepConfig(
            p_range=(-100, 100), q_range=(-100, 100), n_max=2000, mode=Mode.MODULAR, worker_count=2,
            time_budget_s=verify._POOL_AFTER_S / 2,
        )
        with pytest.raises(ResourceLimitError, match="sweep stopped after"):
            verify_claim(ClaimId.Thm1_1_Equiv, config)
        assert pools == []

    @pytest.mark.parametrize("cpus,started", [(None, []), (1, []), (4, [4]), (1000, [81])])
    def test_pool_size_is_capped(self, monkeypatch, cpus, started):
        pools = []

        class SerialPool:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(verify, "_POOL_AFTER_S", 0)
        report = verify_claim(ClaimId.Thm1_1_Equiv, small_config(worker_count=100000))  # 81 cells
        assert pools == started
        serial = verify_claim(ClaimId.Thm1_1_Equiv, small_config())
        assert reporting.to_json(reporting.report_to_dict(report)) == reporting.to_json(reporting.report_to_dict(serial))

    def test_short_sweep_starts_no_pool(self, monkeypatch):
        pools, _ = recording_pool(monkeypatch)
        report = verify_claim(ClaimId.Thm1_1_Equiv, small_config(worker_count=2))  # done well before the hand-off
        assert pools == []
        serial = verify_claim(ClaimId.Thm1_1_Equiv, small_config())
        assert reporting.to_json(reporting.report_to_dict(report)) == reporting.to_json(reporting.report_to_dict(serial))

    def test_pool_takes_the_cells_left_at_the_hand_off(self, monkeypatch):
        pools, parts = recording_pool(monkeypatch)
        ticks = itertools.count()

        class FakeTime:
            """A clock that gains 0.1 s at each read: the start, then one read before each cell."""

            @staticmethod
            def monotonic():
                return next(ticks) / 10

        monkeypatch.setattr(verify, "time", FakeTime)
        config = small_config(s_source="divisors-of-r4", worker_count=2)  # 81 cells
        report = verify_claim(ClaimId.Thm1_1_MultDiv, config)
        # Reads 0.1 to 0.4 walk the first four cells here; at 0.5 the other 77 go to the pool.
        assert pools == [2] and parts == [(lo, lo + 10) for lo in range(4, 81, 10)]
        serial = verify_claim(ClaimId.Thm1_1_MultDiv, config._replace(worker_count=1))
        assert report.points_checked > 0
        assert reporting.to_json(reporting.report_to_dict(report)) == reporting.to_json(reporting.report_to_dict(serial))

    def test_empty_range_rejected(self):
        with pytest.raises(InputError):
            verify_claim(ClaimId.Thm1_1_MultDiv, small_config(p_range=(3, 1)))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("p_range", (3, 1)),
            ("q_range", (0, -1)),
            ("time_budget_s", -1.0),
            ("time_budget_s", float("nan")),
            ("time_budget_s", "5"),
            ("time_budget_s", True),
            ("mode", "modular"),
            ("s_source", "bogus"),
            ("s_source", (2, 2.5)),
            ("s_source", ("2",)),
            ("s_source", 5),
            ("p_range", (1, 2, 3)),
            ("p_range", (1,)),
            ("q_range", (0, 1.5)),
            ("q_range", "ab"),
            ("k_max", 2.5),
            ("k_max", -1),
            ("n_max", "40"),
            ("t_max", True),
            ("t_max", 0),
            ("worker_count", 1.5),
            ("worker_count", False),
        ],
    )
    def test_bad_config_names_the_field(self, field, value):
        with pytest.raises(InputError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "field,value", [("k_max", -1), ("n_max", 2.5), ("p_range", (2, 1)), ("s_source", (0, 1))]
    )
    def test_replace_validates(self, field, value):
        with pytest.raises(InputError, match=field):
            small_config()._replace(**{field: value})
        with pytest.raises(InputError, match=field):
            SweepConfig._make({**small_config()._asdict(), field: value}.values())

    def test_config_survives_pickling(self):
        config = small_config(s_source=(3, 2), mode=Mode.MODULAR, time_budget_s=9.5)
        copy = pickle.loads(pickle.dumps(config))
        assert (copy, type(copy)) == (config, SweepConfig)

    @pytest.mark.parametrize(
        "record,field",
        [
            (SequenceParams(1, 1), "p"),
            (small_config(), "k_max"),
            (Counterexample(ClaimId.Thm1_1_Equiv, 1, 1, 5, 1, 5, {}), "n"),
        ],
    )
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)

    def test_explicit_s_values_kept_sorted_and_distinct(self):
        config = small_config(s_source=[6, 2, 6, 3])
        assert config.s_source == (2, 3, 6)
        assert reporting.config_to_dict(config)["s_source"] == [2, 3, 6]
        assert config._replace(s_source=[5, 1, 5]).s_source == (1, 5)


class TestGrid:
    CONFIG = SweepConfig(p_range=(-1, 2), q_range=(-1, 0))

    def test_canonical_order(self):
        assert list(verify._cells(self.CONFIG)) == [
            (-1, -1), (-1, 0), (0, -1), (0, 0), (1, -1), (1, 0), (2, -1), (2, 0),
        ]

    def test_scan_order(self):
        assert list(verify._cells(self.CONFIG, scan=True)) == [
            (0, 0), (0, -1), (1, 0), (1, -1), (-1, 0), (-1, -1), (2, 0), (2, -1),
        ]

    @pytest.mark.parametrize("scan", [False, True])
    def test_part_is_a_slice_of_the_full_order(self, scan):
        config = SweepConfig(p_range=(-2, 3), q_range=(-3, 1))  # 6 x 5 cells
        for part in [(0, None), (0, 30), (0, 7), (7, 8), (4, 17), (12, 12), (13, None), (29, None), (30, None), (25, 40)]:
            want = list(itertools.islice(verify._cells(config, scan=scan), *part))
            assert list(verify._cells(config, scan=scan, part=part)) == want, part

    def test_last_cell_is_reached_by_index(self):
        config = SweepConfig(p_range=(-1000, 1000), q_range=(-1000, 1000))
        for scan, last in ((False, (1000, 1000)), (True, (-1000, -1000))):
            start = time.perf_counter()
            assert list(verify._cells(config, scan=scan, part=(2001 * 2001 - 1, None))) == [last]
            assert time.perf_counter() - start < 0.05

    @staticmethod
    def walk(config, gate=lambda params: lambda s: True, claim=ClaimId.Thm1_2_BaseEquiv):
        """_grid over config for claim at k = 1; the default gate admits every s of every cell."""
        return verify._grid(config, "test", claim, gate, (1,))

    def test_grid_yields_each_cells_s_values(self):
        config = SweepConfig(p_range=(1, 2), q_range=(1, 1))
        assert [(params.p, params.q, s) for params, s, _, _ in self.walk(config)] == [
            (1, 1, 1), (1, 1, 5), (2, 1, 1), (2, 1, 2), (2, 1, 4), (2, 1, 8),
        ]

    def test_cell_routine_runs_once_per_cell_with_an_s(self):
        # Divisors of r/4: only cells with 4 | r != 0 have an s.
        config = SweepConfig(p_range=(-3, 3), q_range=(-3, 3), s_source="divisors-of-r4")
        called = []

        def gate(params):
            called.append((params.p, params.q))
            return lambda s: True

        walked = [(params.p, params.q, s) for params, s, _, _ in self.walk(config, gate)]
        with_s = [(p, q) for p, q in verify._cells(config) if verify._resolve_s(config, SequenceParams(p, q))]
        assert called == with_s and len(with_s) < 49
        assert walked == [
            (p, q, s) for p, q in with_s for s, _ in verify._resolve_s(config, SequenceParams(p, q))
        ]

    def test_walk_is_handed_out_only_where_the_gate_and_lift_hold(self):
        # At (p, q) = (5, 2) the lift condition fails at s = 3 (t = 1); s = 1 needs no lift.
        config = SweepConfig(p_range=(5, 5), q_range=(2, 2), s_source=(1, 2, 3))
        odd = lambda params: lambda s: s % 2 == 1
        assert [s for _, s, _, _ in self.walk(config, odd)] == [1, 3]
        assert [s for _, s, _, _ in self.walk(config, odd, ClaimId.Thm1_2_LiftedEquiv)] == [1]
        # The conclusion walk is handed out unstarted: conclusion_failures at k = 1, n <= n_max.
        for params, s, failures, _ in self.walk(config):
            assert inspect.getgeneratorstate(failures) == inspect.GEN_CREATED
            assert list(failures) == list(conclusion_failures(ClaimId.Thm1_2_BaseEquiv, params, s, (1,), range(41)))

    def test_ruled_out_cell_yields_nothing_but_is_budget_checked(self):
        config = SweepConfig(p_range=(1, 2), q_range=(1, 1))
        assert list(self.walk(config, lambda params: None)) == []
        called = []
        walk = self.walk(config._replace(time_budget_s=0.0), lambda params: called.append(params))
        with pytest.raises(ResourceLimitError, match=r"test stopped after .* at \(p, q\) = \(1, 1\), over"):
            next(walk)
        assert called == []

    def test_budget_is_checked_before_each_s(self):
        # The cell passes its check at once; its gate then outlasts the budget.
        config = SweepConfig(p_range=(1, 2), q_range=(1, 1), time_budget_s=0.05)
        walk = self.walk(config, lambda params: time.sleep(0.1) or (lambda s: True))
        with pytest.raises(ResourceLimitError, match=r"test stopped after .* at \(p, q, s\) = \(1, 1, 1\), over"):
            next(walk)

    def test_budget_is_checked_before_each_k(self):
        # The walk of an s calls check(k) before each k; it passes only within the budget.
        config = SweepConfig(p_range=(1, 1), q_range=(1, 1), k_max=3, time_budget_s=0.05)
        _, s, _, check = next(self.walk(config))
        assert (s, check(0), check(1)) == (1, None, None)
        time.sleep(0.1)
        with pytest.raises(ResourceLimitError, match=r"test stopped after .* at \(p, q, s, k\) = \(1, 1, 1, 2\), over"):
            check(2)

    @pytest.mark.parametrize("command", ["sweep", "search", "survey"])
    def test_serial_walk_is_lazy(self, command):
        # 1001 x 1001 cells: a walk that listed them first would peak at tens of MiB.
        # At 800,001 values per axis, a search that sorted an axis first would peak past 100 MiB.
        for half in (500, 400_000):
            config = SweepConfig(p_range=(-half, half), q_range=(-half, half), time_budget_s=0.0)
            run = {
                "sweep": lambda: verify_claim(ClaimId.Thm1_1_Equiv, config),
                "search": lambda: list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", config)),
                "survey": lambda: converse_survey(config),
            }[command]
            first = "0, 0" if command == "search" else f"{-half}, {-half}"
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match=rf"{command} stopped after .* at \(p, q\) = \({first}\), over"):
                    run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 5 * 2**20, half


class TestQuotientMemo:
    """W mod d is cached for the process (claims._lifted_quotient, an
    lru_cache), so it is computed once per (d, V_n mod d, (-q)^n mod d) while
    the key stays among the cache's most recent.  Each test starts with the
    cache empty (conftest.py); each computation is one _pair_mod call."""

    # criterion 2: the exact Thm 1.1(1) sweeps, which hold everywhere
    CRITERION_2 = [
        SweepConfig(p_range=(-8, 8), q_range=(-8, 8), s_source=source, k_max=3, n_max=40, mode=Mode.EXACT)
        for source in ("divisors-of-r", "divisors-of-r4")
    ]
    # a relaxed search, where s need not divide r and the divisibility fails
    SEARCH = small_config(s_source=tuple(range(1, 13)), mode=Mode.MODULAR)

    @staticmethod
    def record_keys(monkeypatch) -> list:
        """Record the key of each quotient computed, that is, of each cache miss."""
        pair_mod = claims._pair_mod
        keys = []
        monkeypatch.setattr(claims, "_pair_mod", lambda v, q, n, d: keys.append((d, v, -q)) or pair_mod(v, q, n, d))
        return keys

    def recorded(self, monkeypatch):
        """The criterion 2 JSON reports and the search's counterexamples, each
        run with the cache empty, and the keys of the quotients each computed."""
        runs = [
            lambda config=config: reporting.to_json(reporting.report_to_dict(verify_claim(ClaimId.Thm1_1_MultDiv, config)))
            for config in self.CRITERION_2
        ]
        runs.append(lambda: list(iter_counterexamples(ClaimId.Thm1_1_MultDiv, "s-div-r", self.SEARCH)))
        results, calls = [], []
        with monkeypatch.context() as patch:
            keys = self.record_keys(patch)
            for run in runs:
                claims._lifted_quotient.cache_clear()
                results.append(run())
                calls.append(keys[:])
                keys.clear()
        return results, calls

    def test_one_quotient_per_state_per_part(self, monkeypatch):
        _, calls = self.recorded(monkeypatch)
        for keys in calls:
            assert len(set(keys)) == len(keys)
        assert sum(map(len, calls[:2])) == 28432

    def test_parallel_walk_before_the_hand_off_shares_one_memo(self, monkeypatch):
        # Walked cell by cell in this process, a 2-worker sweep still calls
        # the quotient once per key, as often as a serial one.
        monkeypatch.setattr(verify, "_POOL_AFTER_S", math.inf)
        pools, _ = recording_pool(monkeypatch)
        keys = self.record_keys(monkeypatch)
        counts = []
        for config in self.CRITERION_2:
            keys.clear()
            claims._lifted_quotient.cache_clear()
            assert verify_claim(ClaimId.Thm1_1_MultDiv, config._replace(worker_count=2)).verdict is Verdict.ALL_PASS
            counts.append(len(keys))
        assert pools == [] and counts == [23840, 4592]

    def test_capped_memo_gives_the_same_results(self, monkeypatch):
        results, calls = self.recorded(monkeypatch)
        assert results[-1]
        monkeypatch.setattr(claims, "_lifted_quotient", functools.lru_cache(maxsize=4)(claims._lifted_quotient.__wrapped__))
        capped_results, capped_calls = self.recorded(monkeypatch)
        assert capped_results == results
        assert all(len(capped) > len(keys) for capped, keys in zip(capped_calls, calls))

    def test_cap_bounds_a_serial_sweep(self, monkeypatch):
        # The grid's r give moduli s^k that few cells share: a cache without
        # a bound on its size grows with the sweep, to about 0.4 MiB here at
        # the default cap.  Exact mode computes every quotient; modular mode
        # would certify these points, as s | r, and compute none.
        config = SweepConfig(p_range=(-4, 4), q_range=(-4, 4), mode=Mode.EXACT)
        quotient = claims._lifted_quotient.__wrapped__

        def peak(cap: int) -> int:
            monkeypatch.setattr(claims, "_lifted_quotient", functools.lru_cache(maxsize=cap)(quotient))
            tracemalloc.start()
            try:
                assert verify_claim(ClaimId.Thm1_1_MultDiv, config).verdict is Verdict.ALL_PASS
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(claims._lifted_quotient.cache_info().maxsize) > 2**18
        assert peak(2**8) < 2**17

    def test_warm_caches_change_no_bytes(self, monkeypatch):
        # W depends only on its key, so quotients cached by an earlier run,
        # non-zero ones among them, change no report: in this process, or in
        # pool workers forked from it with its caches.
        config = self.CRITERION_2[0]
        cold = reporting.to_json(reporting.report_to_dict(verify_claim(ClaimId.Thm1_1_MultDiv, config)))
        claims._lifted_quotient.cache_clear()
        found = list(iter_counterexamples(ClaimId.Thm1_1_MultDiv, "s-div-r", self.SEARCH))
        assert any("divisor" in ce.witness for ce in found)  # a failure: W != 0 was cached
        misses = claims._lifted_quotient.cache_info().misses
        warm = verify_claim(ClaimId.Thm1_1_MultDiv, config)
        assert claims._lifted_quotient.cache_info().misses - misses < 23840  # some keys came from the search
        assert reporting.to_json(reporting.report_to_dict(warm)) == cold
        pools, _ = recording_pool(monkeypatch)
        monkeypatch.setattr(verify, "_POOL_AFTER_S", 0)
        pooled = verify_claim(ClaimId.Thm1_1_MultDiv, config._replace(worker_count=2))
        assert pools == [2]
        assert reporting.to_json(reporting.report_to_dict(pooled._replace(config=config))) == cold


class TestExactModeKeepsNoTable:
    """Exact mode keeps no table of G values: a sweep, a search, a survey
    and a pool's part (_sweep_cell, as a worker walks it) each walk 3,001
    indices within a small fraction of G_0..G_3001, and hold nothing after."""

    FIBONACCI = dict(p_range=(1, 1), q_range=(1, 1), k_max=1, n_max=3000, mode=Mode.EXACT)

    @pytest.mark.parametrize(
        "run",
        [
            lambda config: verify_claim(ClaimId.Thm1_1_Equiv, config._replace(s_source=(5,))),
            # Example 2.3a: 20 | G_10 at (4, 1), though 20 does not divide 10.
            lambda config: search_counterexample(
                ClaimId.Thm1_1_Equiv, "s-prime", config._replace(p_range=(4, 4), s_source=(20,))
            ),
            converse_survey,
            lambda config: verify._sweep_cell(
                (ClaimId.Thm1_1_Equiv, config._replace(s_source=(5,)), time.monotonic(), (0, 1), "sweep")
            ),
        ],
        ids=["sweep", "search", "survey", "pool-part"],
    )
    def test_no_table_outlives_the_run(self, run):
        tracemalloc.start()
        try:
            result = run(SweepConfig(**self.FIBONACCI))
            gc.collect()  # empties the free lists of tuples, whose memory tracemalloc still counts
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result
        # G_0..G_3001 of Fibonacci take about 0.4 MiB.
        assert peak < 2**16 and held < 2**15, (peak, held)


class TestModularModeBuildsNoTable:
    """No walk builds a table of G values, in either mode: with g_range
    refusing every call, the benchmark's runs and criterion 6's searches
    complete in both modes, with the same results."""

    def test_criterion_6_searches(self, no_g_range):
        bounds = SweepConfig(p_range=(-10, 10), q_range=(-10, 10), s_source=tuple(range(1, 21)), k_max=2, n_max=12)
        searches = TestCounterexampleSearch.CRITERION_6
        exact = [list(iter_counterexamples(claim, relaxed, bounds)) for claim, relaxed in searches]
        bounds = bounds._replace(mode=Mode.MODULAR)
        modular = [list(iter_counterexamples(claim, relaxed, bounds)) for claim, relaxed in searches]
        assert all(exact) and modular == exact

    def test_equiv_grid_sweeps_and_survey(self, no_g_range):
        config = SweepConfig(p_range=(-8, 8), q_range=(-8, 8), k_max=3, n_max=2000)
        modular = config._replace(mode=Mode.MODULAR)
        for claim in (ClaimId.Thm1_1_Equiv, ClaimId.Thm1_2_BaseEquiv):
            assert verify_claim(claim, config).verdict is verify_claim(claim, modular).verdict is Verdict.ALL_PASS
        survey = converse_survey(config)
        assert survey.rows and converse_survey(modular).rows == survey.rows

    @pytest.mark.parametrize(
        "claim, p, q, s",
        [(ClaimId.Cor_Fibonacci, 1, 1, 5), (ClaimId.Cor_Pell, 2, 1, 2), (ClaimId.Cor_Jacobsthal, 1, 2, 3)],
    )
    def test_corollary_1_4_checks(self, no_g_range, claim, p, q, s):
        config = SweepConfig(p_range=(p, p), q_range=(q, q), s_source=(s,), k_max=5, n_max=5000)
        for mode in Mode:
            report = verify_claim(claim, config._replace(mode=mode))
            assert (report.verdict, report.points_checked) == (Verdict.ALL_PASS, 6 * 5001), mode


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
        # s = 128 and 129 step the binomial coefficients of the B_{sn} expansion many times.
        results = identity_suite(SequenceParams(p, q), n_max=20, s_list=[2, 3, 128, 129])
        assert all(r.passed for r in results), [(r.name, r.first_failure) for r in results]
        names = {r.name for r in results}
        assert {"closed-form-pair", "b-to-g-bridge", "power-step", "quadratic"} <= names
        if p % 2 == 0:
            assert {"g-half-expansion", "a-half-integer"} <= names
        else:
            assert "g-half-expansion" not in names

    @pytest.mark.parametrize("parity", [0, 1])
    def test_half_expansion_matches_per_term_binomials(self, parity):
        """The stepped expansion equals the sum with a fresh C(n, t) per term, at n = 300."""
        params, n = SequenceParams(4, -3), 300
        ph, rh = params.p // 2, params.r // 4
        want = sum(math.comb(n, t) * ph ** (n - t) * rh ** (t // 2) for t in range(parity, n + 1, 2))
        assert verify._parity_expansion(n, parity, ph, 1, rh) == want
        # G_n (odd t) and A_n / 2^n (even t), as identity_suite checks them.
        assert want == (g_exact(params, n) if parity else ab_exact(params, n).a // 2**n)

    def test_bad_n_max(self):
        with pytest.raises(InputError):
            identity_suite(SequenceParams(1, 1), n_max=0, s_list=[2])

    def test_failure_is_recorded(self, monkeypatch):
        """A wrong (A_3, B_3) fails the identities that read B_3, and the first failure is kept."""
        params = SequenceParams(1, 1)
        right = ab_exact(params, 3)

        def wrong_at_3(params, n):
            pair = ab_exact(params, n)
            return pair._replace(b=pair.b + 1) if n == 3 else pair

        monkeypatch.setattr(verify, "ab_exact", wrong_at_3)
        results = {r.name: r for r in identity_suite(params, n_max=5, s_list=[2])}
        bridge = results["b-to-g-bridge"]
        assert (bridge.passed, bridge.checked) == (False, 5)
        assert bridge.first_failure == {"n": 3, "b_n": right.b + 1, "g_n": 2}
        closed = results["closed-form-pair"]
        assert not closed.passed
        assert closed.first_failure == {"n": 3, "got": (right.a, right.b), "want": (right.a, right.b + 1)}
        assert results["quadratic"].passed  # reads A_n and G_n only

    def test_table_stops_at_n_max(self, monkeypatch):
        asked = []

        def recording_range(params, n_max, **kwargs):
            asked.append(n_max)
            return g_range(params, n_max, **kwargs)

        monkeypatch.setattr(verify, "g_range", recording_range)
        results = identity_suite(SequenceParams(1, 1), n_max=4, s_list=[2, 50])
        assert all(r.passed for r in results)
        assert asked == [4]  # G_n is read only up to n_max; G_{s*n} comes from ab_exact


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


    def test_no_table_in_either_mode(self, no_g_range):
        # Example 2.2 under criterion 6's bounds: both modes read the residue
        # stream, and the witnesses state G_n from g_exact.
        bounds = SweepConfig(p_range=(-10, 10), q_range=(-10, 10), s_source=tuple(range(1, 21)), k_max=2, n_max=12)
        found = list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", bounds))
        assert {(ce.p, ce.q, ce.s) for ce in found} >= {(3, 9, 3)}
        for ce in found:
            assert ce.witness["g_n"] == g_exact(SequenceParams(ce.p, ce.q), ce.n)
        modular = list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", bounds._replace(mode=Mode.MODULAR)))
        assert modular == found

    # Criterion 6's 15 searches (Examples 2.2-2.12), as tests/test_acceptance.py runs them.
    CRITERION_6 = (
        (ClaimId.Thm1_1_Equiv, "gcd-pq"), (ClaimId.Thm1_1_Equiv, "s-prime"), (ClaimId.Thm1_1_Equiv, "s-ge-3"),
        (ClaimId.Thm1_1_Equiv, "gcd-p2-q"), (ClaimId.Cor_Square, "gcd-p2-q"), (ClaimId.Thm1_1_Equiv, "mod3-guard"),
        (ClaimId.Thm1_1_Equiv, "mod3-guard"), (ClaimId.Cor_P1P2, "mod3-guard"), (ClaimId.Cor_PrimeR, "r-prime"),
        (ClaimId.Cor_P1P2, "s-div-q1"), (ClaimId.Cor_PrimeRover4, "r4-prime"), (ClaimId.Cor_P1P2, "mod3-guard"),
        (ClaimId.Cor_PrimeRover4, "p-nonzero"), (ClaimId.Cor_PrimeR, "q-positive"),
        (ClaimId.Cor_PrimeRover4, "q-positive"),
    )

    def test_criterion_6_walks_only_qualifying_cells(self, monkeypatch):
        walks = gated = 0
        grid, gate = verify._grid, verify.hypothesis_gate

        def counting_grid(*args, **kwargs):
            nonlocal walks
            for point in grid(*args, **kwargs):
                walks += 1
                yield point

        def counting_gate(*args, **kwargs):
            nonlocal gated
            qualifies = gate(*args, **kwargs)
            gated += qualifies is not None
            return qualifies

        monkeypatch.setattr(verify, "_grid", counting_grid)
        monkeypatch.setattr(verify, "hypothesis_gate", counting_gate)
        bounds = SweepConfig(p_range=(-10, 10), q_range=(-10, 10), s_source=tuple(range(1, 21)), k_max=2, n_max=12)
        for claim, relaxed in self.CRITERION_6:
            assert list(iter_counterexamples(claim, relaxed, bounds))
        # 1,851 of the 15 * 441 cells pass the hypothesis gate, 20 s values
        # each; the conclusion is walked at the 1,449 points that qualify.
        assert (gated, walks) == (1_851, 1_449)

    def test_witness_dividends_from_one_pass_per_s(self):
        bounds = SweepConfig(p_range=(-4, 4), q_range=(-4, 4), s_source=tuple(range(1, 13)), k_max=2, n_max=12)
        found = list(iter_counterexamples(ClaimId.Thm1_1_MultDiv, "s-div-r", bounds))
        failing = {(ce.p, ce.q, ce.s) for ce in found}
        assert len(found) > len(failing) > 1
        # The oracle: one exact list per failing (p, q, s), not g_exact's doubling.
        passes = {
            (p, q, s): oracles.g_values(p, q, max(ce.s**ce.k * ce.n for ce in found if (ce.p, ce.q, ce.s) == (p, q, s)))
            for p, q, s in failing
        }
        for ce in found:
            sk = ce.s**ce.k
            g = passes[ce.p, ce.q, ce.s]
            assert ce.witness == {
                "divisor": sk * g[ce.n],
                "index": sk * ce.n,
                "g_n": g[ce.n],
                "dividend_g": g[sk * ce.n],
            }

    def test_search_restates_only_the_witness_it_returns(self, monkeypatch):
        restated = []
        restate = verify._search_witness
        monkeypatch.setattr(verify, "_search_witness", lambda *args: restated.append(args) or restate(*args))
        first = search_counterexample(ClaimId.Thm1_1_Equiv, "gcd-pq", self.BOUNDS)
        assert len(restated) == 1
        # The s that gave it failed at more points than the one restated.
        at_first = [ce for ce in iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", self.BOUNDS)
                    if (ce.p, ce.q, ce.s) == (first.p, first.q, first.s)]
        assert at_first[0] == first and len(at_first) > 1

    def test_first_counterexample_states_one_witness(self, monkeypatch):
        # 2*F_n | F_{2n} = F_n*L_n fails wherever 3 does not divide n: at
        # 13,334 indices n <= 20000.  The search sorts their residue evidence
        # and states exact values for the one witness it returns.
        exact = []

        def counting_exact(params, n):
            exact.append(n)
            return g_exact(params, n)

        monkeypatch.setattr(claims, "g_exact", counting_exact)
        monkeypatch.setattr(verify, "g_exact", counting_exact)
        bounds = SweepConfig(p_range=(1, 1), q_range=(1, 1), s_source=(2,), k_max=1, n_max=20000)
        first = search_counterexample(ClaimId.Thm1_1_MultDiv, "s-div-r", bounds)
        assert (first.k, first.n) == (1, 1)
        assert len(exact) <= 2

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
        modular = list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", bounds._replace(mode=Mode.MODULAR)))
        assert calls > 0 and modes == {False: calls, True: calls}
        assert any((ce.p, ce.q, ce.s) == (3, 9, 3) for ce in exact)
        assert modular == exact

    def test_lifted_search_keeps_the_lift_condition(self):
        # Criterion 6's bounds; a relaxed point of Theorem 1.2(2) must still
        # satisfy its lift hypothesis s^2 !| G_{st} (s !| t), here up to t_max.
        bounds = SweepConfig(
            p_range=(-10, 10), q_range=(-10, 10), s_source=tuple(range(1, 21)), k_max=2, n_max=12, t_max=3
        )
        found = list(iter_counterexamples(ClaimId.Thm1_2_LiftedEquiv, "gcd-pq", bounds))
        assert len(found) == 16 and len({(ce.p, ce.q, ce.s) for ce in found}) == 8
        for ce in found:
            assert claims.thm12_lift_condition(SequenceParams(ce.p, ce.q), ce.s, bounds.t_max).holds
        # Checked up to t = 50, the condition fails at each of those points.
        assert search_counterexample(ClaimId.Thm1_2_LiftedEquiv, "gcd-pq", bounds._replace(t_max=50)) is None

    def test_time_budget_stops_the_search(self):
        bounds = small_config(p_range=(-3, 3), q_range=(-3, 3), time_budget_s=0.0)
        # Scan order starts at (0, 0), which has no s (r = 0) but is checked all the same.
        stopped = r"search stopped after .* at \(p, q\) = \(0, 0\), over the 0.0s budget"
        with pytest.raises(ResourceLimitError, match=stopped):
            list(iter_counterexamples(ClaimId.Thm1_1_Equiv, "gcd-pq", bounds))
        with pytest.raises(ResourceLimitError, match=stopped):
            search_counterexample(ClaimId.Thm1_1_Equiv, "gcd-pq", bounds)

    def test_time_budget_stops_the_survey(self):
        with pytest.raises(ResourceLimitError, match=r"survey stopped after .* at \(p, q\) = \(-3, -3\), over"):
            converse_survey(small_config(p_range=(-3, 3), q_range=(-3, 3), time_budget_s=0.0))

    def test_time_budget_checks_cells_with_no_s(self):
        # p = 1 makes r = 1 + 4q odd, so divisors-of-r4 gives no cell an s.
        bounds = SweepConfig(p_range=(1, 1), q_range=(-10**5, 10**5), s_source="divisors-of-r4", time_budget_s=0.0)
        with pytest.raises(ResourceLimitError, match=r"survey stopped after .* at \(p, q\) = \(1, -100000\), over"):
            converse_survey(bounds)


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
            gs = oracles.g_values(p, q, 4 * rank)
            assert gs[rank] % s == 0
            assert all(gs[n] % s != 0 for n in range(1, rank))
            for mult in range(2, 5):
                assert gs[mult * rank] % s == 0

    def test_cap_matches_uncapped_scan(self):
        """The scan stops at s^2; an orbit walk with no cap finds the same rank."""
        for p in range(-6, 7):
            for q in range(-6, 7):
                params = SequenceParams(p, q)
                for s in range(2, 16):
                    rank = oracles.brute_rank(p, q, s)
                    assert rank_of_apparition(params, s, 10**12) == rank, (p, q, s)
                    if rank is not None:
                        assert rank_of_apparition(params, s, rank) == rank, (p, q, s)
                        assert rank_of_apparition(params, s, rank - 1) is None, (p, q, s)


    @staticmethod
    def _streams(monkeypatch):
        streamed, stream = [], verify.g_pairs_mod

        def spy(params, ns, m):  # records m at the first residue read
            streamed.append(m)
            yield from stream(params, ns, m)

        monkeypatch.setattr(verify, "g_pairs_mod", spy)
        return streamed

    def test_coprime_s_reads_no_residue(self, monkeypatch):
        """Where gcd(q, s) = 1 and s is factored, alpha(s) from the laws answers without a scan."""
        streamed = self._streams(monkeypatch)
        for p in range(-7, 8):
            for q in range(-7, 8):
                for s in range(2, 41):
                    if math.gcd(q, s) == 1:
                        assert rank_of_apparition(SequenceParams(p, q), s, 10**12) == oracles.brute_rank(p, q, s)
        # Large s below psi_12: 2^61 - 1, and psi_12 - 2 = 137 * 1619 * 111519523 * 12883006211.
        assert rank_of_apparition(SequenceParams(1, 1), 2**61 - 1, 10**18) == 256204778801521550
        s = 318665857834031151167459
        rank = rank_of_apparition(SequenceParams(1, 1), s, s * s)
        assert oracles.mat_g_mod(1, 1, rank, s) == 0 and rank_of_apparition(SequenceParams(1, 1), s, rank - 1) is None
        assert streamed == []

    def test_shared_primes_read_no_residue(self, monkeypatch):
        """Where gcd(q, s) > 1 the laws answer too; only an s that factorize cannot factor is scanned."""
        streamed = self._streams(monkeypatch)
        for p in range(-7, 8):
            for q in range(-7, 8):
                for s in range(2, 41):
                    if math.gcd(q, s) > 1:
                        assert rank_of_apparition(SequenceParams(p, q), s, 10**12) == oracles.brute_rank(p, q, s)
        assert rank_of_apparition(SequenceParams(2, 2), 12, 10**12) == 6
        assert streamed == []
        # F_131 is prime and past psi_12: the scan finds its rank 131.
        f131 = 1066340417491710595814572169
        assert rank_of_apparition(SequenceParams(1, 1), f131, 10**12) == 131
        assert streamed == [f131]

    def test_matches_exact_scan(self, monkeypatch):
        """Against a scan of exact values to s^2; where a prime of s divides q but not p, no stream is read."""
        streamed = []
        stream = verify.g_pairs_mod

        def spy(params, ns, m):
            streamed.append((params, m))
            return stream(params, ns, m)

        monkeypatch.setattr(verify, "g_pairs_mod", spy)
        unscanned = 0
        for p in range(-7, 8):
            for q in range(-7, 8):
                params = SequenceParams(p, q)
                gs = oracles.g_values(p, q, 20 * 20)
                for s in range(2, 21):
                    streamed.clear()
                    want = next((n for n in range(1, s * s + 1) if gs[n] % s == 0), None)
                    assert rank_of_apparition(params, s, 10**12) == want, (p, q, s)
                    if any(q % ell == 0 and p % ell for ell, _ in factorize(s)):
                        assert want is None and streamed == [], (p, q, s)
                        unscanned += 1
        assert unscanned > 0


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

    def test_no_table_in_either_mode(self, no_g_range):
        config = SweepConfig(p_range=(-8, 8), q_range=(-8, 8), k_max=1, n_max=300)
        exact = converse_survey(config)
        assert len(exact.rows) == 560
        assert converse_survey(config._replace(mode=Mode.MODULAR)).rows == exact.rows

    def test_cells_with_r_zero_not_surveyed(self):
        # Given s values explicitly, the cells with r = 0 have s to walk, but the
        # equivalence there (e.g. G_n = 0 for n >= 2 at p = q = 0) is not surveyed.
        report = converse_survey(SweepConfig(p_range=(-4, 4), q_range=(-4, 4), s_source=(2, 3, 4), n_max=30))
        assert report.rows and all(row.p * row.p + 4 * row.q != 0 for row in report.rows)

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

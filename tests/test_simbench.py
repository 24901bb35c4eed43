import math

import numpy as np
import pytest

from dphotelling.decision import ASYMPTOTIC, BOOTSTRAP, TestConfig
from dphotelling.errors import BoundViolationError
from dphotelling.randkit import RngStream
from dphotelling import simbench
from dphotelling.simbench import (CellSpec, DesignSpec, example32_cells,
                                  generate, power_cells, power_curve,
                                  read_table_csv, run_grid, table1_cells,
                                  table2_cells, write_table_csv)
from oracles import simpson

SQRT3 = math.sqrt(3.0)


class TestDesignSpec:
    def test_uniform_cube_bound(self):
        spec = DesignSpec("uniform_cube", 4, a=1.0)
        assert spec.bound_m == pytest.approx(SQRT3 + 0.5)

    def test_toeplitz_bound(self):
        spec = DesignSpec("toeplitz", 9, a=1.0)
        assert spec.bound_m == pytest.approx((SQRT3 + 1.0 / 3.0) * (5.0 / 3.0))

    def test_toeplitz_bound_with_negative_entries(self):
        spec = DesignSpec("toeplitz", 9, a=1.0, toeplitz_diag=-1.0,
                          toeplitz_off=-1.0 / 3.0)
        assert spec.bound_m == pytest.approx((SQRT3 + 1.0 / 3.0) * (5.0 / 3.0))

    def test_truncated_gaussian_bound(self):
        assert DesignSpec("truncated_gaussian", 1).bound_m == 1.0

    def test_truncated_gaussian_constraints(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            DesignSpec("truncated_gaussian", 2)
        with pytest.raises(ValueError, match="shift"):
            DesignSpec("truncated_gaussian", 1, a=0.5)

    def test_unknown_design(self):
        with pytest.raises(ValueError, match="design"):
            DesignSpec("cauchy", 1)

    def test_toeplitz_matrix_shape(self):
        t = DesignSpec("toeplitz", 4).toeplitz_matrix()
        assert np.array_equal(np.diag(t), np.ones(4))
        assert t[0, 1] == t[1, 0] == pytest.approx(1.0 / 3.0)
        assert t[0, 2] == 0.0


class TestGenerate:
    def test_cube_null_moments(self):
        spec = DesignSpec("uniform_cube", 3)
        x, y = generate(RngStream(1), spec, 100000, 100000)
        se = 1.0 / math.sqrt(100000)
        assert np.max(np.abs(x.mean(axis=0))) <= 4.0 * se
        assert np.max(np.abs(np.cov(x.T) - np.eye(3))) <= 0.05
        assert np.max(np.abs(np.cov(y.T) - np.eye(3))) <= 0.05

    def test_cube_mean_shift_norm(self):
        spec = DesignSpec("uniform_cube", 4, a=1.0)
        x, y = generate(RngStream(2), spec, 100000, 100000)
        shift = np.linalg.norm(y.mean(axis=0) - x.mean(axis=0))
        assert shift == pytest.approx(1.0, abs=0.02)

    def test_cube_unit_variance(self):
        spec = DesignSpec("uniform_cube", 2)
        x, _ = generate(RngStream(3), spec, 100000, 100000)
        assert np.max(np.abs(x.var(axis=0, ddof=1) - 1.0)) <= 0.02

    def test_toeplitz_covariance(self):
        spec = DesignSpec("toeplitz", 3)
        x, _ = generate(RngStream(4), spec, 100000, 100000)
        t = spec.toeplitz_matrix()
        assert np.max(np.abs(np.cov(x.T) - t @ t)) <= 0.05

    def test_all_designs_respect_bound(self):
        specs = [DesignSpec("uniform_cube", 3, a=2.0),
                 DesignSpec("toeplitz", 5, a=1.0),
                 DesignSpec("truncated_gaussian", 1)]
        for i, spec in enumerate(specs):
            x, y = generate(RngStream(5, i), spec, 5000, 5000)
            assert np.max(np.abs(x)) <= spec.bound_m
            assert np.max(np.abs(y)) <= spec.bound_m

    def test_leaving_the_bound_raises(self, monkeypatch):
        # Cube data reach sqrt(3) > 1; the check must hold under python -O.
        monkeypatch.setattr(DesignSpec, "bound_m", property(lambda self: 1.0))
        with pytest.raises(BoundViolationError,
                           match="generated data left the declared bound"):
            generate(RngStream(5), DesignSpec("uniform_cube", 3), 5000, 5000)

    def test_negative_toeplitz_entry_stays_in_bound(self):
        spec = DesignSpec("toeplitz", 3, toeplitz_off=-1.0 / 3.0)
        x, y = generate(RngStream(5), spec, 5000, 5000)
        assert max(np.max(np.abs(x)), np.max(np.abs(y))) <= spec.bound_m

    def test_truncated_gaussian_variance_matches_quadrature(self):
        dens = lambda t: np.exp(-2.0 * t * t)
        mass = simpson(dens, -1.0, 1.0)
        var = simpson(lambda t: t * t * dens(t), -1.0, 1.0) / mass
        spec = DesignSpec("truncated_gaussian", 1)
        x, y = generate(RngStream(6), spec, 100000, 100000)
        assert x.shape == (100000, 1)
        assert float(np.var(x)) == pytest.approx(var, abs=0.01)
        assert float(np.var(y)) == pytest.approx(var, abs=0.01)

    def test_reproducible(self):
        spec = DesignSpec("uniform_cube", 2)
        x1, y1 = generate(RngStream(7), spec, 100, 100)
        x2, y2 = generate(RngStream(7), spec, 100, 100)
        assert x1.tobytes() == x2.tobytes()
        assert y1.tobytes() == y2.tobytes()


class TestRunGrid:
    @staticmethod
    def _small_cells():
        return [
            CellSpec(design=DesignSpec("uniform_cube", 1), eps=1.0, n=50,
                     kind=BOOTSTRAP),
            CellSpec(design=DesignSpec("uniform_cube", 2), eps=5.0, n=50,
                     kind=ASYMPTOTIC),
        ]

    def test_deterministic_across_parallelism(self, tmp_path):
        t1 = run_grid(self._small_cells(), 40, alpha=0.2, bootstrap_b=50,
                      master_seed=3, n_jobs=1)
        t2 = run_grid(self._small_cells(), 40, alpha=0.2, bootstrap_b=50,
                      master_seed=3, n_jobs=2)
        assert all(r.error is None for r in t1.rows)
        assert t1 == t2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table_csv(t1, p1)
        write_table_csv(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_carry_cell_metadata(self):
        table = run_grid(self._small_cells(), 10, alpha=0.2, bootstrap_b=50,
                         master_seed=1)
        assert [r.kind for r in table.rows] == [BOOTSTRAP, ASYMPTOTIC]
        assert all(r.reps == 10 for r in table.rows)
        assert all(0.0 <= r.reject_rate <= 1.0 for r in table.rows)

    def test_failing_cell_marked_not_fatal(self):
        cells = [
            CellSpec(design=DesignSpec("uniform_cube", 1), eps=1.0, n=1,
                     kind=BOOTSTRAP),
            CellSpec(design=DesignSpec("uniform_cube", 1), eps=1.0, n=50,
                     kind=ASYMPTOTIC),
        ]
        # n=1 breaks the first cell at runtime, not the grid
        table = run_grid(cells, 5, master_seed=0)
        assert table.rows[0].reject_rate is None
        assert "ValueError" in table.rows[0].error
        assert table.rows[1].reject_rate is not None

    def test_invalid_configuration_marks_cell_not_fatal(self):
        # eps = 0 fails when the first cell builds its TestConfig.
        cells = [
            CellSpec(design=DesignSpec("uniform_cube", 1), eps=0.0, n=50,
                     kind=BOOTSTRAP),
            CellSpec(design=DesignSpec("uniform_cube", 1), eps=1.0, n=50,
                     kind=ASYMPTOTIC),
        ]
        table = run_grid(cells, 3, master_seed=0)
        assert table.rows[0].reject_rate is None
        assert "epsilon must be positive" in table.rows[0].error
        assert table.rows[1].reject_rate is not None

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            run_grid(self._small_cells(), 3, master_seed=-1)

    def test_per_cell_reps_override(self):
        cells = [CellSpec(design=DesignSpec("uniform_cube", 1), eps=1.0,
                          n=50, kind=ASYMPTOTIC, reps=7)]
        table = run_grid(cells, 99, master_seed=0)
        assert table.rows[0].reps == 7

    @pytest.mark.parametrize("cell_reps", [0, -3])
    def test_cell_reps_below_one_raise(self, cell_reps):
        cells = [CellSpec(design=DesignSpec("uniform_cube", 1), eps=1.0,
                          n=50, kind=ASYMPTOTIC, reps=cell_reps)]
        with pytest.raises(ValueError, match="reps must be positive"):
            run_grid(cells, 5, master_seed=0)

    @pytest.mark.parametrize("n_jobs", [0, -4])
    def test_n_jobs_below_one_raise(self, n_jobs):
        with pytest.raises(ValueError, match="n_jobs must be at least 1"):
            run_grid(self._small_cells(), 3, n_jobs=n_jobs)


class TestWorkerCount:
    """``run_grid`` starts no more workers than blocks or available CPUs.

    A fake executor records its size and maps serially, so no real pool
    starts.
    """

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(simbench, "ProcessPoolExecutor", SerialPool)
        return sizes

    @staticmethod
    def _cells(reps):
        return [CellSpec(design=DesignSpec("uniform_cube", 1), eps=1.0,
                         n=20, kind=ASYMPTOTIC, reps=reps)]

    def test_capped_by_available_cpus(self, monkeypatch, pools):
        monkeypatch.setattr(simbench, "_available_cpus", lambda: 2)
        table = run_grid(self._cells(40), 1, n_jobs=8)
        assert pools == [2]
        assert table == run_grid(self._cells(40), 1, n_jobs=8)

    def test_capped_by_blocks(self, monkeypatch, pools):
        monkeypatch.setattr(simbench, "_available_cpus", lambda: 64)
        run_grid(self._cells(2), 1, n_jobs=3)
        assert pools == [2]

    def test_one_block_runs_serially(self, monkeypatch, pools):
        monkeypatch.setattr(simbench, "_available_cpus", lambda: 64)
        run_grid(self._cells(1), 1, n_jobs=3)
        assert pools == []

    def test_one_cpu_runs_serially(self, monkeypatch, pools):
        monkeypatch.setattr(simbench, "_available_cpus", lambda: 1)
        run_grid(self._cells(12), 1, n_jobs=4)
        assert pools == []


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        cells = [CellSpec(design=DesignSpec("toeplitz", 2, a=1.0), eps=0.3,
                          n=60, kind=BOOTSTRAP)]
        table = run_grid(cells, 8, alpha=0.25, bootstrap_b=40, master_seed=9)
        assert table.rows[0].reject_rate is not None
        path = tmp_path / "t.csv"
        write_table_csv(table, path)
        back = read_table_csv(path)
        assert back.rows[0] == table.rows[0]

    def test_na_rate_round_trips(self, tmp_path):
        cells = [CellSpec(design=DesignSpec("uniform_cube", 1), eps=1.0,
                          n=50, kind=BOOTSTRAP)]
        table = run_grid(cells, 3, bootstrap_b=1, master_seed=0)
        path = tmp_path / "bad.csv"
        write_table_csv(table, path)
        back = read_table_csv(path)
        assert back.rows[0].reject_rate is None

    def test_header_checked(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_table_csv(path)


class TestGridBuilders:
    def test_table1_shape(self):
        cells = table1_cells()
        assert len(cells) == 96
        assert {c.kind for c in cells} == {BOOTSTRAP, ASYMPTOTIC}
        assert {c.design.d for c in cells} == {1, 10, 30}
        assert {c.eps for c in cells} == {0.1, 0.5, 1.0, 5.0}

    def test_table2_shape(self):
        cells = table2_cells()
        assert len(cells) == 24
        assert all(c.design.design == "toeplitz" for c in cells)
        assert all(c.kind == BOOTSTRAP for c in cells)

    def test_example32_shape(self):
        cells = example32_cells()
        assert [c.eps for c in cells] == [4.0, 1.0]
        assert all(c.n == 500 and c.kind == ASYMPTOTIC for c in cells)

    def test_fast_flag_trims_heavy_cells(self):
        fast = table1_cells(fast=True)
        full = table1_cells(fast=False)
        assert all(c.reps == 200 for c in fast if c.n >= 100000)
        assert all(c.reps == 1000 for c in full)

    def test_power_cells_under_alternative(self):
        assert all(c.design.a == 1.0 for c in power_cells())


class TestLevelCells:
    @pytest.mark.slow
    def test_bootstrap_small_sample_strong_privacy(self):
        # d=1, eps=0.1, n=1e2: the bootstrap holds its level even where the
        # asymptotic rule rejects 70%+ of the time.
        cells = [CellSpec(design=DesignSpec("uniform_cube", 1), eps=0.1,
                          n=100, kind=BOOTSTRAP)]
        table = run_grid(cells, 1000, master_seed=0, n_jobs=2)
        assert 0.03 <= table.rows[0].reject_rate <= 0.08

    def test_privacy_off_asymptotic_calibration(self):
        # No noise, large n: the chi-squared rule is just classical theory.
        cells = [CellSpec(design=DesignSpec("uniform_cube", 2),
                          eps=math.inf, n=10000, kind=ASYMPTOTIC)]
        table = run_grid(cells, 400, master_seed=2, n_jobs=2)
        sigma = math.sqrt(0.05 * 0.95 / 400)
        assert abs(table.rows[0].reject_rate - 0.05) <= 3 * sigma

    def test_privacy_off_truncated_gaussian_calibration(self):
        spec = DesignSpec("truncated_gaussian", 1)
        cells = [CellSpec(design=spec, eps=math.inf, n=500, kind=ASYMPTOTIC)]
        table = run_grid(cells, 500, master_seed=3, n_jobs=2)
        assert abs(table.rows[0].reject_rate - 0.05) <= 0.02


class TestPowerCurve:
    @pytest.mark.slow
    def test_power_grows_and_level_degenerates(self):
        spec = DesignSpec("uniform_cube", 1, a=1.0)
        table = power_curve(spec, 5.0, (100, 1000), 200, master_seed=13,
                            n_jobs=2)
        rates = [r.reject_rate for r in table.rows]
        assert rates[1] >= rates[0] - 2.0 * math.sqrt(0.25 / 200)
        assert rates[1] >= 0.95

        null_spec = DesignSpec("uniform_cube", 1)
        null_table = power_curve(null_spec, 5.0, (400,), 300, master_seed=14)
        rate = null_table.rows[0].reject_rate
        sigma = math.sqrt(0.05 * 0.95 / 300)
        assert 0.05 - 3 * sigma <= rate <= 0.05 + 3 * sigma


class TestReplicateStreamCount:
    @pytest.mark.parametrize("kind, expected", [(BOOTSTRAP, 6), (ASYMPTOTIC, 5)])
    def test_only_drawing_streams_are_built(self, philox_count, kind, expected):
        # The data, the four releases and (bootstrap rule only) the
        # resampling draw; the master, replication and test streams do not.
        cell = CellSpec(DesignSpec("uniform_cube", 2), eps=1.0, n=40, kind=kind)
        cfg = TestConfig(epsilon=1.0, bound_m=cell.design.bound_m,
                         threshold_kind=kind)
        simbench._replicate(3, 0, 5, cell, cfg)
        assert len(philox_count) == expected

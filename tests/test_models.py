"""Constraint-model primitives: values, gradients, projections, feasibility."""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sparseratio.models as models_module
from sparseratio.cli import run_pipeline
from sparseratio.drivers import SolverConfig, feasible_start
from sparseratio.instances import GenSpec, generate
from sparseratio.models import (
    LeastSquares,
    Lorentzian,
    RobustCS,
    SensingMatrix,
    _sparse_keep,
    _subgrad_p2_of_residual,
    dist_sq_sparse,
    grad_p1,
    is_feasible,
    lorentzian_grad,
    lorentzian_norm,
    project_sparse,
    q_value,
    subgrad_p2,
)
from sparseratio.subsolvers import least_norm_solution

from oracles import central_diff_gradient, power_iteration_opnorm

RNG = np.random.default_rng(20240817)


def traced_memory(fn, *args) -> tuple[int, int]:
    """Bytes that tracemalloc sees still allocated after fn(*args) and at
    the peak during it, above what was allocated when it started."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        fn(*args)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return now - held, peak - held


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during fn(*args), above
    what was allocated when it started."""
    return traced_memory(fn, *args)[1]


def in_fresh_interpreter(code: str):
    """Run code in a new Python process that imports sparseratio from this
    checkout; return the JSON it prints."""
    src = str(Path(models_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def random_model(kind, m=6, n=15, seed=0):
    """A small well-posed instance of the requested model family."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m) + 3.0  # keep q(0) comfortably positive
    if kind == "ls":
        return LeastSquares(A, b, sigma=0.5)
    if kind == "lorentzian":
        return Lorentzian(A, b, sigma=0.5, gamma=0.02)
    if kind == "robust":
        return RobustCS(A, b, sigma=0.5, r=2)
    raise ValueError(kind)


finite_vectors = arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


class TestSensingMatrix:
    def test_caches_qr_of_transpose(self):
        A = RNG.standard_normal((4, 9))
        sm = SensingMatrix(A)
        assert sm.m == 4 and sm.n == 9
        q, r = sm.qr
        np.testing.assert_allclose(q @ r, A.T, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("shape", [(4, 9), (64, 300), (6, 6), (8, 9),
                                       (1, 1), (1, 7), (33, 34), (180, 640)])
    def test_factors_match_numpy_qr(self, shape):
        # m < n and m = n: Q and R are np.linalg.qr's, bitwise, with the
        # shapes of the thin QR and row-major
        A = RNG.standard_normal(shape)
        q_np, r_np = np.linalg.qr(A.T)
        q, r = SensingMatrix(A).qr
        assert q.shape == q_np.shape and q.tobytes() == q_np.tobytes()
        assert r.shape == r_np.shape and r.tobytes() == r_np.tobytes()
        assert q.flags.c_contiguous and r.flags.c_contiguous

    def test_factors_read_only_and_q_cached(self):
        sm = SensingMatrix(RNG.standard_normal((3, 7)))
        assert sm.qr is sm.qr
        for arr in (sm.cholesky, *sm.qr):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("pipeline", ["mba_ratio", "two_stage"])
    def test_moving_balls_pipelines_never_form_q(self, pipeline):
        # their one use of the factorization is the least-norm start, which
        # solves with the Cholesky factor on the Gaussian families: the QR
        # is not formed. Only the affine prox forms it
        specs = [GenSpec(family="cauchy", n=64, m=24, k=3, seed=0),
                 GenSpec(family="robust_cs", n=64, p=24, k=3, iota=2,
                         seed=0)]
        for spec in specs:
            model = generate(spec).model
            run_pipeline(model, pipeline, SolverConfig())
            assert model.A.cholesky is not None
            assert model.A._qr is None
        run_pipeline(model, "algorithm1", SolverConfig(max_outer_iters=1))
        assert model.A._qr is not None

    def test_gaussian_families_keep_the_cholesky_factor(self):
        # the generated Gaussian matrices read rho of about 0.3, so they
        # keep L with L L^T = A A^T, lower triangular and frozen
        for spec in (GenSpec(family="robust_cs", n=256, p=72, k=8, iota=2,
                             seed=1),
                     GenSpec(family="cauchy", n=640, m=180, k=20, seed=0)):
            sm = generate(spec).model.A
            L = sm.cholesky
            assert L.shape == (sm.m, sm.m) and not L.flags.writeable
            assert L.tobytes() == np.tril(L).tobytes()
            gram = sm.entries @ sm.entries.T
            assert np.abs(L @ L.T - gram).max() <= 1e-14 * np.abs(gram).max()

    @pytest.mark.parametrize("seed, cond, n, m, k, D", [
        (688, 1.4e7, 128, 24, 3, 3.0), (1382, 2.1e8, 128, 24, 3, 3.0),
        (9, 630.0, 1024, 64, 8, 2.0), (11, 132.0, 1024, 64, 8, 2.0),
        (12, 5.4e3, 1024, 64, 8, 2.0)])
    def test_ill_conditioned_badly_scaled_draws_take_the_qr_path(
            self, seed, cond, n, m, k, D):
        # cosine rows at 128 x 24, where L L^T would square the condition
        # number past 1e14, and acceptance plan 3's draws that read rho
        # below _CHOLESKY_RTOL at 1024 x 64: A keeps its QR, factored at
        # construction. The least-norm start solved with it leaves a
        # residual of 3.4e-16 to 3.4e-13 |b| and meets the pinv bound of
        # test_matches_pseudoinverse
        model = generate(GenSpec(family="badly_scaled", n=n, m=m, k=k, F=5.0,
                                 D=D, seed=seed)).model
        sm, b = model.A, model.b
        assert sm.cholesky is None and sm._qr is not None
        measured = np.linalg.cond(sm.entries)
        assert measured == pytest.approx(cond, rel=0.05)
        x = least_norm_solution(sm, b)
        assert np.linalg.norm(sm.entries @ x - b) <= 1e-11 * np.linalg.norm(b)
        x_pinv = np.linalg.pinv(sm.entries) @ b
        bound = max(1e-12, 100.0 * np.finfo(float).eps * measured)
        assert np.linalg.norm(x - x_pinv) <= bound * np.linalg.norm(x_pinv)

    def test_hidden_ill_conditioning_takes_the_qr_path(self):
        # A = (Q R)^T with R = I - 0.6 (ones above the diagonal), 40 x 40:
        # every row lies at distance 1 from the span of the rows before it,
        # so L's computed diagonal stays above half its largest entry, yet
        # cond(A) is 8e8, and the corrected semi-normal equations leave a
        # residual of 7.2 |b| here. LINPACK's sign choice grows y like
        # 1.6^i and finds it
        rng = np.random.default_rng(0)
        m = 40
        q, _ = np.linalg.qr(rng.standard_normal((2 * m, m)))
        A = (q @ (np.eye(m) - 0.6 * np.triu(np.ones((m, m)), 1))).T
        pivots = np.diagonal(np.linalg.cholesky(A @ A.T))
        assert pivots.min() > 0.5 * pivots.max()
        assert np.linalg.cond(A) > 1e8
        sm = SensingMatrix(A)
        assert sm.cholesky is None
        b = rng.standard_normal(m)
        x = least_norm_solution(sm, b)
        assert np.linalg.norm(A @ x - b) <= 1e-7 * np.linalg.norm(b)

    @pytest.mark.parametrize("factor, keeps_cholesky", [(1.0 + 1e-6, True),
                                                        (1.0 - 1e-6, False)])
    def test_cholesky_bound_edge(self, factor, keeps_cholesky):
        # A = D V^T, V with orthonormal columns and D = diag(1, ..., 1, t):
        # L = D up to round-off, y_i = +-1/d_i, so rho reads t. Just above
        # _CHOLESKY_RTOL A keeps L, just below it the QR; both have full
        # row rank, and both solves agree
        v, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((30, 12)))
        d = np.ones(12)
        d[-1] = factor * models_module._CHOLESKY_RTOL
        sm = SensingMatrix(d[:, None] * v.T)
        assert (sm.cholesky is not None) == keeps_cholesky
        b = np.arange(1.0, 13.0)
        x, exact = least_norm_solution(sm, b), v @ (b / d)
        assert np.linalg.norm(x - exact) <= 1e-13 * np.linalg.norm(exact)

    def test_rank_decision_matches_the_qr_rule(self):
        # either path accepts exactly the matrices whose R, from
        # np.linalg.qr (dgeqrf with the same bits), has
        # min |R_ii| > _RANK_RTOL max |R_ii|. Draws: Gaussian with column
        # scales over up to 10 decades, half with the last row moved within
        # 1e-14 to 1e-6 of the first (around that threshold), and cosine
        # rows as badly_scaled draws them at 128 x 24
        rng = np.random.default_rng(11)
        matrices = []
        for _ in range(300):
            n = int(rng.integers(1, 41))
            m = int(rng.integers(1, n + 1))
            decades = rng.uniform(0.0, 10.0)
            A = (rng.standard_normal((m, n))
                 * 10.0 ** rng.uniform(-decades / 2, decades / 2, n))
            if m > 1 and rng.random() < 0.5:
                A[-1] = A[0] + 10.0 ** rng.uniform(-14, -6) * A[-1]
            matrices.append(A)
        for _ in range(100):
            w = rng.random(24)
            matrices.append(np.cos(2.0 * np.pi * np.outer(w, np.arange(1, 129))
                                   / 5.0) / np.sqrt(24))
        seen = set()
        for A in matrices:
            r = np.abs(np.diagonal(np.linalg.qr(A.T, mode="r")))
            wanted = bool(r.min() > models_module._RANK_RTOL * r.max())
            try:
                path = SensingMatrix(A).cholesky is None
            except ValueError:
                path = None
            assert (path is not None) == wanted
            seen.add(path)
        assert seen == {None, True, False}

    def test_moving_balls_pipelines_never_import_scipy_linalg(self):
        # the test process has scipy loaded already, so a fresh interpreter
        # checks that only the affine prox imports scipy.linalg
        code = textwrap.dedent("""
            import json, sys
            from sparseratio.cli import run_pipeline
            from sparseratio.drivers import SolverConfig
            from sparseratio.instances import GenSpec, generate
            specs = [GenSpec(family="cauchy", n=64, m=24, k=3, seed=0),
                     GenSpec(family="robust_cs", n=64, p=24, k=3, iota=2,
                             seed=0)]
            seen = []
            for spec in specs:
                model = generate(spec).model
                for pipeline in ("mba_ratio", "mba_l1", "two_stage"):
                    run_pipeline(model, pipeline, SolverConfig())
                    seen.append("scipy.linalg" in sys.modules)
            run_pipeline(model, "algorithm1", SolverConfig(max_outer_iters=1))
            seen.append("scipy.linalg" in sys.modules)
            print(json.dumps(seen))
        """)
        assert in_fresh_interpreter(code) == [False] * 6 + [True]

    def test_moving_balls_pipelines_never_import_the_process_pool(self):
        # only bench --jobs above 1 needs ProcessPoolExecutor; a fresh
        # interpreter checks that neither it nor multiprocessing loads
        # with the package or during a moving-balls run
        code = textwrap.dedent("""
            import json, sys
            import sparseratio
            from sparseratio.cli import run_pipeline
            from sparseratio.drivers import SolverConfig
            from sparseratio.instances import GenSpec, generate
            model = generate(GenSpec(family="cauchy", n=64, m=24, k=3,
                                     seed=0)).model
            for pipeline in ("mba_ratio", "mba_l1", "two_stage"):
                run_pipeline(model, pipeline, SolverConfig())
            print(json.dumps([name for name in ("concurrent.futures.process",
                                                "multiprocessing")
                              if name in sys.modules]))
        """)
        assert in_fresh_interpreter(code) == []

    def test_full_row_rank_flag(self):
        # the constructor decides rank once: a matrix without full row
        # rank, repeated rows or more rows than columns, is no SensingMatrix
        assert SensingMatrix(RNG.standard_normal((3, 8))).m == 3
        for entries in (np.ones((2, 5)), RNG.standard_normal((9, 4)),
                        RNG.standard_normal((7, 1))):
            with pytest.raises(ValueError, match="full row rank"):
                SensingMatrix(entries)

    def test_entries_frozen(self):
        sm = SensingMatrix(np.eye(3))
        with pytest.raises(ValueError):
            sm.entries[0, 0] = 7.0

    def test_adopts_a_frozen_matrix_that_owns_its_data(self):
        A = RNG.standard_normal((5, 12))
        A.flags.writeable = False
        assert SensingMatrix(A).entries is A

    def test_copies_a_writeable_matrix(self):
        A = RNG.standard_normal((5, 12))
        before = A.copy()
        sm = SensingMatrix(A)
        assert A.flags.writeable and not np.shares_memory(sm.entries, A)
        A[0, 0] = 7.0
        assert sm.entries.tobytes() == before.tobytes()

    def test_copies_a_frozen_view_of_a_writeable_base(self):
        base = RNG.standard_normal((5, 12))
        before = base.copy()
        view = base.view()
        view.flags.writeable = False
        sm = SensingMatrix(view)
        assert sm.entries is not view
        assert not np.shares_memory(sm.entries, base)
        base[0, 0] = 7.0
        assert sm.entries.tobytes() == before.tobytes()

    def test_converts_a_frozen_int_matrix(self):
        A = np.array([[1, 0, 2], [0, 3, 1]])
        A.flags.writeable = False
        sm = SensingMatrix(A)
        assert sm.entries.dtype == np.float64 and not sm.entries.flags.writeable
        np.testing.assert_array_equal(sm.entries, A)

    def test_factoring_a_frozen_matrix_allocates_one_matrix(self):
        # A A^T and its Cholesky factor, m-by-m each and alive together,
        # read 2 m / n = 0.57 of A; one more m-by-m array adds 0.29, the
        # QR's Q and R 1.29, and a copy of A 1.0
        A = RNG.standard_normal((730, 2560))
        A.flags.writeable = False
        assert traced_peak(SensingMatrix, A) <= 0.6 * A.nbytes

    def test_forming_the_qr_holds_only_q_and_r(self):
        # the affine prox's factors of a matrix that kept L: Q (n-by-m) and
        # R (m-by-m) stay, 1 + m / n = 1.28 of A at 180 x 640.
        # np.linalg.qr's copy of A^T, which dgeqrf overwrites, lives only
        # while it runs: 2.39 at the peak
        sm = SensingMatrix(RNG.standard_normal((180, 640)))
        assert sm.cholesky is not None and sm._qr is None
        held, peak = traced_memory(lambda: sm.qr)
        assert sm._qr is not None
        assert held <= 1.3 * sm.entries.nbytes
        assert peak <= 2.5 * sm.entries.nbytes

    def test_generating_holds_two_matrices(self):
        # acceptance plan 1's robust_cs cell: A with A A^T and its Cholesky
        # factor read 1.57. The column norms are summed row by row, so no
        # m-by-n temporary is drawn with A (with one, 2.0); a copy of A in
        # the generator or in SensingMatrix reads 2.6
        spec = GenSpec(family="robust_cs", n=2560, p=720, k=80, iota=10,
                       seed=0)
        assert traced_peak(generate, spec) <= 1.6 * 730 * 2560 * 8

    @pytest.mark.parametrize("start", [
        lambda model: least_norm_solution(model.A, model.b),
        feasible_start,
    ], ids=["least_norm_solution", "feasible_start"])
    def test_least_norm_start_allocates_no_matrix(self, start):
        # on the same cell the start reads the Cholesky factor in place:
        # vectors only, 0.004 of A; an m-by-m copy of it reads 0.29
        model = generate(GenSpec(family="robust_cs", n=2560, p=720, k=80,
                                 iota=10, seed=0)).model
        assert traced_peak(start, model) <= 0.05 * model.A.entries.nbytes

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SensingMatrix(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            SensingMatrix([[np.nan, 1.0]])


class TestLorentzianNorm:
    def test_zero_vector(self):
        assert lorentzian_norm(np.zeros(3), 0.02) == 0.0

    def test_single_entry_at_gamma(self):
        for gamma in (0.02, 1.0, 5.0):
            assert lorentzian_norm([gamma], gamma) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_matches_direct_summation(self):
        y = RNG.standard_normal(10)
        direct = sum(np.log(1.0 + (v / 0.02) ** 2) for v in y)
        assert lorentzian_norm(y, 0.02) == pytest.approx(direct, rel=1e-12)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            lorentzian_norm([1.0], 0.0)
        with pytest.raises(ValueError):
            lorentzian_norm([1.0], -0.3)


class TestLorentzianGrad:
    def test_zero_vector(self):
        np.testing.assert_array_equal(lorentzian_grad(np.zeros(4), 0.02), np.zeros(4))

    def test_unit_case(self):
        np.testing.assert_allclose(lorentzian_grad([1.0], 1.0), [1.0], rtol=1e-15)

    def test_matches_finite_differences(self):
        y = RNG.standard_normal(10)
        num = central_diff_gradient(lambda v: lorentzian_norm(v, 0.02), y)
        ana = lorentzian_grad(y, 0.02)
        assert np.linalg.norm(ana - num) <= 1e-6 * max(1.0, np.linalg.norm(ana))

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            lorentzian_grad([1.0], 0.0)


class TestProjectSparse:
    def test_keeps_largest_magnitudes(self):
        np.testing.assert_array_equal(project_sparse([3.0, -1.0, 2.0], 2), [3.0, 0.0, 2.0])

    def test_tie_keeps_lowest_index(self):
        np.testing.assert_array_equal(project_sparse([1.0, -1.0], 1), [1.0, 0.0])

    def test_r_zero_gives_zero_vector(self):
        np.testing.assert_array_equal(project_sparse(RNG.standard_normal(5), 0), np.zeros(5))

    def test_r_equal_length_is_identity(self):
        y = RNG.standard_normal(6)
        np.testing.assert_array_equal(project_sparse(y, 6), y)

    @given(arrays(np.float64, st.integers(1, 12), elements=st.sampled_from(
        [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])), st.data())
    def test_keep_set_under_ties(self, y, data):
        # ties are forced by the few magnitudes; the reference keeps the r
        # largest |y_i| with ties going to the lowest index
        r = data.draw(st.integers(0, y.size))
        ref = sorted(sorted(range(y.size), key=lambda i: (-abs(y[i]), i))[:r])
        assert sorted(_sparse_keep(y, r)) == ref
        expected = np.zeros_like(y)
        expected[ref] = y[ref]
        out = project_sparse(y, r)
        np.testing.assert_array_equal(out, expected)
        d = y - out
        assert dist_sq_sparse(y, r) == float(d @ d)

    def test_rejects_out_of_range_r(self):
        with pytest.raises(ValueError):
            project_sparse([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            project_sparse([1.0, 2.0], -1)

    @given(finite_vectors, st.data())
    def test_output_in_sparse_set_and_agrees_on_support(self, y, data):
        r = data.draw(st.integers(0, y.size))
        out = project_sparse(y, r)
        assert np.count_nonzero(out) <= r
        on = out != 0
        np.testing.assert_array_equal(out[on], y[on])


class TestDistSqSparse:
    def test_hand_case(self):
        assert dist_sq_sparse([3.0, -1.0, 2.0], 2) == pytest.approx(1.0)

    def test_full_r_is_zero(self):
        assert dist_sq_sparse(RNG.standard_normal(7), 7) == 0.0

    def test_pythagoras_on_random_vector(self):
        y = RNG.standard_normal(20)
        xi = project_sparse(y, 5)
        lhs = dist_sq_sparse(y, 5)
        rhs = float(y @ y - xi @ xi)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(finite_vectors, st.data())
    def test_pythagoras_and_alignment(self, y, data):
        # ||y||^2 splits into kept energy plus squared distance, and the
        # projection is aligned with y on its support.
        r = data.draw(st.integers(0, y.size))
        xi = project_sparse(y, r)
        norm_sq = float(y @ y)
        assert float(xi @ xi) + dist_sq_sparse(y, r) == pytest.approx(
            norm_sq, rel=1e-10, abs=1e-10
        )
        assert float(y @ xi) == pytest.approx(float(xi @ xi), rel=1e-12, abs=1e-12)


class TestQValue:
    def test_least_squares_at_origin(self):
        model = LeastSquares(np.eye(2), [2.0, 0.0], sigma=1.0)
        assert q_value(model, np.zeros(2)) == pytest.approx(3.0)

    def test_robust_origin_boundary_arithmetic(self):
        # dist^2([-3,1,-2], two-sparse set) - sigma^2 = 1 - 1 = 0; the
        # constructor refuses exactly this boundary (origin must be strictly
        # infeasible), so the arithmetic is checked on the primitives and the
        # rejection is checked on the constructor.
        assert dist_sq_sparse([-3.0, 1.0, -2.0], 2) - 1.0**2 == pytest.approx(0.0)
        with pytest.raises(ValueError):
            RobustCS(np.eye(3), [3.0, -1.0, 2.0], sigma=1.0, r=2)

    def test_robust_near_boundary_value(self):
        model = RobustCS(np.eye(3), [3.0, -1.0, 2.0], sigma=0.9, r=2)
        assert q_value(model, np.zeros(3)) == pytest.approx(1.0 - 0.81)

    def test_lorentzian_composes_primitives(self):
        model = random_model("lorentzian", seed=3)
        x = np.random.default_rng(4).standard_normal(model.A.n)
        expected = lorentzian_norm(model.A.entries @ x - model.b, model.gamma) - model.sigma
        assert q_value(model, x) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        model = random_model("ls")
        with pytest.raises(ValueError):
            q_value(model, np.zeros(model.A.n + 1))


class TestGradP1:
    def test_least_squares_hand_case(self):
        model = LeastSquares(np.eye(2), [2.0, 0.0], sigma=1.0)
        np.testing.assert_allclose(grad_p1(model, np.zeros(2)), [-4.0, 0.0])

    def test_robust_matches_least_squares(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((5, 12))
        b = rng.standard_normal(5) + 2.0
        ls = LeastSquares(A, b, sigma=0.5)
        rcs = RobustCS(A, b, sigma=0.5, r=1)
        x = rng.standard_normal(12)
        np.testing.assert_allclose(grad_p1(rcs, x), grad_p1(ls, x), rtol=1e-15)

    @pytest.mark.parametrize("kind", ["ls", "lorentzian", "robust"])
    def test_matches_finite_differences(self, kind):
        model = random_model(kind, seed=7)
        rng = np.random.default_rng(8)
        sq = model.sigma**2 if kind != "lorentzian" else model.sigma

        def p1(x):
            if kind == "lorentzian":
                return lorentzian_norm(model.A.entries @ x - model.b, model.gamma) - sq
            res = model.A.entries @ x - model.b
            return float(res @ res) - sq

        for _ in range(5):
            x = rng.standard_normal(model.A.n)
            num = central_diff_gradient(p1, x)
            ana = grad_p1(model, x)
            assert np.linalg.norm(ana - num) <= 1e-6 * max(1.0, np.linalg.norm(ana))


class TestSubgradP2:
    def test_zero_for_ls_and_lorentzian(self):
        for kind in ("ls", "lorentzian"):
            model = random_model(kind)
            x = RNG.standard_normal(model.A.n)
            np.testing.assert_array_equal(subgrad_p2(model, x), np.zeros(model.A.n))

    def test_identity_hand_case(self):
        model = RobustCS(np.eye(3), [3.0, -1.0, 2.0], sigma=0.9, r=2)
        np.testing.assert_allclose(
            subgrad_p2(model, np.zeros(3)), 2.0 * np.array([-3.0, 0.0, -2.0])
        )

    def test_r_equal_m_collapses_to_gradient(self):
        # with r = m the projection is the identity, so the subgradient
        # formula 2 A^T proj(res) coincides with grad_p1 and q == -sigma^2
        # everywhere; the constructor therefore rejects r = m outright (the
        # origin can never be strictly infeasible).
        rng = np.random.default_rng(21)
        A = rng.standard_normal((4, 10))
        b = rng.standard_normal(4) + 2.0
        x = rng.standard_normal(10)
        res = A @ x - b
        np.testing.assert_allclose(
            2.0 * (A.T @ project_sparse(res, 4)), 2.0 * (A.T @ res), rtol=1e-12
        )
        with pytest.raises(ValueError):
            RobustCS(A, b, sigma=0.5, r=4)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_kept_rows_match_full_transpose_product(self, m, data):
        # the hook multiplies only the r kept rows of A; it must agree with
        # the full product 2 A^T P_S(res), ties included
        n = data.draw(st.integers(m, 30))
        r = data.draw(st.integers(0, m - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        A = rng.standard_normal((m, n))
        b = rng.choice([-1.0, 1.0], m) * rng.uniform(1.0, 2.0, m)
        model = RobustCS(A, b, sigma=0.5, r=r)
        res = rng.integers(-3, 4, m) * data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        full = 2.0 * (A.T @ project_sparse(res, r))
        g = _subgrad_p2_of_residual(model, res)
        assert np.linalg.norm(g - full) <= 1e-12 * max(1.0, np.linalg.norm(full))

    def test_convexity_subgradient_inequality(self):
        # P2(x') >= P2(x) + <g, x' - x> for g = subgrad_p2(x)
        model = random_model("robust", seed=13)
        rng = np.random.default_rng(14)

        def p2(x):
            res = model.A.entries @ x - model.b
            return float(res @ res) - dist_sq_sparse(res, model.r)

        for _ in range(50):
            x = rng.standard_normal(model.A.n)
            xp = rng.standard_normal(model.A.n)
            gap = p2(xp) - p2(x) - float(subgrad_p2(model, x) @ (xp - x))
            assert gap >= -1e-10


class TestLipschitzBounds:
    def test_quadratic_models(self):
        model = random_model("robust", seed=31)
        L = 2.0 * power_iteration_opnorm(model.A.entries) ** 2
        rng = np.random.default_rng(32)
        for _ in range(30):
            x, xp = rng.standard_normal((2, model.A.n))
            lhs = np.linalg.norm(grad_p1(model, x) - grad_p1(model, xp))
            assert lhs <= L * np.linalg.norm(x - xp) * (1.0 + 1e-9)

    def test_lorentzian(self):
        model = random_model("lorentzian", seed=33)
        L = 2.0 * power_iteration_opnorm(model.A.entries) ** 2 / model.gamma**2
        rng = np.random.default_rng(34)
        for _ in range(30):
            x, xp = rng.standard_normal((2, model.A.n))
            lhs = np.linalg.norm(grad_p1(model, x) - grad_p1(model, xp))
            assert lhs <= L * np.linalg.norm(x - xp) * (1.0 + 1e-9)


    @pytest.mark.parametrize("kind", ["ls", "lorentzian", "robust"])
    def test_p1_curvature_bounds_the_bregman_gap(self, kind):
        # P1(x + d) - P1(x) - <grad P1(x), d> <= c ||A d||^2, with equality
        # for the squared residual and in the limit d -> 0 at zero residual
        # for the Lorentzian
        model = random_model(kind, seed=35)
        A = model.A.entries

        def p1(x):
            res = A @ x - model.b
            if kind == "lorentzian":
                return lorentzian_norm(res, model.gamma)
            return float(res @ res)

        c = model.curvature
        rng = np.random.default_rng(36)
        for scale in (1e-3, 1e-1, 1.0, 10.0):
            x, d = rng.standard_normal((2, model.A.n))
            d *= scale
            gap = p1(x + d) - p1(x) - grad_p1(model, x) @ d
            bound = c * float(np.sum((A @ d) ** 2))
            assert gap <= bound * (1.0 + 1e-9)
            if kind != "lorentzian":
                assert gap == pytest.approx(bound, rel=1e-6)
        if kind == "lorentzian":
            x = np.linalg.lstsq(A, model.b, rcond=None)[0]
            d = 1e-6 * model.gamma * rng.standard_normal(model.A.n)
            gap = p1(x + d) - p1(x) - grad_p1(model, x) @ d
            assert gap == pytest.approx(c * float(np.sum((A @ d) ** 2)),
                                        rel=1e-3)


class TestConstruction:
    def test_origin_must_be_infeasible(self):
        with pytest.raises(ValueError):
            LeastSquares(np.eye(2), [0.5, 0.0], sigma=1.0)  # ||b|| <= sigma
        with pytest.raises(ValueError):
            Lorentzian(np.eye(2), [0.01, 0.0], sigma=1.0, gamma=0.02)
        # every successfully built model has q(0) > 0
        for kind in ("ls", "lorentzian", "robust"):
            model = random_model(kind, seed=41)
            assert q_value(model, np.zeros(model.A.n)) > 0

    @pytest.mark.parametrize("build", [
        lambda A, b: LeastSquares(A, b, sigma=1e160),
        lambda A, b: RobustCS(A, b, sigma=1e160, r=1),
    ], ids=["least_squares", "robust_cs"])
    def test_origin_with_nan_q_rejected(self, build):
        # ||b||^2 and sigma^2 both overflow, so q(0) = inf - inf = nan,
        # which a test q(0) <= 0 lets through
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 10))
        b = rng.standard_normal(4) * 1e160
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="q\\(0\\) = nan"):
                build(A, b)

    def test_rank_deficient_matrix_rejected(self):
        A = np.ones((2, 5))
        with pytest.raises(ValueError):
            LeastSquares(A, [3.0, 3.0], sigma=0.5)

    def test_parameter_validation(self):
        A = np.eye(3)
        b = [3.0, -1.0, 2.0]
        with pytest.raises(ValueError):
            LeastSquares(A, b, sigma=0.0)
        with pytest.raises(ValueError):
            Lorentzian(A, b, sigma=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            RobustCS(A, b, sigma=0.9, r=4)  # r > m
        with pytest.raises(ValueError):
            RobustCS(A, b, sigma=0.9, r=-1)
        with pytest.raises(ValueError):
            LeastSquares(A, [1.0, 2.0], sigma=0.5)  # wrong length b
        # each number is read by _as_number: bools, floats for an integer,
        # lists, strings and NaN raise ValueError
        with pytest.raises(ValueError):
            RobustCS(A, b, sigma=0.9, r=True)
        with pytest.raises(ValueError):
            RobustCS(A, b, sigma=0.9, r=2.0)
        with pytest.raises(ValueError):
            LeastSquares(A, b, sigma=[1.0])
        with pytest.raises(ValueError):
            Lorentzian(A, b, sigma=1.0, gamma="0.02")
        with pytest.raises(ValueError):
            Lorentzian(A, b, sigma=1.0, gamma=float("nan"))

    def test_repr(self):
        A = np.eye(3)
        b = [3.0, -1.0, 2.0]
        assert (repr(LeastSquares(A, b, sigma=0.5))
                == "LeastSquares(m=3, n=3, sigma=0.5)")
        assert (repr(Lorentzian(A, b, sigma=1, gamma=0.5))
                == "Lorentzian(m=3, n=3, sigma=1.0, gamma=0.5)")
        assert (repr(RobustCS(A, b, sigma=0.9, r=np.int64(2)))
                == "RobustCS(m=3, n=3, sigma=0.9, r=2)")


class TestIsFeasible:
    def test_hand_cases(self):
        model = LeastSquares(np.eye(2), [2.0, 0.0], sigma=1.0)
        assert is_feasible(model, np.array([2.0, 0.0]), tol=0.0)
        assert not is_feasible(model, np.zeros(2), tol=0.0)

    def test_boundary_inclusive(self):
        model = LeastSquares(np.eye(2), [2.0, 0.0], sigma=1.0)
        x = np.zeros(2)
        q = q_value(model, x)  # 3.0
        assert is_feasible(model, x, tol=q)

    def test_rejects_negative_tol(self):
        model = random_model("ls")
        with pytest.raises(ValueError):
            is_feasible(model, np.zeros(model.A.n), tol=-1.0)

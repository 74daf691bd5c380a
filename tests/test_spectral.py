"""Perron-Frobenius analysis: eigenvalues, proportions, bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_automaton import dense, relabel, to_csr
from test_configs import states_of

from braidlex import automaton as am
from braidlex import matrixgen as mg
from braidlex import configs as cf
from braidlex import spectral as sp
from braidlex.configs import SegmentConfig
from braidlex.errors import BoundViolationError, BraidLexError, ConvergenceError

PHI = (1 + math.sqrt(5)) / 2


class SpectralPreconditionError(BraidLexError):
    """A spectral routine was called outside its guaranteed regime."""


def resolvent_nonneg_check(R, lam):
    """Truncated Neumann expansion of (lam I - R)^{-1}:

        lam^{-1} I + lam^{-2} R + lam^{-3} R^2 + ...

    summed until the term sup norm falls below 1e-14.  True iff every entry
    of the sum is nonnegative, and strictly positive when R is primitive.
    Requires lam safely above the spectral radius, taken from the
    eigenvalues of the dense matrix: this is a check for small R.
    """
    dense = to_csr(R).toarray()
    rho = float(np.abs(np.linalg.eigvals(dense)).max(initial=0.0))
    if lam <= rho + 1e-6:
        raise SpectralPreconditionError(
            f"lambda={lam} is not safely above the spectral radius {rho}"
        )
    term = np.eye(R.dim) / lam
    total = term.copy()
    while True:
        term = (term @ dense) / lam
        if float(np.max(np.abs(term))) < 1e-14:
            break
        total += term
    if bool(np.any(total < 0.0)):
        return False
    if am.boolean_primitive(R):
        return bool(np.all(total > 0.0))
    return True


def ref_perron(R, tol=sp.DEFAULT_TOL, max_iter=sp.DEFAULT_MAX_ITER):
    """Power iteration as perron ran it with ``v @ R``: scipy transposes
    the CSR matrix on every step.  Stops on perron's test; no stall rule."""
    mat = to_csr(R)
    v = np.full(R.dim, 1.0 / R.dim)
    lam_prev = 0.0
    for it in range(1, max_iter + 1):
        w = v @ mat
        lam = float(w.sum())
        residual = float(np.max(np.abs(w - lam * v)))
        v = w / lam
        if abs(lam - lam_prev) < tol and residual < tol:
            return sp.SpectralResult(lam, v, it, residual)
        lam_prev = lam
    raise AssertionError(f"no convergence after {max_iter} iterations")


class TestPerron:
    def test_golden_ratio(self, build_cached):
        res = sp.perron(am.recurrent_matrix(build_cached(2)))
        assert abs(res.lam - PHI) < 1e-12
        assert res.residual < sp.DEFAULT_TOL
        assert abs(res.v.sum() - 1.0) < 1e-12
        assert np.all(res.v > 0)

    def test_eigenvector_shape(self, build_cached):
        # in canonical order the eigenvector is proportional to (phi, 1, 1, phi)
        a = build_cached(2)
        res = sp.perron(am.recurrent_matrix(a))
        scaled = res.v / res.v[1]
        assert np.max(np.abs(scaled - np.array([PHI, 1.0, 1.0, PHI]))) < 1e-10

    def test_trivial_matrix(self):
        res = sp.perron(am.SparseBooleanMatrix(1, [(0, 0)]))
        assert res.lam == pytest.approx(1.0, abs=1e-15)
        assert res.v[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_matrix_is_refused(self):
        with pytest.raises(ValueError, match="0x0"):
            sp.perron(am.SparseBooleanMatrix(0, []))

    def test_infinite_tol_is_refused(self):
        # tol = inf would stop after one step: lambda 2.0 at n = 3, not 2.0868
        with pytest.raises(ValueError, match="tol must be finite, got inf"):
            sp.perron(am.SparseBooleanMatrix(1, [(0, 0)]), tol=math.inf)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_iterations_is_refused(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            sp.perron(am.SparseBooleanMatrix(1, [(0, 0)]), max_iter=max_iter)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_iterates_are_bitwise_those_of_v_at_R(self, build_cached, n, monkeypatch):
        # with the extrapolation switched off, every step is bitwise a step
        # of v @ R: the CSR form of R^T adds each column in R's row order
        monkeypatch.setattr(sp, "RRE_EVERY", sp.DEFAULT_MAX_ITER + 1)
        R = am.recurrent_matrix(build_cached(n))
        got, want = sp.perron(R), ref_perron(R)
        assert (got.lam, got.residual, got.iterations) == (
            want.lam, want.residual, want.iterations
        )
        assert np.array_equal(got.v, want.v)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_plain_power_iteration(self, build_cached, n):
        a = build_cached(n)
        R = am.recurrent_matrix(a)
        got, want = sp.perron(R), ref_perron(R)
        assert abs(got.lam - want.lam) < 1e-13
        per_got = sp.proportions(a, got).per_letter
        per_want = sp.proportions(a, want).per_letter
        assert max(abs(x - y) for x, y in zip(per_got, per_want)) < 1e-12
        assert got.residual < sp.DEFAULT_TOL
        # the residual of the returned pair, through a matrix perron never saw
        assert np.max(np.abs(got.v @ to_csr(R) - got.lam * got.v)) < sp.DEFAULT_TOL
        assert np.all(got.v > 0)
        assert abs(got.v.sum() - 1.0) < 1e-15

    def test_extrapolation_cuts_the_steps(self, build_cached):
        # plain power iteration takes 722 steps at n = 10: a silent fall
        # back to it fails here
        assert sp.perron(am.recurrent_matrix(build_cached(10))).iterations < 300

    def test_left_eigen_residual(self, build_cached):
        a = build_cached(4)
        R = am.recurrent_matrix(a)
        res = sp.perron(R)
        m = np.array(dense(R), dtype=float)
        assert np.max(np.abs(res.v @ m - res.lam * res.v)) < 10 * sp.DEFAULT_TOL

    def test_non_convergence_raises(self, build_cached):
        with pytest.raises(ConvergenceError) as exc:
            sp.perron(am.recurrent_matrix(build_cached(3)), max_iter=2)
        assert exc.value.residual is not None
        assert exc.value.history == ((2, pytest.approx(2.1538461538), exc.value.residual),)

    def test_history_records_each_restart_and_the_failing_step(self, build_cached):
        with pytest.raises(ConvergenceError) as exc:
            sp.perron(am.recurrent_matrix(build_cached(3)), max_iter=45)
        steps = [it for it, _, _ in exc.value.history]
        assert steps == [20, 40, 45]
        assert exc.value.history[-1][2] == exc.value.residual
        assert all(0 < r < 1e-5 for _, _, r in exc.value.history)

    def test_unreachable_tol_stops_when_the_residual_stalls(self, build_cached):
        # in double precision the n = 5 residual bottoms out near 1.4e-17 by
        # step 90, so the run ends STALL_STEPS later, not at max_iter
        with pytest.raises(ConvergenceError, match="not improved") as exc:
            sp.perron(am.recurrent_matrix(build_cached(5)), tol=1e-30, max_iter=5000)
        assert 0 < exc.value.residual < 1e-15
        *restarts, (last_it, _, last_res) = exc.value.history
        assert last_res == exc.value.residual and last_it > restarts[-1][0]
        assert [it for it, _, _ in restarts[:3]] == [20, 40, 60]

    def test_singular_gram_matrix_falls_back_to_power_steps(self):
        # [[1, 1], [1, 0]]: after the restart at step 20 the iterates settle
        # into a floating-point 2-cycle, so the differences alternate in
        # sign and every later Gram matrix has rank one (a zero pivot);
        # perron steps on until the stall rule ends it
        fib = am.SparseBooleanMatrix(2, [(0, 0), (0, 1), (1, 0)])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            with pytest.raises(ConvergenceError, match="not improved") as exc:
                sp.perron(fib, tol=1e-30, max_iter=5000)
        assert [it for it, _, _ in exc.value.history] == [20, 22 + sp.STALL_STEPS]
        assert all(math.isfinite(lam) and r >= 0 for _, lam, r in exc.value.history)

    def test_exact_after_one_step_stops_before_any_extrapolation(self):
        # the all-ones matrix maps the uniform vector to a multiple of
        # itself in exact arithmetic and in floating point: the stop test
        # fires at step 2 with residual 0, even at tol = 1e-30
        ones = am.SparseBooleanMatrix(3, [(p, q) for p in range(3) for q in range(3)])
        res = sp.perron(ones, tol=1e-30, max_iter=5000)
        assert (res.lam, res.iterations, res.residual) == (3.0, 2, 0.0)

    @settings(deadline=None, max_examples=15)
    @given(data=st.data())
    def test_eigenvalue_invariant_under_reordering(self, build_cached, data):
        a = build_cached(4)
        order = data.draw(st.permutations(range(1, len(a))))
        lam = sp.perron(am.recurrent_matrix(relabel(a, [0, *order]))).lam
        base = sp.perron(am.recurrent_matrix(a)).lam
        assert abs(lam - base) < 1e-12


class TestProportions:
    def test_n2_half(self, build_cached):
        a = build_cached(2)
        rep = sp.proportions(a, sp.perron(am.recurrent_matrix(a)))
        assert rep.per_letter == pytest.approx((0.5, 0.5), abs=1e-12)
        # exact value is 1/(2 phi)
        assert abs(rep.p_state_t11 - 1 / (2 * PHI)) < 1e-12

    def test_t11_missing_from_the_index_is_reported(self, build_cached):
        a = build_cached(3)
        res = sp.perron(am.recurrent_matrix(a))
        with pytest.raises(ValueError, match=r"\(1,1,1,\{\}\)"):
            # t11's key gains a segment that no state has
            keys = a.keys.copy()
            keys[keys == cf.pack(SegmentConfig(1, 1, 1))] |= np.uint64(1 << 60)
            sp.proportions(dataclasses.replace(a, keys=keys), res)

    def test_per_letter_sums_equal_the_row_loop(self, build_cached):
        # the per-letter sums of the stationary vector, added in row order
        for n in range(2, 8):
            a = build_cached(n)
            res = sp.perron(am.recurrent_matrix(a))
            configs = states_of(a)
            per = [0.0] * n
            for row, s in enumerate(am.recurrent_states(a)):
                per[configs[s].j - 1] += float(res.v[row])
            assert sp.proportions(a, res).per_letter == tuple(per)

    def test_n9_letter_one(self, build_cached):
        an = sp.analyze(build_cached(9))
        assert abs(an.report.per_letter[0] - 0.2594634699) < 1e-9

    def test_sums_to_one_and_product_identity(self, build_cached):
        for n in (2, 3, 4, 5):
            an = sp.analyze(build_cached(n))
            assert abs(sum(an.report.per_letter) - 1.0) < 1e-10
            assert abs(an.row.p_1 - an.row.lam * an.row.p_a1) < 1e-10

    def test_letter_count_convergence(self, build_cached):
        # exact finite-length fractions approach the spectral proportion;
        # n = 4 mixes at rate lambda_3/lambda_4 ~ 0.87, so it needs k = 120
        # to get below 1e-6 (at k = 60 the gap is still 8.7e-6)
        def gap(a, k, p1):
            per = am.ending_letter_counts(a, k, am.count_words(a, k)[0])
            return abs(per[1] / sum(per.values()) - p1)

        for n, k in ((1, 60), (2, 60), (3, 60), (4, 120)):
            a = build_cached(n)
            assert gap(a, k, sp.analyze(a).row.p_1) < 1e-6
        a4 = build_cached(4)
        p1 = sp.analyze(a4).row.p_1
        gaps = [gap(a4, k, p1) for k in (40, 60, 80, 100, 120)]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))


class TestPrimitivity:
    def test_recurrent_matrices_are_primitive(self, build_cached):
        # the Perron vector is unique and positive only for a primitive R
        for n in range(1, 10):
            assert am.boolean_primitive(am.recurrent_matrix(build_cached(n)))


class TestResolvent:
    def test_r2_at_two(self, build_cached):
        assert resolvent_nonneg_check(am.recurrent_matrix(build_cached(2)), 2.0)

    def test_zero_matrix(self):
        assert resolvent_nonneg_check(am.SparseBooleanMatrix(1, []), 1.0)

    def test_r3_just_above_growth_rate(self, build_cached):
        a = build_cached(3)
        lam = sp.perron(am.recurrent_matrix(a)).lam
        assert resolvent_nonneg_check(am.recurrent_matrix(a), lam + 0.1)

    def test_precondition(self, build_cached):
        with pytest.raises(SpectralPreconditionError):
            resolvent_nonneg_check(am.recurrent_matrix(build_cached(2)), 1.0)

    def test_precondition_just_above_growth_rate(self, build_cached):
        # within 1e-6 of the spectral radius is refused, not expanded
        R = am.recurrent_matrix(build_cached(3))
        with pytest.raises(SpectralPreconditionError):
            resolvent_nonneg_check(R, sp.perron(R).lam + 1e-7)


class TestBoundReport:
    def test_accepts_good_rows(self, build_cached):
        rows = [sp.analyze(build_cached(n)).row for n in (2, 3, 4)]
        sp.bound_report(rows)  # raises BoundViolationError on a failing bound

    def test_rejects_small_p1(self):
        rows = [sp.GrowthRow(2, 1.618033988749895, 0.3090169943749474, 0.5),
                sp.GrowthRow(3, 2.086791222781383, 0.05, 0.1)]
        with pytest.raises(BoundViolationError) as exc:
            sp.bound_report(rows)
        assert exc.value.bound == "P_1 > 1/8"
        assert exc.value.n == 3

    def test_rejects_nonincreasing_lambda(self):
        rows = [sp.GrowthRow(2, 2.2, 0.31, 0.682), sp.GrowthRow(3, 2.1, 0.2, 0.42)]
        with pytest.raises(BoundViolationError) as exc:
            sp.bound_report(rows)
        assert exc.value.bound == "lambda strictly increasing"

    def test_rejects_broken_product(self):
        rows = [sp.GrowthRow(2, 1.618033988749895, 0.3090169943749474, 0.51)]
        with pytest.raises(BoundViolationError) as exc:
            sp.bound_report(rows)
        assert exc.value.bound == "P_1 = lambda * P_a1"

    def test_rejects_rate_over_ceiling(self):
        rows = [sp.GrowthRow(2, 3.3, 0.14, 0.462)]
        with pytest.raises(BoundViolationError) as exc:
            sp.bound_report(rows)
        assert "lambda <" in exc.value.bound


class TestCrossConstruction:
    def test_bfs_and_generated_eigenvalues_agree(self, build_cached):
        for n in (2, 4, 6):
            bfs = sp.perron(am.recurrent_matrix(build_cached(n))).lam
            gen = sp.perron(mg.build_R_direct(n)).lam
            assert abs(bfs - gen) < 1e-10

    # lambda as `table --from 2 --to 12` printed it while build numbered its
    # states in BFS queue order: Perron then summed in that order
    QUEUE_ORDER_LAMBDA = {
        2: 1.61803398874989490, 3: 2.08679122278137275, 4: 2.39485036123381834,
        5: 2.59937733237127810, 6: 2.73962959897194169, 7: 2.83910705543065678,
        8: 2.91185367833771247, 9: 2.96648976449780966, 10: 3.00848064448115959,
        11: 3.04140287720029656, 12: 3.06766619187890566,
    }

    @pytest.mark.parametrize("n", sorted(QUEUE_ORDER_LAMBDA))
    def test_lambda_inside_the_collatz_wielandt_bracket(self, build_cached, n):
        # min (vR)_i / v_i <= lambda_n <= max (vR)_i / v_i for the positive
        # left vector v that perron returns on the canonical R; both the
        # lambda summed in canonical order and the queue-order one lie in
        # it, widened by 4 ulp for the rounding of the ratios
        r = am.recurrent_matrix(build_cached(n))
        res = sp.perron(r)
        ratios = (to_csr(r).T @ res.v) / res.v
        lo, hi = ratios.min(), ratios.max()
        lo, hi = lo - 4 * np.spacing(lo), hi + 4 * np.spacing(hi)
        assert lo <= res.lam <= hi
        assert lo <= self.QUEUE_ORDER_LAMBDA[n] <= hi

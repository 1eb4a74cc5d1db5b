"""LP solver checks against scipy.optimize.linprog as an independent oracle."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import linprog

from truthfit import simplex
from truthfit.simplex import solve_lp


def scipy_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    n = len(c)
    if bounds is None:
        bounds = [(None, None)] * n
    return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                   bounds=bounds, method="highs")


def test_basic_inequality_problem():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
    res = solve_lp([-1.0, -1.0], a_ub=[[1, 2], [3, 1]], b_ub=[4, 6],
                   bounds=[(0, None), (0, None)])
    assert res.ok
    assert res.objective == pytest.approx(-(8 / 5 + 6 / 5))


def test_equality_and_free_variables():
    # min |structure|: free x with x + y = 3, y <= 1
    res = solve_lp([1.0, 0.0], a_ub=[[0, 1]], b_ub=[1], a_eq=[[1, 1]], b_eq=[3])
    assert res.ok
    assert res.objective == pytest.approx(2.0)
    assert res.x[1] == pytest.approx(1.0)


def test_infeasible_detected():
    res = solve_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0])
    assert res.status == simplex.INFEASIBLE


def test_unbounded_detected():
    res = solve_lp([-1.0], a_ub=[[-1.0]], b_ub=[0.0], bounds=[(0, None)])
    assert res.status == simplex.UNBOUNDED


def test_two_sided_bounds():
    res = solve_lp([-1.0, 1.0], bounds=[(-2, 5), (1, 4)])
    assert res.ok
    assert res.x[0] == pytest.approx(5.0)
    assert res.x[1] == pytest.approx(1.0)
    # bounds stay on the columns: no rows, so nothing is basic, and each
    # column starts at the bound its cost prefers
    npt.assert_array_equal(res.basis, [simplex.AT_UPPER, simplex.AT_LOWER])
    assert res.pivots == 0


def test_two_sided_bounds_add_no_rows():
    # one inequality row plus boxed columns: one slack column, one basic
    # column, and the box alone decides the rest
    res = solve_lp([-1.0, -2.0, -0.5], a_ub=[[1.0, 1.0, 1.0]], b_ub=[4.0],
                   bounds=[(0, 3), (-1, 2), (-5, 5)])
    assert res.ok
    assert res.basis.shape == (4,)
    assert np.count_nonzero(res.basis == simplex.BASIC) == 1
    npt.assert_allclose(res.x, [3.0, 2.0, -1.0], atol=1e-12)
    assert res.objective == pytest.approx(-6.5)


def test_basis_round_trip():
    a_ub = [[1.0, 2.0, -1.0], [3.0, 1.0, 2.0], [-1.0, 1.0, 1.0]]
    b_ub = [4.0, 6.0, 2.0]
    bounds = [(0, 2), (-1, None), (None, 3)]
    first = solve_lp([-1.0, -1.0, -0.5], a_ub=a_ub, b_ub=b_ub, bounds=bounds)
    assert first.ok
    again = solve_lp([-1.0, -1.0, -0.5], a_ub=a_ub, b_ub=b_ub, bounds=bounds,
                     basis=first.basis)
    assert again.pivots == 0
    npt.assert_allclose(again.x, first.x, rtol=0, atol=1e-12)
    npt.assert_array_equal(again.basis, first.basis)
    # a new cost starts phase 2 from the old basis and matches a cold solve
    c2 = [0.5, -2.0, 1.0]
    warm = solve_lp(c2, a_ub=a_ub, b_ub=b_ub, bounds=bounds, basis=first.basis)
    cold = solve_lp(c2, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
    assert warm.ok and cold.ok
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    assert warm.pivots < cold.pivots


def test_unusable_basis_falls_back_to_a_cold_start():
    a_ub, b_ub = [[1.0, 1.0]], [1.0]
    cold = solve_lp([-1.0, -2.0], a_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * 2)
    for basis in ([simplex.BASIC] * 3, [simplex.BASIC] * 2 + [simplex.AT_LOWER],
                  [simplex.AT_LOWER] * 3):
        res = solve_lp([-1.0, -2.0], a_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * 2,
                       basis=np.array(basis))
        assert res.ok
        assert res.objective == pytest.approx(cold.objective)


def test_statuses_survive_a_warm_start():
    a_ub, b_ub = [[-1.0, 1.0]], [1.0]
    bounds = [(0, None), (0, None)]
    first = solve_lp([1.0, 1.0], a_ub=a_ub, b_ub=b_ub, bounds=bounds)
    assert first.ok
    res = solve_lp([-1.0, 0.0], a_ub=a_ub, b_ub=b_ub, bounds=bounds, basis=first.basis)
    assert res.status == simplex.UNBOUNDED
    # infeasible constraints refuse any basis offered for them
    res = solve_lp([1.0, 1.0], a_ub=[[1.0, 1.0], [-1.0, -1.0]], b_ub=[1.0, -3.0],
                   bounds=bounds, basis=np.array([simplex.BASIC, simplex.BASIC,
                                                  simplex.AT_LOWER, simplex.AT_LOWER]))
    assert res.status == simplex.INFEASIBLE
    assert solve_lp([0.0], bounds=[(1.0, 0.0)]).status == simplex.INFEASIBLE


def test_degenerate_problem_terminates():
    # Classic cycling-prone instance (Beale); Bland's rule must terminate.
    c = [-0.75, 150, -0.02, 6]
    a_ub = [[0.25, -60, -0.04, 9], [0.5, -90, -0.02, 3], [0, 0, 1, 0]]
    b_ub = [0, 0, 1]
    res = solve_lp(c, a_ub=a_ub, b_ub=b_ub,
                   bounds=[(0, None)] * 4)
    assert res.ok
    assert res.objective == pytest.approx(-0.05)


@pytest.mark.parametrize("trial", range(60))
def test_random_problems_match_scipy(trial):
    rng = np.random.default_rng(1000 + trial)
    n = rng.integers(2, 7)
    m_ub = rng.integers(0, 5)
    m_eq = rng.integers(0, min(n, 3))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m_ub, n)) if m_ub else None
    b_ub = rng.normal(size=m_ub) + 1.0 if m_ub else None
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = rng.normal(size=m_eq) if m_eq else None
    bounds = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            bounds.append((None, None))
        elif kind == 1:
            bounds.append((float(rng.normal()) - 3.0, None))
        elif kind == 2:
            bounds.append((None, float(rng.normal()) + 3.0))
        else:
            lo = float(rng.normal()) - 3.0
            bounds.append((lo, lo + float(rng.uniform(0.5, 4.0))))

    ours = solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)
    ref = scipy_solve(c, a_ub, b_ub, a_eq, b_eq, bounds)
    _check_against_scipy(ours, ref, a_ub, b_ub, a_eq, b_eq, bounds)
    if ours.ok:
        # a new cost on the same constraints, warm-started from this basis
        c2 = rng.normal(size=n)
        warm = solve_lp(c2, a_ub, b_ub, a_eq, b_eq, bounds, basis=ours.basis)
        ref2 = scipy_solve(c2, a_ub, b_ub, a_eq, b_eq, bounds)
        _check_against_scipy(warm, ref2, a_ub, b_ub, a_eq, b_eq, bounds)


def _check_against_scipy(ours, ref, a_ub, b_ub, a_eq, b_eq, bounds):
    if ref.status == 2:
        assert ours.status == simplex.INFEASIBLE
    elif ref.status == 3:
        assert ours.status == simplex.UNBOUNDED
    else:
        assert ours.ok
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
        # solution feasibility in the original space
        if a_ub is not None:
            assert np.all(np.asarray(a_ub) @ ours.x <= np.asarray(b_ub) + 1e-7)
        if a_eq is not None:
            assert np.allclose(np.asarray(a_eq) @ ours.x, b_eq, atol=1e-7)
        lo = np.array([-np.inf if b[0] is None else b[0] for b in bounds])
        hi = np.array([np.inf if b[1] is None else b[1] for b in bounds])
        assert np.all(ours.x >= lo - 1e-9) and np.all(ours.x <= hi + 1e-9)

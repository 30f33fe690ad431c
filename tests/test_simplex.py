"""driftlab's Nelder-Mead against scipy's, bit for bit.

``likelihood.nelder_mead`` ports scipy 1.17's ``minimize(method="Nelder-Mead")``
step for step, so on any objective both visit the same points and return the
same x, f, iteration count and success flag.  The problems below reach every
branch of the method: quadratics (expansion, contraction), floor-quantised
plateaus (tied vertex values, the order np.argsort gives them, shrinks), an
infeasible half-space that returns inf, and zero start coordinates (the 0.00025
step).
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from driftlab.likelihood import nelder_mead

COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0))
TOL = st.floats(-8.0, -2.0).map(lambda e: 10.0 ** e)


@st.composite
def problems(draw):
    k = draw(st.sampled_from([3, 2, 1]))
    center = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k)))
    weight = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k)))
    x0 = np.array(draw(st.lists(COORD, min_size=k, max_size=k)))
    kind = draw(st.sampled_from(["half_space", "plateau", "quadratic"]))
    step = draw(st.floats(1e-3, 10.0))

    def fun(z):
        value = float(np.sum(weight * (z - center) ** 2))
        if kind == "plateau":
            return float(np.floor(value / step))
        if kind == "half_space" and z[0] > x0[0] + step:  # a feasible start, as mle_fit's
            return np.inf
        return value
    return fun, x0


@settings(max_examples=100, derandomize=True)
@given(problem=problems(), xatol=TOL, fatol=TOL, maxiter=st.sampled_from([2000, 400, 20, 3]))
def test_nelder_mead_equals_scipy_bit_for_bit(problem, xatol, fatol, maxiter):
    fun, x0 = problem
    with np.errstate(invalid="ignore"):  # scipy's convergence test subtracts inf - inf
        want = minimize(fun, x0, method="Nelder-Mead",
                        options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter})
    x, f, nit, ok = nelder_mead(fun, x0, maxiter, xatol, fatol)
    assert x.tobytes() == want.x.tobytes()
    assert np.float64(f).tobytes() == np.float64(want.fun).tobytes()
    assert (nit, ok) == (want.nit, bool(want.success))


def test_nelder_mead_hands_fun_a_fresh_array_each_call():
    seen = []
    nelder_mead(lambda z: seen.append(z) or float(z @ z), np.array([1.0, -2.0]), 50,
                1e-8, 1e-8)
    assert len({id(z) for z in seen}) == len(seen)
    assert all(z.dtype == np.float64 and z.shape == (2,) for z in seen)

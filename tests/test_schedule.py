"""Replays of the residual-check schedule, ``krymat.solvers._schedule``, over
every-step relative-residual curves of small solves.  The planner steps no
basis, so each replay sends it numbers read off a curve and costs
microseconds; the curves come from one basis per solve, checked on each
prefix of its band."""

import warnings

import numpy as np
import pytest

from krymat import SparseOperator, ctri_lyapunov, gen_fd2d, gen_rhs, init_basis, lanczos_step
from krymat.solvers import _schedule

#: Tolerances about half a decade apart around the benchmark's 1e-6, so
#: that the backward search meets many arrangements of the curves' steps.
TOLS = [1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7, 3e-8, 1e-8]

#: (grid, s, seed, steps): the benchmark's lyap-monitor solves (fd2d-exp,
#: order 576, s = 2, windowed), which meet 1e-6 at m = 53-58, and an s = 1
#: windowed solve, which meets it at m = 66, each stepped until it meets
#: 1e-8
CURVES = [(24, 2, 3000, 70), (24, 2, 3004, 70), (24, 2, 3008, 70), (24, 1, 3000, 150)]


@pytest.fixture(scope="module", params=CURVES,
                ids=["fd2d-exp(%d) s=%d seed %d" % c[:3] for c in CURVES])
def curve(request):
    """The relative residual at every step 1..steps, entry m - 1 for step m,
    each from the leading m blocks of one windowed basis's band.  A curve
    that rises above a tolerance again after meeting it breaks the
    assumption the schedule's backward search rests on, and is reported,
    not dropped."""
    n, s, seed, steps = request.param
    op = SparseOperator(gen_fd2d("fd2d-exp", n))
    c = gen_rhs(n * n, s, seed)
    beta2 = float(np.linalg.norm(c) ** 2)
    basis = init_basis(op, c, storage="windowed")
    for _ in range(steps):
        lanczos_step(op, basis)
    values = [ctri_lyapunov(basis.projected_matrix(m), basis.gamma,
                            basis.coupling_upper(m), rhs_norm=beta2).relative
              for m in range(1, steps + 1)]
    dips = {}
    for tol in TOLS:
        first = next(m for m, r in enumerate(values, 1) if r <= tol)
        dips[tol] = [m for m, r in enumerate(values, 1) if m > first and r > tol]
        if dips[tol]:
            warnings.warn("%s meets %g at m = %d but misses it again at m = %s"
                          % (request.node.name, tol, first, dips[tol]))
    return values, dips


def _replay(values, d, max_m, tol):
    """The steps that ``_schedule`` asks to check, in order, sent values[m - 1]
    for step m, and the step past ``max_m`` that it asks for last, which no
    solve reaches, or None where it ends."""
    plan, asked = _schedule(d, max_m, tol), []
    m = next(plan)
    while m <= max_m:
        asked.append(m)
        try:
            m = plan.send((m, values[m - 1]))
        except StopIteration:
            return asked, None
    return asked, m


@pytest.mark.parametrize("d", [1, 3, 10, 20])
def test_replay_stops_where_checking_every_multiple_of_d_stops(curve, d):
    values, dips = curve
    max_m = len(values)
    for tol in TOLS:
        asked, past = _replay(values, d, max_m, tol)
        assert len(asked) == len(set(asked)), tol
        assert all(m % d == 0 for m in asked if m < max_m), tol
        first = next((m for m in range(d, max_m + 1, d) if values[m - 1] <= tol), None)
        if first is None:  # no multiple of d within the curve meets tol
            assert (asked[-1], past) == (max_m // d * d, max_m + 1), tol
            continue
        assert past is None, tol
        stop = min(m for m in asked if values[m - 1] <= tol)
        assert stop % d == 0 and stop >= first, tol
        if not dips[tol]:
            assert stop == first, tol


@pytest.mark.parametrize("d", [1, 3, 10, 20])
def test_replay_that_never_meets_tol_ends_at_the_last_multiple_of_d(curve, d):
    values, _ = curve
    for tol in TOLS:
        max_m = next(m for m, r in enumerate(values, 1) if r <= tol) - 1
        asked, past = _replay(values, d, max_m, tol)
        assert asked[-1] == max_m // d * d, tol
        # then it steps on only to see whether the space becomes invariant
        assert past == max_m + 1, tol
        assert len(asked) == len(set(asked)), tol
        assert all(m % d == 0 for m in asked), tol

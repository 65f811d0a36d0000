import numpy as np

from krymat import naive_residual, solve_reduced_lyapunov

from conftest import block_tridiagonal, random_block_tridiagonal


def _scalar_bt(value):
    return block_tridiagonal([np.array([[value]])], [])


class TestSolveReducedLyapunov:
    def test_scalar(self):
        y = solve_reduced_lyapunov(_scalar_bt(-1.0), np.array([[1.0]]))
        assert np.allclose(y, [[0.5]])

    def test_diagonal_two(self):
        t = block_tridiagonal(
            [np.array([[-1.0]]), np.array([[-2.0]])], [np.array([[0.0]])]
        )
        y = solve_reduced_lyapunov(t, np.array([[1.0]]))
        assert np.allclose(y, np.diag([0.5, 0.0]), atol=1e-14)

    def test_plug_back_random(self):
        rng = np.random.default_rng(13)
        t = random_block_tridiagonal(rng, 2, 8)
        gamma = rng.standard_normal((2, 2))
        y = solve_reduced_lyapunov(t, gamma)
        td = t.to_dense()
        rhs = np.zeros_like(td)
        rhs[:2, :2] = gamma @ gamma.T
        res = td @ y + y @ td + rhs
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)
        # symmetric positive semidefinite, as the projection theory requires
        assert np.linalg.norm(y - y.T) <= 1e-12 * np.linalg.norm(y)
        assert np.linalg.eigvalsh(y).min() >= -1e-10 * np.linalg.norm(y)


class TestNaiveResiduals:
    def test_scalar_lyapunov(self):
        y = solve_reduced_lyapunov(_scalar_bt(-1.0), np.array([[1.0]]))
        for t in (0.3, 1.7):
            assert np.isclose(
                naive_residual(y, np.array([[t]])), np.sqrt(2.0) * t / 2.0
            )

    def test_zero_coupling(self):
        y = solve_reduced_lyapunov(_scalar_bt(-1.0), np.array([[1.0]]))
        assert naive_residual(y, np.zeros((1, 1))) == 0.0

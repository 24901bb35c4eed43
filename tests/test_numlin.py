import warnings

import numpy as np
import pytest

from dphotelling import numlin
from dphotelling.errors import ConvergenceError
from dphotelling.randkit import RngStream, sample_bingham_vector
from oracles import inverse_sqrt_psd_reference, psd_sqrt_reference


class TestJacobiEigen:
    """Contract of ``numlin.symmetric_eigen``: order and reconstruction.

    The class name predates the LAPACK-backed solver and is kept so that
    these test IDs stay comparable across solver changes; newer cases are
    in TestSymmetricEigen. The solver takes a matrix that
    ``numlin.as_symmetric`` admitted, so the two rejection cases test that
    check.
    """

    def test_identity(self):
        w, v = numlin.symmetric_eigen(np.eye(3))
        assert np.array_equal(w, np.ones(3))
        assert np.array_equal(v, np.eye(3))

    def test_already_diagonal(self):
        w, v = numlin.symmetric_eigen(np.diag([3.0, 1.0]))
        assert np.array_equal(w, [3.0, 1.0])
        assert np.array_equal(v, np.eye(2))

    def test_two_by_two_hand_case(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0
        w, v = numlin.symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert w == pytest.approx([3.0, 1.0], abs=1e-12)
        # Eigenvectors are fixed up to a sign, which v v^T drops.
        assert np.outer(v[:, 0], v[:, 0]) == pytest.approx(
            np.array([[0.5, 0.5], [0.5, 0.5]]), abs=1e-12)
        assert np.outer(v[:, 1], v[:, 1]) == pytest.approx(
            np.array([[0.5, -0.5], [-0.5, 0.5]]), abs=1e-12)

    def test_fuzzed_reconstruction_and_orthogonality(self):
        gen = np.random.default_rng(1234)
        for _ in range(1000):
            d = int(gen.integers(1, 41))
            a = gen.uniform(-1.0, 1.0, (d, d))
            a = 0.5 * (a + a.T)
            w, v = numlin.symmetric_eigen(a)
            recon = (v * w) @ v.T
            assert np.linalg.norm(recon - a) <= 1e-8
            gram = v.T @ v
            assert np.linalg.norm(gram - np.eye(d)) <= 1e-10 * d
            assert np.all(np.diff(w) <= 1e-14)

    def test_trace_equals_eigenvalue_sum(self):
        gen = np.random.default_rng(99)
        for _ in range(50):
            d = int(gen.integers(2, 9))
            a = gen.uniform(-5.0, 5.0, (d, d))
            a = 0.5 * (a + a.T)
            w, _ = numlin.symmetric_eigen(a)
            tol = 1e-10 * d * max(1.0, np.max(np.abs(w)))
            assert abs(np.trace(a) - np.sum(w)) <= tol

    def test_deterministic(self):
        gen = np.random.default_rng(5)
        a = gen.uniform(-1.0, 1.0, (6, 6))
        a = 0.5 * (a + a.T)
        w1, v1 = numlin.symmetric_eigen(a)
        w2, v2 = numlin.symmetric_eigen(a)
        assert w1.tobytes() == w2.tobytes()
        assert v1.tobytes() == v2.tobytes()

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            numlin.as_symmetric([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            numlin.as_symmetric(np.ones((2, 3)))


class TestSymmetricEigen:
    def test_returns_a_plain_pair(self):
        for a in (np.eye(3), np.array([[4.0]])):
            spectrum = numlin.symmetric_eigen(a)
            assert type(spectrum) is tuple and len(spectrum) == 2

    def test_ties_keep_index_order(self):
        w, v = numlin.symmetric_eigen(np.diag([1.0, 3.0, 1.0, 3.0]))
        assert np.array_equal(w, [3.0, 3.0, 1.0, 1.0])
        assert np.array_equal(v, np.eye(4)[:, [1, 3, 0, 2]])

    def test_repeated_eigenvalue_reconstruction(self):
        gen = np.random.default_rng(21)
        q, _ = np.linalg.qr(gen.standard_normal((6, 6)))
        a = (q * [2.0, 2.0, 2.0, -1.0, 0.5, 0.5]) @ q.T
        a = 0.5 * (a + a.T)
        w, v = numlin.symmetric_eigen(a)
        recon = (v * w) @ v.T
        assert np.linalg.norm(recon - a) <= 1e-10
        assert w == pytest.approx(
            [2.0, 2.0, 2.0, 0.5, 0.5, -1.0], abs=1e-12)

    def test_one_by_one(self):
        w, v = numlin.symmetric_eigen(np.array([[-2.5]]))
        assert np.array_equal(w, [-2.5])
        assert np.array_equal(v, [[1.0]])

    def test_large_norm(self):
        gen = np.random.default_rng(13)
        a = gen.uniform(-1.0, 1.0, (12, 12))
        a = 1e8 * 0.5 * (a + a.T)
        w, v = numlin.symmetric_eigen(a)
        recon = (v * w) @ v.T
        assert np.linalg.norm(recon - a) <= 1e-12 * np.linalg.norm(a)
        gram = v.T @ v
        assert np.linalg.norm(gram - np.eye(12)) <= 1e-12

    def test_one_by_one_eigenvector_shared_and_read_only(self, call_count):
        eighs = call_count(np.linalg, "eigh")
        _, v = numlin.symmetric_eigen(np.array([[4.0]]))
        assert numlin.symmetric_eigen(np.array([[-1.0]]))[1] is v
        assert not v.flags.writeable
        assert eighs == []

    @pytest.mark.parametrize("a", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[np.nan, 1.0], [1.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[np.nan]],
    ], ids=["nan-eigenvalue", "nan-eigenvectors", "inf", "nan-1x1"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_input_raises_convergence_error(self, a):
        with pytest.raises(ConvergenceError, match="non-finite"):
            numlin.symmetric_eigen(np.array(a))

    @pytest.mark.filterwarnings("error")
    def test_infinite_entry_passes_symmetry_check_silently(self):
        a = numlin.as_symmetric([[np.inf, 0.0], [0.0, 1.0]])
        assert a[0, 0] == np.inf
        with pytest.raises(ConvergenceError, match="non-finite"):
            numlin.symmetric_eigen(a)

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            numlin.symmetric_eigen(np.eye(2))


class TestSignInvariance:
    """No consumer of an eigendecomposition sees an eigenvector's sign.

    Each forms V f(diag) V^T or squares the coordinates u V, and negating a
    column negates both factors of every product it enters, exactly.
    """

    FLIP = np.array([-1.0, 1.0, -1.0, -1.0, 1.0])

    @staticmethod
    def _matrix():
        gen = np.random.default_rng(8)
        a = gen.uniform(-1.0, 1.0, (5, 5))
        return a @ a.T + 0.1 * np.eye(5)

    def _flipped(self, spectrum):
        w, v = spectrum
        return w, v * self.FLIP

    @pytest.mark.parametrize("kernel", [
        numlin.inverse_sqrt_psd, numlin.psd_sqrt,
    ], ids=["inverse_sqrt_psd", "psd_sqrt"])
    def test_square_roots(self, monkeypatch, kernel):
        a = self._matrix()
        before = kernel(a).tobytes()
        eigen = numlin.symmetric_eigen

        def flipped(m):
            return self._flipped(eigen(m))

        monkeypatch.setattr(numlin, "symmetric_eigen", flipped)
        after = kernel(a)
        assert flipped(a)[1].tobytes() != eigen(a)[1].tobytes()
        assert after.tobytes() == before

    def test_sphere_sampler(self):
        spectrum = numlin.symmetric_eigen(self._matrix())
        flipped = self._flipped(spectrum)
        for seed in range(5):
            u = sample_bingham_vector(RngStream(seed), spectrum, 3.0)
            v = sample_bingham_vector(RngStream(seed), flipped, 3.0)
            assert v.tobytes() == u.tobytes()


class TestInverseSqrtPsd:
    def test_identity(self):
        out = numlin.inverse_sqrt_psd(np.eye(4))
        assert out == pytest.approx(np.eye(4), abs=1e-12)

    def test_diagonal_powers(self):
        out = numlin.inverse_sqrt_psd(np.diag([4.0, 9.0]))
        assert out == pytest.approx(np.diag([0.5, 1.0 / 3.0]), abs=1e-12)

    def test_recomposition_oracle(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = numlin.inverse_sqrt_psd(a)
        assert np.linalg.norm(b @ a @ b - np.eye(2)) <= 1e-8

    def test_random_pd_recomposition(self):
        gen = np.random.default_rng(77)
        for _ in range(200):
            d = int(gen.integers(1, 7))
            q, _ = np.linalg.qr(gen.standard_normal((d, d)))
            w = gen.uniform(0.1, 10.0, d)
            a = (q * w) @ q.T
            a = 0.5 * (a + a.T)
            b = numlin.inverse_sqrt_psd(a)
            assert np.linalg.norm(b @ a @ b - np.eye(d)) <= 1e-8

    def test_positive_floor_clamps(self):
        # A zero eigenvalue reads as the floor, 1e-12: its inverse root is 1e6.
        out = numlin.inverse_sqrt_psd(np.diag([1.0, 0.0]))
        assert numlin.INVERSE_ROOT_FLOOR == 1e-12
        assert out == pytest.approx(np.diag([1.0, 1e6]), abs=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            numlin.inverse_sqrt_psd(np.diag([1.0, -0.5]))


class TestCheckPsd:
    """The one PSD tolerance, -1e-10 max(1, ||a||_F), and its message."""

    @pytest.mark.parametrize("a, tol", [
        (np.diag([3.0, 4.0]), 5e-10),  # ||a||_F = 5
        (np.diag([1e-3, 0.0]), 1e-10),  # norm below 1
    ])
    def test_tolerance(self, a, tol):
        numlin.check_psd(a, -0.99 * tol, "fault")
        with pytest.raises(ValueError) as caught:
            numlin.check_psd(a, -1.01 * tol, "fault")
        assert str(caught.value) == f"fault: min eigenvalue {-1.01 * tol:.3e}"


class TestPsdSqrt:
    def test_squares_back(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = numlin.psd_sqrt(a)
        assert r @ r == pytest.approx(a, abs=1e-10)

    def test_clamps_tiny_negative(self):
        r = numlin.psd_sqrt(np.diag([1.0, -1e-14]))
        assert r[1, 1] == 0.0


def _outcome(kernel, a):
    """Bytes of kernel(a), or its exception's type and message, and the
    warnings it gave."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = kernel(np.array(a, dtype=float))
            result = (out.shape, out.tobytes())
        except (ValueError, ConvergenceError) as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in seen]


# Edge values of a 1x1 input: zero of both signs, below the floor, the
# smallest subnormal, round-off negatives within the PSD tolerance, values
# whose square overflows the norm (the -1e200 passes the check because of
# it), and inputs that fail.
EDGES_1X1 = [0.0, -0.0, 1e-13, 5e-324, 1e-12, 2.5, -1e-11, -1e-300, 1e200,
             -1e200, -0.5, -2e-10, np.nan, np.inf, -np.inf]
EDGES_2X2 = [np.diag([1.0, 0.0]), np.diag([0.0, -0.0]),
             np.diag([2.0, 1e-13]), np.diag([1.0, -1e-11]),
             np.array([[1.0, 1.0], [1.0, 1.0]]),
             np.array([[2.0, 0.5], [0.5, 1e-14]]),
             np.diag([1e200, 1.0]), np.diag([1.0, -0.5]),
             np.array([[np.nan, 0.0], [0.0, 1.0]])]


class TestRootsMatchTheGeneralFormula:
    """A 1x1 root is [[f(w)]], with the checks and bytes of V f(w) V^T."""

    @pytest.mark.parametrize("kernel, reference", [
        (numlin.inverse_sqrt_psd, inverse_sqrt_psd_reference),
        (numlin.psd_sqrt, psd_sqrt_reference),
    ], ids=["inverse_sqrt_psd", "psd_sqrt"])
    @pytest.mark.parametrize("a", [[[w]] for w in EDGES_1X1] + EDGES_2X2,
                             ids=[f"1x1:{w!r}" for w in EDGES_1X1]
                             + [f"2x2:{i}" for i in range(len(EDGES_2X2))])
    def test_bytes_exceptions_and_warnings(self, kernel, reference, a):
        assert _outcome(kernel, a) == _outcome(reference, a)

    def test_one_by_one_skips_lapack(self, call_count):
        eighs = call_count(np.linalg, "eigh")
        numlin.inverse_sqrt_psd(np.array([[3.0]]))
        numlin.psd_sqrt(np.array([[3.0]]))
        assert eighs == []

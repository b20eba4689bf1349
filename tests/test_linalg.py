"""Tests for the contract of the orthonormal extension."""

import numpy as np

from cstar_entropy._linalg import complex_gaussian, orthonormal_extend, rng_stream


def _orthonormal_rows(rng, k, n):
    q, _ = np.linalg.qr(complex_gaussian((n, k), rng))
    return q.T.copy()


class TestOrthonormalExtend:
    def test_input_rows_come_first_unchanged(self):
        rng = rng_stream(41)
        basis = _orthonormal_rows(rng, 3, 10)
        out = orthonormal_extend(basis, complex_gaussian((4, 10), rng), 1e-9)
        assert out.shape == (7, 10)
        assert np.array_equal(out[:3], basis)

    def test_output_rows_are_orthonormal(self):
        rng = rng_stream(42)
        basis = _orthonormal_rows(rng, 2, 12)
        # more candidates than free directions, with a dependent pair among them
        cand = complex_gaussian((8, 12), rng)
        cand[5] = 2.0 * cand[1] - 1j * cand[2]
        out = orthonormal_extend(basis, cand, 1e-9)
        assert out.shape == (9, 12)
        assert np.allclose(out @ out.conj().T, np.eye(9), atol=1e-12)

    def test_candidates_in_the_span_add_nothing(self):
        rng = rng_stream(43)
        basis = _orthonormal_rows(rng, 4, 9)
        cand = complex_gaussian((6, 4), rng) @ basis
        out = orthonormal_extend(basis, cand, 1e-9)
        assert np.array_equal(out, basis)

    def test_cutoff_is_absolute(self):
        basis = np.eye(4, dtype=complex)[:1]
        # residual norms 1e-3 and 1e-6; scaling the candidates up moves the second
        # across the cutoff, which a cutoff relative to the candidates would not
        cand = np.array([[5.0, 1e-3, 0.0, 0.0], [0.0, 0.0, 1e-6, 0.0]], dtype=complex)
        assert orthonormal_extend(basis, cand, 1e-5).shape == (2, 4)
        assert orthonormal_extend(basis, cand, 1e-7).shape == (3, 4)
        assert orthonormal_extend(basis, 1e3 * cand, 1e-5).shape == (3, 4)

    def test_new_rows_have_a_real_positive_largest_entry(self):
        rng = rng_stream(44)
        out = orthonormal_extend(np.zeros((0, 6), dtype=complex),
                                 complex_gaussian((3, 6), rng), 1e-9)
        lead = out[np.arange(3), np.argmax(np.abs(out), axis=1)]
        assert np.allclose(lead.imag, 0.0) and np.all(lead.real > 0)

    def test_empty_basis(self):
        out = orthonormal_extend(np.zeros((0, 4), dtype=complex), np.array([[3.0, 0, 0, 0]]), 1e-9)
        assert np.allclose(out, [[1.0, 0, 0, 0]])

    def test_empty_candidates(self):
        basis = np.eye(3, dtype=complex)[:2]
        assert np.array_equal(orthonormal_extend(basis, np.zeros((0, 3)), 1e-9), basis)
        empty = orthonormal_extend(np.zeros((0, 3), dtype=complex), np.zeros((0, 3)), 1e-9)
        assert empty.shape == (0, 3)

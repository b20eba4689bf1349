"""Seeded randomness, small dense linear-algebra helpers and the table of numerical cutoffs."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


class Cutoff:
    """Every numerical cutoff the package applies, in one table; never instantiated.

    A fixed cutoff is a constant.  A relative one is a function of the
    tolerance ``tol`` in use and of a ``scale`` (a norm, a dimension or its
    square root).  Each formula keeps the operand order of the check it
    serves, so a cutoff has the same value to the bit wherever it is read.
    """

    TOL = 1e-9  # the default tolerance up to dimension 64
    WEIGHT_FLOOR = 1e-12  # a weight at or below it is dropped; a canonical None takes |p_i| <= it
    PROBABILITY = 1e-9  # a probability vector's sum may miss 1, and a weight exceed 1, by this
    UNIT_NORM = 1e-8  # a decomposition's unit vectors and weight sum may miss 1 by this
    ALIGN_SCALE = 1e-8  # discovery retries on a compression between clusters below this scale
    ALIGN_DEFECT = 1e-6  # ... or on one further than this from a multiple of a unitary
    CONDITION = 1e6  # largest condition number of state_from_values' block-coordinate system
    ZENO = 1e-9 * 100  # zeno_sequence: the vectors' norm defect and overlap

    @staticmethod
    def default(scale):
        """The tolerance a function applies when given none; scale the ambient dimension."""
        return Cutoff.TOL if scale <= 64 else Cutoff.TOL * scale / 64.0

    @staticmethod
    def spectral(tol, scale):
        """An eigenvalue, or a gap between two, is nonzero above this; scale the largest modulus."""
        return tol * max(scale, 1e-300)

    @staticmethod
    def coupling(tol, scale):
        """Discovery: a compression between clusters couples them above this; scale ||B||_F."""
        return max(1e-8, tol) * scale

    @staticmethod
    def identity_in_span(tol, scale):
        """Residual of the identity against a span; scale sqrt(d)."""
        return max(tol, 1e-9) * 10 * scale

    @staticmethod
    def certificate(tol):
        """Discovery's largest projection residual of the algebra onto the split."""
        return max(1e-6, 100.0 * tol)

    @staticmethod
    def identity_defect(scale):
        """||X - I||_F of discovery's W*W, a SubalgebraBasis's W*W or a resolution of the
        identity; scale the dimension."""
        return 1e-8 * scale

    @staticmethod
    def gram(scale):
        """||G - I||_F of the Gram matrix of an orthonormal basis; scale the basis size."""
        return 1e-7 * scale

    @staticmethod
    def unitary(scale):
        """||U*U - I||_F of a mixing unitary; scale sqrt(n)."""
        return 1e-8 * max(1.0, scale)

    @staticmethod
    def probability_sum(scale):
        """How far a probability vector of length scale may sum away from 1."""
        return 1e-9 * scale

    @staticmethod
    def defect(tol, scale):
        """Asymmetry of a Hermitian matrix; scale its norm."""
        return tol * max(1.0, scale) * 10

    @staticmethod
    def selfadjoint(tol, scale):
        """Asymmetry of a state's value matrix; scale its norm."""
        return tol * 100 * max(1.0, scale)

    @staticmethod
    def eigenvalue(tol):
        """How far an eigenvalue, or a density matrix's trace, may leave its range."""
        return tol * 10

    @staticmethod
    def aggregate(tol):
        """A state's normalization and an observable's self-adjointness (has_definite_value)."""
        return tol * 100

    @staticmethod
    def span(tol):
        """Projection residual of a matrix the algebra must contain."""
        return max(tol * 100, 1e-7)

    @staticmethod
    def variance(tol):
        """Largest variance of an observable with a definite value."""
        return max(tol * 100, 1e-10)


def _is_real(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, (int, float, np.integer, np.floating))


def shown(value):
    """value as an error message prints it: a numpy scalar as the Python number it holds."""
    return value.item() if isinstance(value, np.generic) else value


def check_positive(value, name: str) -> float:
    """value as a float; it must be a positive finite real number."""
    if not _is_real(value) or not 0 < value < np.inf:
        raise ValidationError(f"{name} must be a positive finite number, got {shown(value)!r}")
    return float(value)


def resolve_tol(tol, dim: int) -> float:
    """``Cutoff.default(dim)`` for None, else ``check_positive(tol, "tol")``."""
    return Cutoff.default(dim) if tol is None else check_positive(tol, "tol")


def check_tol(tol) -> float:
    """tol as a float; it must be a finite real number >= 0, where 0 asks for an exact check."""
    if not _is_real(tol) or not 0 <= tol < np.inf:
        raise ValidationError(f"tol must be a nonnegative finite number, got {shown(tol)!r}")
    return float(tol)


def check_int(value, name: str, minimum: int | None = None) -> int:
    """value as an int; it must be an integer, not a bool, float or string, and at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {shown(value)!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {shown(value)!r}")
    return int(value)


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """The package's one random stream: ``Generator(SFC64(SeedSequence(seed mod 2^128, spawn_key=key)))``.

    The key names the job: (1, c) is oracle chunk c, (2, k) is discovery
    attempt k, (3,) is the GNS identity decomposition and (4,) is the three
    combinations of a basis stack that ``block_decompose`` draws.  A stream
    is a function of (seed, key) alone, so results do not depend on
    evaluation order; streams with distinct keys are independent with
    overwhelming probability.  The seed must be an integer (:func:`check_int`).
    """
    seq = np.random.SeedSequence(check_int(seed, "seed") & ((1 << 128) - 1), spawn_key=key)
    return np.random.Generator(np.random.SFC64(seq))


def frozen(arr: np.ndarray, dtype=complex) -> np.ndarray:
    """Read-only copy, complex by default, for the immutable value types."""
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def frob(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat))


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def phase_fixed_qr(mats: np.ndarray) -> np.ndarray:
    """Q factor of each matrix in a stack (..., r, c), with diag(R) made positive.

    Rescaling column j of Q by the phase of R[j, j] makes the factor a
    deterministic function of the input; on a complex Gaussian input it is
    exactly Haar distributed.
    """
    q, r = np.linalg.qr(mats)
    d = np.einsum("...ii->...i", r)
    return q * (d / np.abs(d))[..., None, :]


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """rows x cols matrix with orthonormal columns (rows >= cols)."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    return phase_fixed_qr(complex_gaussian((rows, cols), rng))


def orthonormal_extend(basis: np.ndarray, candidates: np.ndarray, cutoff: float) -> np.ndarray:
    """Extend orthonormal rows by an orthonormal basis of the candidates' new directions.

    The candidates are projected off the basis twice (the second pass removes
    what rounding left of the first), residuals of norm at most the absolute
    cutoff are dropped, and one thin SVD of the rest gives the new rows: the
    right singular vectors whose singular value exceeds the cutoff.  Each new
    row's phase makes its largest-modulus entry real and positive.  Returns
    the enlarged row basis; the input rows come first and are unchanged.
    """
    basis = np.asarray(basis, dtype=complex)
    work = np.asarray(candidates, dtype=complex)
    for _ in range(2):
        work = work - (work @ basis.conj().T) @ basis
    work = work[np.linalg.norm(work, axis=1) > cutoff]
    _, s, vh = np.linalg.svd(work, full_matrices=False)
    new = vh[s > cutoff]
    lead = new[np.arange(new.shape[0]), np.argmax(np.abs(new), axis=1)]
    return np.concatenate([basis, new * (lead.conj() / np.abs(lead))[:, None]])


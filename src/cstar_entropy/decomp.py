"""Convex decompositions into pure states and the infimum oracle.

Any decomposition of a density matrix into vector states arises from a
unitary mixing of its spectral decomposition; the induced weight vector is a
doubly stochastic image of the spectrum and is therefore majorized by it.
The infimum oracle samples random decompositions of a state, block by block,
to certify numerically that none beats the closed-form entropy.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._linalg import Cutoff, check_int, frozen, resolve_tol, rng_stream
from .algebra import make_algebra
from .entropy import _entropy_of, _probability_vector, closed_form_entropy, minimal_decomposition
from .errors import ValidationError
from .states import Decomposition, DensityMatrix, StateFunctional, _decomposition, active_sectors

_CHUNK = 1024  # oracle samples per stream; part of the sampling contract
_MAX_SAMPLES = 10 ** 8  # largest oracle scan, 2-4 minutes at 1.3-2.5 us per sample at (3,2),(2,1),(1,1)


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("unitary must be a square matrix")
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
    if not defect <= Cutoff.unitary(np.sqrt(u.shape[0])):
        raise ValidationError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def _spectral(rho_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, clipped at 0) and matching eigenvectors."""
    eigs, vecs = np.linalg.eigh(rho_mat)
    return np.clip(eigs[::-1], 0.0, None), vecs[:, ::-1]


def _mixed_vectors(lam: np.ndarray, psi: np.ndarray, u: np.ndarray):
    """Weights and vectors of the decomposition induced by a unitary or an isometry.

    ``p_i = sum_j |u_ij|^2 lam_j`` over the retained spectrum, with vectors
    proportional to ``sum_j u_ij sqrt(lam_j) psi_j``.
    """
    rank = int(np.sum(lam > Cutoff.WEIGHT_FLOOR))
    r = u.shape[0]
    if r < rank:
        raise ValidationError(f"unitary size {r} is below the rank {rank}")
    amp = psi[:, :rank] * np.sqrt(lam[:rank])
    tilde = amp @ u[:, :rank].T
    weights = np.linalg.norm(tilde, axis=0) ** 2
    keep = weights > Cutoff.WEIGHT_FLOOR
    return weights[keep], tilde[:, keep] / np.sqrt(weights[keep])


def schrodinger_decomposition(rho, u: np.ndarray) -> Decomposition:
    """Decomposition of a density matrix induced by a unitary mixing matrix.

    With the identity this is the spectral decomposition; any unitary of size
    at least the rank yields another preparation of the same matrix, with
    weights ``p = |u|^2 lam``.
    """
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    u = _check_unitary(u)
    lam, psi = _spectral(rho.matrix)
    weights, vectors = _mixed_vectors(lam, psi, u)
    return _decomposition(make_algebra([(rho.dim, 1)]),
                          ((w, 0, v) for w, v in zip(weights, vectors.T)))


def doubly_stochastic_from_unitary(u: np.ndarray) -> np.ndarray:
    """Entrywise squared moduli of a unitary: a doubly stochastic matrix."""
    u = _check_unitary(u)
    return np.abs(u) ** 2


@dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of comparing two probability vectors in the majorization order."""

    relation: str  # "majorizes" | "majorized" | "equal" | "incomparable"
    partial_sums: tuple[np.ndarray, np.ndarray]


def majorizes(p, q) -> MajorizationVerdict:
    """Compare sorted cumulative sums of two probability vectors.

    Shorter vectors are zero-padded.  ``relation`` reports which side
    dominates at every prefix, within ``Cutoff.PROBABILITY``.
    """
    tol = Cutoff.PROBABILITY
    vecs = [np.clip(_probability_vector(v, name), 0.0, None) for name, v in (("p", p), ("q", q))]
    size = max(len(vecs[0]), len(vecs[1]))
    padded = [np.pad(v, (0, size - len(v))) for v in vecs]
    cp, cq = (np.cumsum(np.sort(v)[::-1]) for v in padded)
    if np.allclose(cp, cq, atol=tol):
        relation = "equal"
    elif np.all(cp >= cq - tol):
        relation = "majorizes"
    elif np.all(cq >= cp - tol):
        relation = "majorized"
    else:
        relation = "incomparable"
    return MajorizationVerdict(relation, (frozen(cp, float), frozen(cq, float)))


def decomposition_entropy(dec: Decomposition) -> float:
    """Shannon entropy of a decomposition's weights, which its constructor checked."""
    return _entropy_of(dec.weights())


def _scan_buffers(active) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A scan's weights, flat Q buffer and work row, sized for its largest block; made once per call."""
    ns = [lam.size for _, _, lam, _ in active]
    n = max(ns)
    return np.empty((2 * sum(ns), _CHUNK)), np.empty(2 * n * n * _CHUNK, dtype=complex), \
        np.empty((2 * n, _CHUNK), dtype=complex)


def _chunk_draws(seed: int, chunk: int, active, out: np.ndarray) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Sizes and complex Gaussian draws of the oracle samples in one chunk.

    Chunk c holds samples ``c * _CHUNK + 1 ..`` and is read from
    ``rng_stream(seed, 1, c)`` (stream contract v3): first one ``integers``
    draw of the (_CHUNK, k) sizes, r in [n_i, 2 n_i] for block i, then one
    normal draw per active block, in block order, made straight into the
    front of out, viewed as float, as the returned iterator advances, so
    each draw lives until the next.  A block's draw is the complex
    (n_i, 2 n_i, _CHUNK) array q whose real and imaginary parts come in
    turn; sample s's complex Gaussian has entry (a, j) at ``q[j, a, s]``,
    and a size r takes its first r rows.  The whole chunk is always drawn,
    so every sample reads the same numbers whichever samples are evaluated.
    """
    rng = rng_stream(seed, 1, chunk)
    ns = np.array([lam.size for _, _, lam, _ in active])
    sizes = rng.integers(ns, 2 * ns + 1, size=(_CHUNK, ns.size))
    return sizes, (rng.standard_normal(out=np.ndarray((n, 2 * n, 2 * _CHUNK), buffer=out)).view(complex)
                   for n in ns)


def _isometries(q: np.ndarray, sizes: np.ndarray, cols: int, work: np.ndarray) -> np.ndarray:
    """Phase-fixed Q of each draw's first r rows and first cols columns, zero-padded, in place.

    q is one block's (n_i, 2 n_i, count) complex draws (see :func:`_chunk_draws`)
    and sizes their sizes r; the result is its first cols columns, column j
    of sample s in ``q[j, :, s]``, and the first 2 n_i rows of work serve
    the sweep as a work row.  Rows at and beyond r are zeroed, which changes
    no inner product, so one Gram-Schmidt sweep with every projection made
    twice (Giraud, Langou & Rozloznik, 2005) serves every r.  R's diagonal
    comes out positive, so each Q is :func:`phase_fixed_qr` of the complex
    draw's first r rows and cols columns to rounding.
    """
    # samples along the innermost axis: every step adds or scales whole rows of samples
    n = q.shape[0]
    q = q[:cols]
    work = work[:2 * n]
    # r >= n keeps the first n rows; a complex mask, as a bool one costs a copy of q[:, n:]
    q[:, n:] *= (np.arange(n, 2 * n)[:, None] < sizes).astype(complex)
    for j, v in enumerate(q):
        for _ in range(2):
            for u in q[:j]:
                np.conjugate(u, out=work)
                work *= v
                v -= np.multiply(u, work.sum(axis=0), out=work)
        # rounds as numpy's complex-by-real division does, at less cost
        v *= 1.0 / np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0))
    return q


def _chunk_entropies(seed: int, chunk: int, active, count: int = _CHUNK, buffers=None) -> np.ndarray:
    """Decomposition entropies of the first count samples of a chunk.

    Each block's draws go through one :func:`_isometries` call over their
    first rank columns (all the weights read), every sample's weights
    ``|Q|^2 lambda`` land zero-padded in one column of a (sum 2 n_i, rows)
    array, and each column's entropy drops the entries at or below
    ``Cutoff.WEIGHT_FLOOR``.  The whole chunk is always computed alike, so
    each entropy is a function of (seed, sample index) alone.  Every entry
    of buffers (fresh ones when None) is written before it is read.
    """
    weights, q_buffer, work = buffers or _scan_buffers(active)
    sizes, draws = _chunk_draws(seed, chunk, active, q_buffer)
    weights.fill(0.0)
    start = 0
    for (_, w_block, lam, _), q, block_sizes in zip(active, draws, sizes.T):
        rank = int(np.sum(lam > Cutoff.WEIGHT_FLOOR))
        block = weights[start:start + 2 * lam.size]
        for lam_j, q_j in zip(lam, _isometries(q, block_sizes, rank, work)):
            block += lam_j * (q_j.real ** 2 + q_j.imag ** 2)
        block *= w_block
        start += 2 * lam.size
    weights[weights <= Cutoff.WEIGHT_FLOOR] = 0.0
    weights /= weights.sum(axis=0)
    # in place, where entropy._entropy_of copies: each (sum 2 n_i, 1024) temporary adds to the peak
    logs = np.where(weights > 0.0, weights, 1.0)
    np.log(logs, out=logs)
    return -np.multiply(logs, weights, out=logs).sum(axis=0)[:count]


@dataclass(frozen=True)
class OracleReport:
    """What one oracle scan found, built by :func:`infimum_oracle` alone.

    min_entropy_found is the lowest decomposition entropy over samples
    0..samples, state_entropy the closed form that sample 0 carries
    (:func:`~cstar_entropy.entropy.closed_form_entropy`), and
    best_index the lowest sample that attains the minimum; 0 means the
    minimal decomposition.  :func:`oracle_decomposition` rebuilds a sample.
    """

    min_entropy_found: float
    state_entropy: float
    best_index: int


def infimum_oracle(omega: StateFunctional, samples: int = 1000, seed: int = 0,
                   tol: float | None = None) -> OracleReport:
    """Randomized search for the lowest-entropy decomposition of a state.

    Sample 0 is the minimal decomposition and carries the closed form's own
    value, ``closed_form_entropy(omega, tol)``, so the reported
    minimum never exceeds it and falls below it only where a sample does.
    Samples 1..samples each draw, per active block, a decomposition size r
    in [n_i, 2 n_i] and an r x n_i isometry (the first n_i columns of a Haar
    unitary of size r: the phase-fixed Q of the first r rows of a complex
    Gaussian, computed by Gram-Schmidt run twice, see :func:`_isometries`),
    and mix the block state accordingly.  Sample s is row (s - 1) mod 1024
    of chunk (s - 1) // 1024, which draws from ``rng_stream(seed, 1, chunk)``
    (stream contract v3, see :func:`_chunk_draws`), so each sample's entropy
    depends on (seed, s) alone; ties resolve to the lowest sample index.
    samples and seed must be integers, not booleans, and samples is at most
    ``_MAX_SAMPLES``.  The report names the winning sample and builds no
    decomposition; ``oracle_decomposition(omega, report.best_index, seed,
    tol)`` rebuilds it on demand.
    """
    samples = check_int(samples, "samples", 1)
    if samples > _MAX_SAMPLES:
        raise ValidationError(f"samples must be at most {_MAX_SAMPLES}, got {samples!r}")
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    closed = closed_form_entropy(omega, tol)
    best_entropy, best_index = closed, 0
    active = active_sectors(omega, tol)
    buffers = _scan_buffers(active)

    for chunk in range((samples + _CHUNK - 1) // _CHUNK):
        h = _chunk_entropies(seed, chunk, active, min(_CHUNK, samples - chunk * _CHUNK), buffers)
        j = int(np.argmin(h))
        # argmin is the first minimum and the comparison strict, so ties keep the lowest index
        if h[j] < best_entropy:
            best_entropy, best_index = float(h[j]), chunk * _CHUNK + j + 1

    return OracleReport(best_entropy, closed, best_index)


def oracle_decomposition(omega: StateFunctional, index: int, seed: int = 0,
                         tol: float | None = None) -> Decomposition:
    """Sample index of ``infimum_oracle(omega, seed=seed, tol=tol)`` as a decomposition.

    Index 0 is :func:`minimal_decomposition`.  An index s >= 1 is recomputed
    with its vectors from the chunk stream it was drawn from, with the
    isometries the scan used (see :func:`_sample_isometries`).  index and
    seed must be integers, not booleans, and index is at most
    ``_MAX_SAMPLES``.
    """
    index = check_int(index, "index", 0)
    if index > _MAX_SAMPLES:
        raise ValidationError(f"index must be at most {_MAX_SAMPLES}, got {index!r}")
    seed = check_int(seed, "seed")
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    if index == 0:
        return minimal_decomposition(omega, tol)
    active = active_sectors(omega, tol)
    terms = []
    for (i, w_block, lam, psi), u in zip(active, _sample_isometries(seed, index, active)):
        weights, vectors = _mixed_vectors(lam, psi, u)
        terms += [(w_block * w, i, vec) for w, vec in zip(weights, vectors.T)]
    return _decomposition(omega.structure, terms)


def _sample_isometries(seed: int, index: int, active, buffers=None) -> list[np.ndarray]:
    """The r x n_i isometry of each active block for sample index >= 1, as the scan computes it."""
    chunk, row = divmod(index - 1, _CHUNK)
    _, q_buffer, work = buffers or _scan_buffers(active)
    sizes, draws = _chunk_draws(seed, chunk, active, q_buffer)
    return [_isometries(q, rs, q.shape[0], work)[:, :r, row].T.copy()
            for q, rs, r in zip(draws, sizes.T, sizes[row])]

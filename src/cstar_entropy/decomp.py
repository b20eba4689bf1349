"""Convex decompositions into pure states and the infimum oracle.

Any decomposition of a density matrix into vector states arises from a
unitary mixing of its spectral decomposition; the induced weight vector is a
doubly stochastic image of the spectrum and is therefore majorized by it.
The infimum oracle samples random decompositions of a state, block by block,
to certify numerically that none beats the closed-form entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import default_tol, phase_fixed_qr, rng_stream, rng_streams
from .algebra import BlockStructure, make_algebra
from .entropy import _entropy_of, _entropy_rows, minimal_decomposition, shannon
from .errors import ValidationError
from .states import Decomposition, DensityMatrix, StateFunctional, active_sectors, block_spectra

__all__ = [
    "Decomposition",
    "MajorizationVerdict",
    "schrodinger_decomposition",
    "doubly_stochastic_from_unitary",
    "majorizes",
    "decomposition_entropy",
    "decomposition_entropy_split",
    "infimum_oracle",
]

_WEIGHT_FLOOR = 1e-12  # components below this are dropped and the rest renormalized


def _check_unitary(u: np.ndarray, tol: float) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("unitary must be a square matrix")
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
    if defect > tol * max(1.0, np.sqrt(u.shape[0])):
        raise ValidationError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def _spectral(rho_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, clipped at 0) and matching eigenvectors."""
    eigs, vecs = np.linalg.eigh(rho_mat)
    return np.clip(eigs[::-1], 0.0, None), vecs[:, ::-1]


def _mixed_vectors(lam: np.ndarray, psi: np.ndarray, u: np.ndarray):
    """Weights and vectors of the decomposition induced by a unitary.

    ``p_i = sum_j |u_ij|^2 lam_j`` over the retained spectrum, with vectors
    proportional to ``sum_j u_ij sqrt(lam_j) psi_j``.
    """
    rank = int(np.sum(lam > _WEIGHT_FLOOR))
    r = u.shape[0]
    if r < rank:
        raise ValidationError(f"unitary size {r} is below the rank {rank}")
    amp = psi[:, :rank] * np.sqrt(lam[:rank])
    tilde = amp @ u[:, :rank].T
    weights = np.linalg.norm(tilde, axis=0) ** 2
    keep = weights > _WEIGHT_FLOOR
    return weights[keep], tilde[:, keep] / np.sqrt(weights[keep])


def schrodinger_decomposition(rho, u: np.ndarray, tol: float = 1e-8) -> Decomposition:
    """Decomposition of a density matrix induced by a unitary mixing matrix.

    With the identity this is the spectral decomposition; any unitary of size
    at least the rank yields another preparation of the same matrix, with
    weights ``p = |u|^2 lam``.
    """
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    u = _check_unitary(u, tol)
    lam, psi = _spectral(rho.matrix)
    weights, vectors = _mixed_vectors(lam, psi, u)
    total = weights.sum()
    structure = make_algebra([(rho.dim, 1)])
    comps = tuple((float(w / total), 0, vectors[:, k]) for k, w in enumerate(weights))
    return Decomposition(structure, comps)


def doubly_stochastic_from_unitary(u: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Entrywise squared moduli of a unitary: a doubly stochastic matrix."""
    u = _check_unitary(u, tol)
    return np.abs(u) ** 2


@dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of comparing two probability vectors in the majorization order."""

    relation: str  # "majorizes" | "majorized" | "equal" | "incomparable"
    partial_sums: tuple[np.ndarray, np.ndarray]


def majorizes(p, q, tol: float = 1e-9) -> MajorizationVerdict:
    """Compare sorted cumulative sums of two probability vectors.

    Shorter vectors are zero-padded.  ``relation`` reports which side
    dominates at every prefix, within tol.
    """
    vecs = []
    for name, v in (("p", p), ("q", q)):
        arr = np.asarray(v, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"{name} must be a nonempty vector")
        if np.any(arr < -tol) or abs(arr.sum() - 1.0) > max(tol, 1e-12) * arr.size:
            raise ValidationError(f"{name} is not a probability vector")
        vecs.append(np.clip(arr, 0.0, None))
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
    return MajorizationVerdict(relation, (cp, cq))


def decomposition_entropy(dec: Decomposition) -> float:
    """Shannon entropy of the weight vector of a decomposition."""
    return shannon(dec.weights())


def decomposition_entropy_split(dec: Decomposition) -> tuple[float, float]:
    """Split of the decomposition entropy into sector mixing and within-block parts.

    Returns ``(H(p), sum_i p_i H(v_i))`` where p groups the weights by block;
    the two parts add up to the total entropy.
    """
    by_block: dict[int, list[float]] = {}
    for w, i, _ in dec.components:
        by_block.setdefault(i, []).append(w)
    p = np.array([sum(ws) for ws in by_block.values()])
    within = sum(sum(ws) * _entropy_of(np.array(ws)) for ws in by_block.values())
    return _entropy_of(p), within


def _sample_draws(rng: np.random.Generator, active) -> list[tuple[int, np.ndarray]]:
    """Size r and real Gaussian draw x of shape (2, r, r) per active block, for one sample.

    Per block, in block order: one ``integers`` draw for r in [n_i, 2 n_i],
    then one normal draw; :func:`_complex_gaussians` turns x into the block's
    complex Gaussian matrix.  This is the only reader of a sample's stream,
    so the batched scan and the single-sample rebuild consume it identically.
    """
    draws = []
    for _, _, lam, _ in active:
        r = int(rng.integers(lam.size, 2 * lam.size + 1))
        draws.append((r, rng.standard_normal((2, r, r))))
    return draws


def _complex_gaussians(x: np.ndarray) -> np.ndarray:
    """``x[0] + 1j x[1]`` for a draw (2, r, r) or a stack of them (S, 2, r, r)."""
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def _chunk_entropies(stream, indices: np.ndarray, active) -> np.ndarray:
    """Decomposition entropy of each sample in indices; ``stream(s)`` is its generator.

    The draws of one block with one size r share one phase-fixed QR and one
    ``einsum``, and their weight rows land zero-padded in an (S, 2 n_i) array
    per block.  The entropies are taken in one pass per distinct size tuple,
    with the block rows concatenated in block order, so each one is a
    function of (seed, s) alone.
    """
    sizes = np.empty((indices.size, len(active)), dtype=np.int64)
    mats: list[list[np.ndarray]] = [[] for _ in active]
    for row, s in enumerate(indices):
        for pos, (r, x) in enumerate(_sample_draws(stream(s), active)):
            sizes[row, pos] = r
            mats[pos].append(x)
    rows = []
    for pos, (_, w_block, lam, _) in enumerate(active):
        rank = int(np.sum(lam > _WEIGHT_FLOOR))
        block = np.zeros((indices.size, 2 * lam.size))
        for r in range(lam.size, 2 * lam.size + 1):
            owners = np.flatnonzero(sizes[:, pos] == r)
            if not owners.size:
                continue
            u = phase_fixed_qr(_complex_gaussians(np.array([mats[pos][j] for j in owners])))
            probs = np.einsum("sij,j->si", np.abs(u[:, :, :rank]) ** 2, lam[:rank])
            block[owners, :r] = w_block * probs
        rows.append(block)
    out = np.empty(indices.size)
    combos, which = np.unique(sizes, axis=0, return_inverse=True)
    which = which.reshape(-1)
    for t, combo in enumerate(combos):
        owners = np.flatnonzero(which == t)
        weights = np.concatenate([block[owners, :r] for block, r in zip(rows, combo)], axis=1)
        out[owners] = _entropy_rows(weights, _WEIGHT_FLOOR)
    return out


def infimum_oracle(omega: StateFunctional, structure: BlockStructure, samples: int = 1000,
                   seed: int = 0, tol: float | None = None) -> tuple[float, Decomposition]:
    """Randomized search for the lowest-entropy decomposition of a state.

    Sample 0 is always the minimal decomposition, so the reported minimum
    never exceeds the closed-form entropy; samples 1..samples draw per-block
    decomposition sizes in [n_i, 2 n_i] and Haar unitaries, and mix each
    block state accordingly.  Sample s draws from ``rng_stream(seed, 1, s)``,
    so each sample's entropy depends on (seed, s) alone; ties resolve to the
    lowest sample index.
    """
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    tol = default_tol(structure.ambient_dim) if tol is None else tol
    base = minimal_decomposition(omega, structure, tol)
    best_entropy = _entropy_of(base.weights(), _WEIGHT_FLOOR)
    best_index = 0
    active = active_sectors(block_spectra(omega, structure, tol), tol)

    stream = rng_streams(seed, 1)
    chunk_size = 1024   # bounds the memory of the batched draws
    for chunk_start in range(1, samples + 1, chunk_size):
        indices = np.arange(chunk_start, min(chunk_start + chunk_size, samples + 1))
        h = _chunk_entropies(stream, indices, active)
        j = int(np.argmin(h))
        # argmin is the first minimum and the comparison strict, so ties keep the lowest index
        if h[j] < best_entropy:
            best_entropy, best_index = float(h[j]), int(indices[j])

    if best_index == 0:
        return best_entropy, base
    return best_entropy, _rebuild_sample(seed, best_index, active, structure)


def _rebuild_sample(seed: int, index: int, active, structure: BlockStructure) -> Decomposition:
    """Recompute one sample fully (with vectors) from its stream."""
    comps = []
    draws = _sample_draws(rng_stream(seed, 1, index), active)
    for (i, w_block, lam, psi), (_, x) in zip(active, draws):
        weights, vectors = _mixed_vectors(lam, psi, phase_fixed_qr(_complex_gaussians(x)))
        for k, w in enumerate(weights):
            weight = w_block * float(w)
            if weight > _WEIGHT_FLOOR:
                comps.append((weight, i, vectors[:, k]))
    total = sum(w for w, _, _ in comps)
    return Decomposition(structure, tuple((w / total, i, v) for w, i, v in comps))

"""Shannon entropy, von Neumann entropy, and the closed-form state entropy.

The entropy of a state over a block algebra decomposes as the mixing entropy
of the sector weights plus the average von Neumann entropy of the block
states; on multiplicity-free structures this equals the von Neumann entropy
of the representative density matrix, and in general the two differ by the
multiplicity term ``sum_i p_i log m_i``.  All entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._linalg import Cutoff, resolve_tol
from .errors import ValidationError
from .states import Decomposition, DensityMatrix, StateFunctional, active_sectors


def _entropy_of(weights: np.ndarray) -> float:
    """-sum w log w over the positive weights, renormalized to sum 1 (0 log 0 = 0)."""
    w = weights[weights > 0.0]
    w = w / w.sum()
    return float(0.0 - (w * np.log(w)).sum())  # one point gives 0.0 - 0.0 = +0.0, not -(0.0)


def shannon(p) -> float:
    """Shannon entropy of a probability vector, in nats.

    Entries at most ``Cutoff.PROBABILITY`` below zero count as zero and the
    vector is renormalized; anything worse is a validation error.
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("probability vector must be one-dimensional and nonempty")
    if np.any(arr < -Cutoff.PROBABILITY):
        raise ValidationError(f"negative probability {arr.min()!r}")
    if not abs(arr.sum() - 1.0) <= Cutoff.probability_sum(arr.size):
        raise ValidationError(f"probabilities sum to {arr.sum()!r}, expected 1")
    return _entropy_of(arr)


def von_neumann(rho) -> float:
    """Von Neumann entropy: the Shannon entropy of the spectrum, in nats."""
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    return _entropy_of(rho.spectrum)


def _representative_entropy(omega: StateFunctional,
                            sectors: list[tuple[int, float, np.ndarray, np.ndarray]]) -> float:
    """S_VN(rho_omega) over the blocks ``sectors`` (from ``active_sectors``) keeps, read off
    ``omega.spectra``: each eigenvalue w / m_i repeated m_i times, renormalized over them."""
    parts = []
    for i, _, _, _ in sectors:
        m = omega.structure.blocks[i][1]
        parts.append(np.repeat(omega.spectra[i][0] / m, m))
    return _entropy_of(np.concatenate(parts))


@dataclass(frozen=True)
class EntropyReport:
    """Entropy of a state together with its constituents.

    state_entropy = sector_entropy + mean_block_entropy, and the von Neumann
    entropy of the representative, read off the block spectra, exceeds it by
    the multiplicity term.
    """

    state_entropy: float
    sector_entropy: float
    mean_block_entropy: float
    vn_of_representative: float
    multiplicity_term: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))


def state_entropy(omega: StateFunctional, tol: float | None = None) -> EntropyReport:
    """Entropy of a state from the canonical form of its representative.

    Sector weights and block spectra are read off ``omega.spectra``.  The
    spectrum of the representative ``(+)_i (X_i / m_i) (x) I_{m_i}`` is those
    block spectra, each eigenvalue divided by m_i and repeated m_i times, so
    S_VN(rho_omega) is read off them without forming the d x d matrix; it
    satisfies ``S_VN(rho_omega) = S(omega) + sum_i p_i log m_i``.
    """
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    sectors = active_sectors(omega, tol)
    sector = _entropy_of(np.array([w for _, w, _, _ in sectors]))
    mean = sum(w * _entropy_of(lam) for _, w, lam, _ in sectors)
    mult = sum(w * np.log(omega.structure.blocks[i][1]) for i, w, _, _ in sectors)
    return EntropyReport(
        state_entropy=sector + mean,
        sector_entropy=sector,
        mean_block_entropy=mean,
        vn_of_representative=_representative_entropy(omega, sectors),
        multiplicity_term=mult,
    )


def minimal_decomposition(omega: StateFunctional, tol: float | None = None) -> Decomposition:
    """The decomposition into pure states attaining the state entropy.

    Weights are ``p_i lambda_j`` with lambda_j the spectrum of the block
    states; the components are the corresponding eigenvectors, one sector at
    a time.  Weights at or below ``Cutoff.WEIGHT_FLOOR`` are dropped.
    """
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    comps = []
    for i, w, lams, vecs in active_sectors(omega, tol):
        for lam, vec in zip(lams, vecs.T):
            weight = w * float(lam)
            if weight <= Cutoff.WEIGHT_FLOOR:
                continue
            comps.append((weight, i, vec / np.linalg.norm(vec)))
    total = sum(w for w, _, _ in comps)
    comps = [(w / total, i, v) for w, i, v in comps]
    return Decomposition(omega.structure, tuple(comps))

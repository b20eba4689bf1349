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
from .states import Decomposition, DensityMatrix, StateFunctional, _decomposition, active_sectors


def _entropy_of(weights: np.ndarray) -> float:
    """-sum w log w over the weights above ``Cutoff.WEIGHT_FLOOR``, renormalized to sum 1."""
    w = weights[weights > Cutoff.WEIGHT_FLOOR]
    w = w / w.sum()
    return float(0.0 - (w * np.log(w)).sum())  # one point gives 0.0 - 0.0 = +0.0, not -(0.0)


def _probability_vector(p, name: str) -> np.ndarray:
    """p as a float vector, checked to be one: one-dimensional and nonempty, no entry
    below ``-Cutoff.PROBABILITY`` and a sum within ``Cutoff.probability_sum(size)`` of 1."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be one-dimensional and nonempty")
    if np.any(arr < -Cutoff.PROBABILITY):
        raise ValidationError(f"{name} has negative entry {float(arr.min())!r}")
    if not abs(arr.sum() - 1.0) <= Cutoff.probability_sum(arr.size):
        raise ValidationError(f"{name} sums to {float(arr.sum())!r}, expected 1")
    return arr


def shannon(p) -> float:
    """Shannon entropy of a probability vector, in nats.

    Entries at most ``Cutoff.PROBABILITY`` below zero count as zero and the
    vector is renormalized; anything worse is a validation error.
    """
    return _entropy_of(_probability_vector(p, "probability vector"))


def von_neumann(rho) -> float:
    """Von Neumann entropy: the Shannon entropy of the spectrum, in nats."""
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    return _entropy_of(rho.spectrum)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy of a state together with its constituents, built by :func:`state_entropy` alone.

    state_entropy = sector_entropy + mean_block_entropy, and the von Neumann
    entropy of the representative, read off the block spectra, exceeds it by
    the multiplicity term sum_i p_i log m_i, m_i the algebra's multiplicities.
    """

    state_entropy: float
    sector_entropy: float
    mean_block_entropy: float
    vn_of_representative: float
    multiplicity_term: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))


def _closed_form(sectors) -> tuple[float, float]:
    """The sector entropy and the mean block entropy of :func:`active_sectors` output."""
    sector = _entropy_of(np.array([w for _, w, _, _ in sectors]))
    return sector, sum(w * _entropy_of(lam) for _, w, lam, _ in sectors)


def closed_form_entropy(omega: StateFunctional, tol: float | None = None) -> float:
    """S(omega) = H(p) + sum_i p_i S(rho_i), the sector entropy plus the mean block entropy.

    Bit for bit ``state_entropy(omega, tol).state_entropy``, without the
    rest of the report.
    """
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    sector, mean = _closed_form(active_sectors(omega, tol))
    return float(sector + mean)


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
    sector, mean = _closed_form(sectors)
    blocks = omega.structure.blocks
    mult = sum(w * np.log(blocks[i][1]) for i, w, _, _ in sectors)
    # the representative's spectrum over the kept blocks, renormalized by _entropy_of
    rep = np.concatenate([np.repeat(omega.spectra[i][0] / blocks[i][1], blocks[i][1])
                          for i, _, _, _ in sectors])
    return EntropyReport(
        state_entropy=sector + mean,
        sector_entropy=sector,
        mean_block_entropy=mean,
        vn_of_representative=_entropy_of(rep),
        multiplicity_term=mult,
    )


def minimal_decomposition(omega: StateFunctional, tol: float | None = None) -> Decomposition:
    """The decomposition into pure states attaining the state entropy.

    Weights are ``p_i lambda_j`` with lambda_j the spectrum of the block
    states; the components are the corresponding eigenvectors, one sector at
    a time.  Weights at or below ``Cutoff.WEIGHT_FLOOR`` are dropped.
    """
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    return _decomposition(omega.structure, ((w * lam, i, vec / np.linalg.norm(vec))
                                            for i, w, lams, vecs in active_sectors(omega, tol)
                                            for lam, vec in zip(lams, vecs.T)))

"""Thermodynamic accounting: definite values, Zeno rotations, gas entropy.

Pure states inside one sector can be rotated into each other by a sequence
of frequent projective steps with success probability approaching one, so
they carry a common entropy; separating and isothermally compressing the
components of a mixed ensemble then prices its entropy in exchanged heat.
Pure states in different sectors admit no such connecting operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import Cutoff, _is_real, check_int, check_positive, resolve_tol, shown
from .algebra import AlgebraElement, identity
from .entropy import state_entropy
from .errors import DisconnectedSectorsError, ValidationError
from .states import StateFunctional, active_sectors


@dataclass(frozen=True)
class GasAccount:
    """Bookkeeping for an ensemble of boxed copies at fixed temperature.

    ``sector_entropies`` assigns a per-copy entropy (in nats) to the pure
    states of each sector; they default to zero since nothing inside the
    theory connects the sectors.
    """

    copies: int
    temperature: float
    sector_entropies: np.ndarray
    boltzmann: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "copies", check_int(self.copies, "copies", 1))
        for name in ("temperature", "boltzmann"):
            object.__setattr__(self, name, check_positive(getattr(self, name), name))
        s = np.array(self.sector_entropies, dtype=float)
        if s.ndim != 1 or not np.all(np.isfinite(s)):
            raise ValidationError("sector entropies must be a vector of finite numbers")
        s.setflags(write=False)
        object.__setattr__(self, "sector_entropies", s)


def has_definite_value(omega: StateFunctional, a: AlgebraElement,
                       tol: float | None = None) -> tuple[bool, float]:
    """Whether every measurement of a self-adjoint observable returns one number.

    Returns ``(definite, value)`` with value = omega(a); definite means the
    variance omega((a - value)^2) vanishes within tol.
    """
    tol = resolve_tol(tol, a.structure.ambient_dim)
    if not a.is_selfadjoint(Cutoff.aggregate(tol)):
        raise ValidationError("observable must be self-adjoint")
    value = omega.expect(a).real
    shifted = a - value * identity(a.structure)
    variance = omega.expect(shifted @ shifted).real
    return bool(variance < Cutoff.variance(tol)), float(value)


def zeno_sequence(phi: np.ndarray, psi: np.ndarray, k: int,
                  block_phi: int = 0, block_psi: int = 0) -> tuple[list[np.ndarray], list[float]]:
    """Stepwise rotation from phi to psi through k intermediate measurements.

    The nu-th vector is ``cos(pi nu / 2k) phi + sin(pi nu / 2k) psi`` and
    each step succeeds with probability ``cos^2(pi / 2k)``.  Both vectors
    must be unit, mutually orthogonal, and live in the same sector.
    """
    k = check_int(k, "k", 1)
    if block_phi != block_psi:
        raise DisconnectedSectorsError(
            f"vectors live in disconnected sectors {block_phi} and {block_psi}")
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if phi.shape != psi.shape or phi.ndim != 1:
        raise ValidationError("vectors must be one-dimensional and of equal length")
    for name, v in (("phi", phi), ("psi", psi)):
        if not abs(np.linalg.norm(v) - 1.0) <= Cutoff.ZENO:
            raise ValidationError(f"{name} is not a unit vector")
    overlap = abs(np.vdot(phi, psi))
    if not overlap <= Cutoff.ZENO:
        raise ValidationError(f"vectors are not orthogonal (overlap {overlap:.3e})")
    angles = np.pi * np.arange(k + 1) / (2 * k)
    vectors = [np.cos(t) * phi + np.sin(t) * psi for t in angles]
    step = float(np.cos(np.pi / (2 * k)) ** 2)
    return vectors, [step] * k


def zeno_success_probability(k: int) -> float:
    """Probability ``cos^{2k}(pi / 2k)`` that all k steps succeed; -> 1 as k grows."""
    k = check_int(k, "k", 1)
    return float(np.cos(np.pi / (2 * k)) ** (2 * k))


def compression_heat(weight: float, acct: GasAccount) -> float:
    """Heat exchanged when one separated component is compressed back isothermally.

    ``Q = k_B w M T log w`` for a component of total weight w; zero or
    negative, since compression releases heat.
    """
    if not _is_real(weight) or not 0.0 < weight <= 1.0:
        raise ValidationError(f"weight {shown(weight)!r} outside (0, 1]")
    weight = float(weight)
    return acct.boltzmann * weight * acct.copies * acct.temperature * float(np.log(weight))


def gas_entropy(omega: StateFunctional, acct: GasAccount, tol: float | None = None) -> float:
    """Per-copy thermodynamic entropy of the boxed ensemble, in nats.

    Equals the von Neumann entropy of the representative plus the average of
    the assigned sector entropies; with all of them zero and no
    multiplicities this is exactly the state entropy.
    """
    if len(acct.sector_entropies) != omega.structure.num_blocks:
        raise ValidationError("one sector entropy per block required")
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    assigned = sum(w * acct.sector_entropies[i] for i, w, _, _ in active_sectors(omega, tol))
    return state_entropy(omega, tol).vn_of_representative + float(assigned)

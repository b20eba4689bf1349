"""States over a block algebra and their unique in-algebra density representatives.

A state is a positive normalized linear functional on the algebra.  On a
finite-dimensional embedded algebra every state is represented by exactly one
density matrix that itself belongs to the algebra; that representative has
the canonical form ``(+)_i p_i (rho_i (x) I_{m_i} / m_i)`` from which purity,
entropy and decompositions are read off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._linalg import Cutoff, frob, frozen, hermitize, resolve_tol
from .algebra import (AlgebraElement, BlockStructure, _assemble, partial_traces, split_blocks,
                      structure_projection)
from .errors import NotAStateError, ValidationError


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, positive semidefinite, trace-one matrix and its ascending ``spectrum``."""

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = frozen(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise ValidationError("density matrix must be square and nonempty")
        if not np.isfinite(mat).all():
            raise ValidationError("density matrix has non-finite entries")
        tol = Cutoff.default(mat.shape[0])
        if frob(mat - mat.conj().T) > Cutoff.defect(tol, frob(mat)):
            raise ValidationError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(hermitize(mat))
        if eigs[0] < -Cutoff.eigenvalue(tol):
            raise ValidationError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > Cutoff.eigenvalue(tol):
            raise ValidationError(f"density matrix has trace {tr!r}, expected 1")
        eigs.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "spectrum", eigs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class StateFunctional:
    """A state given by its values on the matrix-unit basis of the algebra.

    ``block_values[i][a, b]`` is the value on the (a, b) matrix unit of block
    i.  Construction alone decides, at the default tol, that the functional
    is self-adjoint, normalized and positive.  The representative is
    ``(+)_i (X_i / m_i) (x) I_{m_i}`` with ``X_i = values_i^T``, and
    ``spectra`` holds one ``eigh`` of each X_i: eigenvalues descending,
    clipped at zero and renormalized to total one, and their eigenvectors.
    """

    structure: BlockStructure
    block_values: tuple[np.ndarray, ...]
    spectra: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.block_values) != self.structure.num_blocks:
            raise ValidationError("one value matrix per block required")
        tol = Cutoff.default(self.structure.ambient_dim)
        values = []
        unit = 0.0
        for (n, _), v in zip(self.structure.blocks, self.block_values):
            arr = frozen(v)
            if arr.shape != (n, n):
                raise ValidationError("value matrix shape does not match block size")
            if not np.isfinite(arr).all():
                raise ValidationError("value matrix has non-finite entries")
            asym = frob(arr - arr.conj().T)
            if asym > Cutoff.selfadjoint(tol, frob(arr)):
                raise NotAStateError(
                    f"functional is not self-adjoint: omega(A*) != conj omega(A) (defect {asym:.3e})")
            unit += arr.trace()
            values.append(arr)
        if abs(unit - 1.0) > Cutoff.aggregate(tol):
            raise NotAStateError(
                f"functional is not normalized: value {complex(unit)!r} on the identity")
        spectra = [np.linalg.eigh(hermitize(v.T)) for v in values]
        lowest = min(w[0] / m for (w, _), (_, m) in zip(spectra, self.structure.blocks))
        if lowest < -Cutoff.eigenvalue(tol):
            raise NotAStateError(
                f"functional is not positive: representative has eigenvalue {lowest:.3e}")
        # the scalar second: a -0.0 eigenvalue comes out +0.0, as from np.clip
        clipped = [np.maximum(w[::-1], 0.0) for w, _ in spectra]
        total = sum(w.sum() for w in clipped)
        spectra = tuple((w / total, v[:, ::-1]) for w, (_, v) in zip(clipped, spectra))
        for w, v in spectra:
            w.setflags(write=False)
            v.setflags(write=False)
        object.__setattr__(self, "block_values", tuple(values))
        object.__setattr__(self, "spectra", spectra)

    def expect(self, a: AlgebraElement) -> complex:
        """Value of the functional on an algebra element."""
        if a.structure.blocks != self.structure.blocks:
            raise ValidationError("element belongs to a different block structure")
        return complex(sum(np.sum(part * v) for part, v in zip(a.parts, self.block_values)))

    def values(self) -> np.ndarray:
        """Values on the standard basis, flattened in block/row-major order."""
        return np.concatenate([v.reshape(-1) for v in self.block_values])

    @classmethod
    def from_canonical(cls, structure: BlockStructure, p: Sequence[float],
                       rhos: Sequence[np.ndarray | None]) -> "StateFunctional":
        """Build from sector weights and per-block density matrices.

        Block i takes the values ``p_i rho_i^T`` and the constructor decides the
        state.  A None block state stands for a weight within ``Cutoff.WEIGHT_FLOOR``
        of zero; a None for a larger |p_i|, or a mis-shaped block state, is a ValidationError.
        """
        p = np.asarray(p, dtype=float)
        if p.shape != (structure.num_blocks,) or len(rhos) != structure.num_blocks:
            raise ValidationError("weights and block states must match the block count")
        if not np.all(np.isfinite(p)):
            raise ValidationError("sector weights must be finite")
        values = []
        for i, ((n, _), w, rho) in enumerate(zip(structure.blocks, p, rhos)):
            if rho is None and abs(w) > Cutoff.WEIGHT_FLOOR:
                raise ValidationError(f"block {i} has weight {float(w)!r} but no block state")
            rho = np.zeros((n, n)) if rho is None else np.asarray(rho, dtype=complex)
            if rho.shape != (n, n):
                raise ValidationError("block state shape does not match block size")
            # value on the (a, b) unit is w * rho[b, a]
            values.append(w * rho.T)
        return cls(structure, tuple(values))


def _values_from_ambient(rho_mat: np.ndarray, structure: BlockStructure) -> tuple[np.ndarray, ...]:
    # value on unit E_ab is Tr(rho (E_ab (x) I_m)) = traced[b, a]
    return tuple(x.T for x in partial_traces(rho_mat, structure))


def state_from_density(rho, structure: BlockStructure) -> StateFunctional:
    """The functional A -> Tr(rho embed(A)) induced by an ambient density matrix.

    Density matrices that agree on the embedded algebra give the same
    functional, so information outside the algebra is deliberately lost here.
    """
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    if rho.dim != structure.ambient_dim:
        raise ValidationError(
            f"density matrix dimension {rho.dim} does not match ambient {structure.ambient_dim}")
    return StateFunctional(structure, _values_from_ambient(rho.matrix, structure))


def representative_density(omega: StateFunctional) -> DensityMatrix:
    """The unique density matrix inside the algebra reproducing the functional.

    It is ``(+)_i (X_i / m_i) (x) I_{m_i}``, assembled from ``omega.spectra``.
    """
    parts = [(v * (w / m)) @ v.conj().T
             for (_, m), (w, v) in zip(omega.structure.blocks, omega.spectra)]
    return DensityMatrix(_assemble(parts, omega.structure))


def active_sectors(omega: StateFunctional,
                   tol: float) -> list[tuple[int, float, np.ndarray, np.ndarray]]:
    """The canonical form ``(+)_i p_i (rho_i (x) I_{m_i} / m_i)`` in spectral terms.

    From ``omega.spectra``, returns ``(i, p_i, spectrum of rho_i, eigenvectors
    of rho_i)`` for each block whose weight ``tr X_i`` exceeds tol, with the
    weights renormalized over those blocks.  A tol that keeps no block is a
    :class:`ValidationError`.
    """
    sums = [float(w.sum()) for w, _ in omega.spectra]
    kept = [(i, s, w, v) for i, (s, (w, v)) in enumerate(zip(sums, omega.spectra)) if s > tol]
    if not kept:
        raise ValidationError(f"tol {tol!r} discards every sector (largest weight {max(sums)!r})")
    total = sum(weight for _, weight, _, _ in kept)
    return [(i, weight / total, w / weight, v) for i, weight, w, v in kept]


def state_from_values(structure: BlockStructure, basis_mats: Sequence[np.ndarray],
                      values: Sequence[complex], tol: float | None = None) -> StateFunctional:
    """Build a state from its values on a declared basis of the embedded algebra.

    The basis must be exactly ``algebra_dim`` linearly independent elements
    of the embedded algebra.  The state with block values V_i takes the value
    ``sum_i sum_ab X_i[a, b] V_i[a, b]`` on ``(+)_i X_i (x) I_{m_i}``, where X_i
    is the element's i-th partial trace over m_i, so the V_i solve one square
    system in block coordinates.  :class:`StateFunctional` decides whether
    the solution is a state.
    """
    tol = resolve_tol(tol, structure.ambient_dim)
    dim, d = structure.algebra_dim, structure.ambient_dim
    mats = [np.asarray(b, dtype=complex) for b in basis_mats]
    vals = np.asarray(values, dtype=complex)
    if len(mats) != dim or vals.shape != (dim,) or any(b.shape != (d, d) for b in mats):
        raise ValidationError(
            f"a basis of the algebra is exactly {dim} matrices of size {d} x {d} with one value "
            f"each; got {len(mats)} matrices and {vals.size} values")
    stack = np.stack(mats)
    res = float(np.max(structure_projection(stack, structure)[1]))
    if res > Cutoff.span(tol):
        raise ValidationError(
            f"declared basis does not lie in the embedded algebra (residual {res:.3e})")
    coeffs = np.concatenate([(x / m).reshape(dim, -1) for x, (_, m) in
                             zip(partial_traces(stack, structure), structure.blocks)], axis=1)
    cond = np.linalg.cond(coeffs)
    if not cond <= Cutoff.CONDITION:
        raise ValidationError(f"declared basis is not linearly independent (condition {cond:.3e})")
    flat = np.linalg.solve(coeffs, vals)
    return StateFunctional(structure, tuple(split_blocks(flat, structure)))


def canonical_form(rho_omega, structure: BlockStructure,
                   tol: float | None = None) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Split an in-algebra density matrix into sector weights and block states.

    Returns ``(p, rhos)`` read off :func:`active_sectors` of the state the
    matrix induces: p_i is the renormalized weight of block i and rhos[i] =
    V diag(lambda) V* its block state, with weight 0.0 and None for a block
    the cutoff drops.  The input must lie in the embedded algebra.
    """
    rho_omega = rho_omega if isinstance(rho_omega, DensityMatrix) else DensityMatrix(rho_omega)
    tol = resolve_tol(tol, structure.ambient_dim)
    res = structure_projection(rho_omega.matrix, structure)[1]
    if res > Cutoff.span(tol):
        raise ValidationError(f"matrix is outside the algebra span (projection residual {res:.3e})")
    p = np.zeros(structure.num_blocks)
    rhos: list[np.ndarray | None] = [None] * structure.num_blocks
    for i, weight, lam, v in active_sectors(state_from_density(rho_omega, structure), tol):
        p[i] = weight
        rhos[i] = (v * lam) @ v.conj().T
    return p, rhos


def is_pure(omega: StateFunctional, tol: float | None = None) -> bool:
    """True iff one sector carries weight and its block state has rank one at the GNS cutoff."""
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    sectors = active_sectors(omega, tol)
    lam = sectors[0][2]
    return bool(len(sectors) == 1 and (lam.size == 1 or lam[1] <= Cutoff.spectral(tol, lam[0])))


@dataclass(frozen=True)
class Decomposition:
    """Convex decomposition of a state into pure states.

    Each component is (weight, block index, unit vector in C^{n_i}); the pure
    state it stands for is the embedded ``|phi><phi| (x) I_m / m`` on its
    block.
    """

    structure: BlockStructure
    components: tuple[tuple[float, int, np.ndarray], ...]

    def __post_init__(self):
        comps = []
        total = 0.0
        for w, i, phi in self.components:
            w = float(w)
            i = int(i)
            if not w > 0:
                raise ValidationError("component weights must be positive")
            if not 0 <= i < self.structure.num_blocks:
                raise ValidationError(f"block index {i} out of range")
            vec = np.asarray(phi, dtype=complex)
            n = self.structure.blocks[i][0]
            if vec.shape != (n,):
                raise ValidationError("component vector does not match its block dimension")
            nrm = float(np.linalg.norm(vec))
            if not abs(nrm - 1.0) <= Cutoff.UNIT_NORM:
                raise ValidationError(f"component vector norm {nrm!r} is not 1")
            total += w
            comps.append((w, i, frozen(vec)))
        if not comps:
            raise ValidationError("a decomposition needs at least one component")
        if not abs(total - 1.0) <= Cutoff.UNIT_NORM:
            raise ValidationError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", tuple(comps))

    def weights(self) -> np.ndarray:
        return np.array([w for w, _, _ in self.components])

    def density(self) -> np.ndarray:
        """Ambient density matrix reconstructed from the components."""
        parts = [np.zeros((n, n), dtype=complex) for n, _ in self.structure.blocks]
        for w, i, phi in self.components:
            parts[i] += w * np.outer(phi, phi.conj()) / self.structure.blocks[i][1]
        return _assemble(parts, self.structure)

    def state(self) -> StateFunctional:
        """The mixed state this decomposition prepares, which the state rule alone decides."""
        return StateFunctional(self.structure, _values_from_ambient(self.density(), self.structure))


def _decomposition(structure: BlockStructure, terms) -> Decomposition:
    """The decomposition of (weight, block index, unit vector) terms: weights at or below
    ``Cutoff.WEIGHT_FLOOR`` are dropped and the rest renormalized by their numpy sum."""
    kept = [(w, i, v) for w, i, v in terms if w > Cutoff.WEIGHT_FLOOR]
    total = np.sum([w for w, _, _ in kept])
    return Decomposition(structure, tuple((w / total, i, v) for w, i, v in kept))

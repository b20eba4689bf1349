"""The GNS representation of a state and the entropy computed through it.

The state defines an inner product ``<A, B> = omega(A* B)`` on the algebra;
quotienting out its null space gives a Hilbert space on which the algebra
acts by left multiplication, with the class of the identity as cyclic
vector.  In GNS coordinates block i acts as ``C_i (x) I_{r_i}``, r_i the
rank of omega_i, so the representation is held in block form and its
blocks are the sectors of the represented algebra.  Reducing the cyclic
vector onto their multiplicity factors reproduces the state entropy by a
second route, which reads the block values through an SVD where the
closed form reads them through an ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (Cutoff, frob, frozen, hermitize, random_isometry, resolve_tol,
                      rng_stream)
from .algebra import BlockStructure, _assemble, _swap_factors, split_blocks, structure_projection
from .entropy import _entropy_of
from .errors import ValidationError
from .states import StateFunctional


@dataclass(frozen=True)
class GnsData:
    """The GNS representation of a state, in block form.

    ``structure`` is the algebra's block structure.  Block ``active[j]`` of
    the algebra, of rank r > 0, acts on the GNS space as C (x) I_r on block
    j of ``gns_structure`` = ((n, r), ...); blocks of rank 0 act as zero.
    ``cyclic`` is the class of the identity, block j read row-major as an
    n x r matrix.
    """

    structure: BlockStructure
    gns_structure: BlockStructure
    active: tuple[int, ...]
    cyclic: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cyclic", frozen(self.cyclic))

    @property
    def dim(self) -> int:
        return self.gns_structure.ambient_dim

    def represent(self, coeffs: np.ndarray) -> np.ndarray:
        """Represented operators pi(C), (..., dim, dim), of basis coefficients (..., algebra_dim)."""
        parts = split_blocks(np.asarray(coeffs, dtype=complex), self.structure)
        return _assemble([parts[i] for i in self.active], self.gns_structure)


def gns_construct(omega: StateFunctional, tol: float | None = None) -> GnsData:
    """Build the GNS representation from the state's raw block values.

    Unit products give <E_ab, E_cd> = delta_ac omega_i(E_bd), so block i of
    the Gram matrix is I_n (x) omega_i, and omega_i = X_i^T with X_i the
    transposed block values.  Each X_i is read through one SVD.  A singular
    triplet (s_k, u_k, v_k) with s_k above ``Cutoff.spectral(tol, scale)``,
    scale the largest singular value over all blocks, and Re <v_k, u_k> > 0
    is an eigenpair (s_k, u_k) of X_i; a triplet whose vectors point
    opposite ways is a negative eigenvalue, which a state has only at
    rounding level, and is dropped.  Each kept pair gives the GNS vectors
    e_a (x) conj(u_k) / sqrt(s_k), on which C acts as C (x) I_r and the
    identity has coordinates u[a, k] sqrt(s_k).  A tol that keeps no
    eigenvalue is a :class:`ValidationError`.
    """
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    svds = [np.linalg.svd(hermitize(x.T)) for x in omega.block_values]
    scale = max(float(s[0]) for _, s, _ in svds)
    cutoff = Cutoff.spectral(tol, scale)
    blocks, active, cyclic = [], [], []
    for i, ((n, _), (u, s, vh)) in enumerate(zip(omega.structure.blocks, svds)):
        keep = (s > cutoff) & (np.einsum("ki,ik->k", vh, u).real > 0)
        if rank := int(keep.sum()):
            blocks.append((n, rank))
            active.append(i)
            cyclic.append((u[:, keep] * np.sqrt(s[keep])).reshape(-1))
    if not active:
        raise ValidationError(f"tol {tol!r} keeps no eigenvalue of the state inner product "
                              f"(cutoff tol * {scale!r})")
    return GnsData(structure=omega.structure, gns_structure=BlockStructure(tuple(blocks)),
                   active=tuple(active), cyclic=np.concatenate(cyclic))


@dataclass(frozen=True)
class GnsSectors:
    """Block data of the represented algebra on the GNS space.

    Weights are the squared norms of the cyclic vector's sector projections
    and ``multiplicity_states`` its normalized reduced states on the
    multiplicity factors.  By the Schmidt decomposition the reduced state on
    a block's irreducible factor has the same nonzero spectrum, so that
    state is not kept.
    """

    structure: BlockStructure
    weights: np.ndarray
    multiplicity_states: tuple[np.ndarray, ...]


def resolve_sectors(g: GnsData) -> GnsSectors:
    """Reduce the cyclic vector onto the sectors of the represented algebra.

    The represented algebra is (+)_j C_j (x) I_r over the GNS blocks (n, r),
    so its sectors are those blocks.  Block j weighs ||Omega_j||^2 and its
    multiplicity state is psi^T conj(psi), psi the block's part Omega_j of
    the cyclic vector read as an n x r matrix and divided by the weight's
    square root.
    """
    weights, mults = [], []
    for sl, (n, r) in zip(g.gns_structure.ambient_slices(), g.gns_structure.blocks):
        part = g.cyclic[sl]
        p = float(np.linalg.norm(part) ** 2)
        weights.append(p)
        psi = part.reshape(n, r) / np.sqrt(p)
        mults.append(psi.T @ psi.conj())
    return GnsSectors(structure=g.gns_structure, weights=frozen(weights, float),
                      multiplicity_states=tuple(map(frozen, mults)))


def gns_commutant_functional(g: GnsData, t: np.ndarray,
                             tol: float | None = None) -> tuple[float, StateFunctional]:
    """Sub-state carved out by a positive commutant operator T with ||T|| <= 1.

    Returns ``(weight, state)`` where ``weight * state(A) = <Omega| T pi(A)
    Omega>``; the leftover ``omega - weight * state`` is again positive.
    """
    tol = resolve_tol(tol, g.dim)
    t = np.asarray(t, dtype=complex)
    if t.shape != (g.dim, g.dim):
        raise ValidationError("operator shape does not match the GNS dimension")
    # each check reads `not defect <= bound`, which a NaN defect fails
    if not frob(t - t.conj().T) <= Cutoff.defect(tol, frob(t)):
        raise ValidationError("operator is not self-adjoint")
    eigs = np.linalg.eigvalsh(hermitize(t))
    if not (-eigs[0] <= Cutoff.eigenvalue(tol) and eigs[-1] - 1.0 <= Cutoff.eigenvalue(tol)):
        raise ValidationError(f"operator spectrum [{eigs[0]:.3e}, {eigs[-1]:.3e}] not within [0, 1]")
    # The commutant of (+)_j C_j (x) I_r is the algebra (+)_j M_r (x) I_n in the swapped order.
    # With P the projection onto it, ||[T, pi(E)]|| = ||[T - P(T), pi(E)]|| <= 2 ||T - P(T)||
    # for every unit E, so half the commutator bound is checked.
    swapped, order = _swap_factors(g.gns_structure)
    if not structure_projection(t[np.ix_(order, order)], swapped)[1] <= Cutoff.span(tol) / 2:
        raise ValidationError("operator does not commute with the represented algebra")
    weight = float((g.cyclic.conj() @ (t @ g.cyclic)).real)
    if weight <= tol:
        raise ValidationError("operator annihilates the cyclic vector; no sub-state")
    # on block j, <Omega| T pi(E_ab) Omega> = (Phi Omega^T)[a, b] with Phi = T^T conj(Omega)
    phi = t.T @ g.cyclic.conj()
    raw = [np.zeros((n, n), dtype=complex) for n, _ in g.structure.blocks]
    for i, sl, (n, r) in zip(g.active, g.gns_structure.ambient_slices(), g.gns_structure.blocks):
        raw[i] = phi[sl].reshape(n, r) @ g.cyclic[sl].reshape(n, r).T / weight
    return weight, StateFunctional(g.structure, tuple(raw))


@dataclass(frozen=True)
class IdentityDecomposition:
    """Per-block resolutions of the identity into weighted rank-one terms.

    ``items`` holds (t, block index, unit vector v in the multiplicity
    factor); within each block the terms satisfy ``sum_j t_j |v_j><v_j| =
    I_m``.
    """

    items: tuple[tuple[float, int, np.ndarray], ...]

    def __post_init__(self):
        by_block: dict[int, list[tuple[float, np.ndarray]]] = {}
        items = []
        for t, i, v in self.items:
            t, i = float(t), int(i)
            vec = np.asarray(v, dtype=complex)
            if not 0.0 < t <= 1.0 + Cutoff.PROBABILITY:
                raise ValidationError(f"weight {t!r} outside (0, 1]")
            if not abs(np.linalg.norm(vec) - 1.0) <= Cutoff.UNIT_NORM:
                raise ValidationError("vectors must be unit norm")
            by_block.setdefault(i, []).append((t, vec))
            items.append((t, i, frozen(vec)))
        for i, terms in by_block.items():
            m = len(terms[0][1])
            acc = np.zeros((m, m), dtype=complex)
            for t, vec in terms:
                acc += t * np.outer(vec, vec.conj())
            if not frob(acc - np.eye(m)) <= Cutoff.identity_defect(m):
                raise ValidationError(f"block {i} terms do not resolve the identity")
        object.__setattr__(self, "items", tuple(items))


def identity_decomposition_random(sectors: GnsSectors, seed: int = 0) -> IdentityDecomposition:
    """Random per-block resolutions of the identity on the multiplicity factors of the sectors.

    Each block i of ``sectors.structure`` gets M_i terms with M_i drawn in
    [m_i, 2 m_i], built from the rows of a random M_i x m_i isometry so the
    resolution is exact.
    """
    rng = rng_stream(seed, 3)
    items = []
    for i, (_, m) in enumerate(sectors.structure.blocks):
        iso = random_isometry(int(rng.integers(m, 2 * m + 1)), m, rng)
        for row in iso.conj():
            t = float(np.linalg.norm(row) ** 2)
            if t <= Cutoff.WEIGHT_FLOOR:
                continue
            items.append((t, i, row / np.sqrt(t)))
    return IdentityDecomposition(tuple(items))


def identity_decomposition_weights(sectors: GnsSectors, idec: IdentityDecomposition) -> np.ndarray:
    """Weights ``t_j <Omega| P_j Omega>`` of the pure decomposition idec induces on the sectors.

    Item (t, i, v) weighs ``t p_i <v| sigma_i |v>``, p_i and sigma_i block i's
    weight and multiplicity state; an item that fits no block is rejected.
    """
    out = []
    for t, i, v in idec.items:
        if not 0 <= i < sectors.structure.num_blocks or len(v) != sectors.structure.blocks[i][1]:
            raise ValidationError(f"item of block {i} with a vector of length {len(v)} "
                                  f"does not fit the sectors {sectors.structure.blocks}")
        sigma = sectors.multiplicity_states[i]
        out.append(t * sectors.weights[i] * float((v.conj() @ (sigma @ v)).real))
    return np.array(out)


def sectors_entropy(sectors: GnsSectors) -> float:
    """State entropy read off the resolved sectors of a GNS representation.

    The sector weights are the squared norms of the cyclic vector's
    projections and the block entropies those of its reduced states on the
    multiplicity factors, which equal those on the irreducible factors.
    """
    p = sectors.weights
    return float(_entropy_of(p) + sum(w * _entropy_of(np.linalg.eigvalsh(sigma))
                                      for w, sigma in zip(p, sectors.multiplicity_states)))


def gns_state_entropy(omega: StateFunctional, tol: float | None = None) -> float:
    """State entropy recomputed through the GNS representation.

    Builds the representation at tol and reads the entropy off its sectors
    with :func:`sectors_entropy`; the result must agree with
    :func:`~cstar_entropy.entropy.closed_form_entropy` at tol.
    """
    return sectors_entropy(resolve_sectors(gns_construct(omega, tol)))


def is_irreducible(g: GnsData) -> bool:
    """True iff the represented algebra has a trivial commutant.

    The commutant is (+)_j I_n (x) M_r over the GNS blocks (n, r), so that
    means a single block of multiplicity one.
    """
    return g.gns_structure.blocks == ((g.dim, 1),)

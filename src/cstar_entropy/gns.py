"""The GNS representation of a state and the entropy computed through it.

The state defines an inner product ``<A, B> = omega(A* B)`` on the algebra;
quotienting out its null space gives a Hilbert space on which the algebra
acts by left multiplication, with the class of the identity as cyclic
vector.  Decomposing that representation into blocks and reducing the cyclic
vector onto the multiplicity factors reproduces the state entropy by a
second, independent route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import frob, frozen, hermitize, random_isometry, resolve_tol, rng_stream
from .algebra import BlockStructure, _discover_span, split_blocks
from .entropy import EntropyReport, _entropy_of
from .errors import NotAStateError, ValidationError
from .states import StateFunctional


@dataclass(frozen=True)
class GnsData:
    """The GNS representation of a state.

    ``quotient`` maps coefficient space onto GNS coordinates, ``embedding``
    is the (state-inner-product) isometry taking them back to representatives,
    and ``cyclic`` is the class of the identity.  No represented operator is
    stored: :meth:`represent` computes them from the two maps.
    """

    structure: BlockStructure
    dim: int
    quotient: np.ndarray
    cyclic: np.ndarray
    embedding: np.ndarray

    def __post_init__(self):
        for name in ("quotient", "cyclic", "embedding"):
            object.__setattr__(self, name, frozen(getattr(self, name)))

    def represent(self, coeffs: np.ndarray) -> np.ndarray:
        """Represented operators pi(C), (..., dim, dim), of basis coefficients (..., algebra_dim).

        Left multiplication by C acts on block i's coefficient rows as
        C_i (x) I, so pi(C) is ``quotient`` times C_i (x) I applied to each
        block's rows of ``embedding``.
        """
        out, off = 0, 0
        for x in split_blocks(np.asarray(coeffs, dtype=complex), self.structure):
            n = x.shape[-1]
            moved = x @ self.embedding[off:off + n * n].reshape(n, -1)
            out = out + self.quotient[:, off:off + n * n] @ moved.reshape(x.shape[:-2] + (n * n, -1))
            off += n * n
        return out

    @property
    def rep_ops(self) -> np.ndarray:
        """Represented matrix units, a read-only (algebra_dim, dim, dim) stack built on demand."""
        return frozen(self.represent(np.eye(self.structure.algebra_dim)))


def _gram_eigh(omega: StateFunctional) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Gram matrix omega(B_k* B_l) over the matrix units.

    Unit products give <E_ab, E_cd> = delta_ac omega(E_bd), so block i of the
    matrix is kron(I_n, omega_i): n copies of omega_i on the diagonal, whose
    eigenvectors are n copies of those of omega_i.
    """
    dim = omega.structure.algebra_dim
    vecs = np.zeros((dim, dim), dtype=complex)
    eigs = np.empty(dim)
    off = 0
    for (n, _), values in zip(omega.structure.blocks, omega.block_values):
        mu, w = np.linalg.eigh(hermitize(values))
        for a in range(off, off + n * n, n):
            vecs[a:a + n, a:a + n] = w
            eigs[a:a + n] = mu
        off += n * n
    return eigs, vecs


def gns_construct(omega: StateFunctional, tol: float | None = None) -> GnsData:
    """Build the GNS Hilbert space, represented operators and cyclic vector."""
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    eigs, vecs = _gram_eigh(omega)
    scale = max(float(eigs.max()), 0.0)
    if eigs.min() < -tol * max(1.0, scale) * 10:
        raise NotAStateError(f"state inner product is not positive (eigenvalue {eigs.min():.3e})")
    keep = eigs > tol * max(scale, 1e-300)
    lam = eigs[keep]
    v = vecs[:, keep]
    dim = int(keep.sum())
    if dim == 0:
        raise NotAStateError("state inner product vanishes identically")
    quotient = (v * np.sqrt(lam)).conj().T      # coefficient space -> GNS coordinates
    embedding = v / np.sqrt(lam)                # GNS coordinates -> representatives
    cyclic = quotient @ np.concatenate([np.eye(n, dtype=complex).reshape(-1)
                                        for n, _ in omega.structure.blocks])
    return GnsData(structure=omega.structure, dim=dim, quotient=quotient,
                   cyclic=cyclic, embedding=embedding)


def _unit_norms(g: GnsData, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Hilbert-Schmidt norms of the represented units, and which of them count as nonzero.

    Left multiplication on the quotient makes the represented units orthogonal:
    Tr pi(E_ab)* pi(E_cd) = delta_ac Tr pi(E_bd), and Tr o pi is a trace on each
    block.  So the nonzero ones are a basis of the represented algebra, and
    ||pi(E_ab)||^2 = Tr pi(E_bb) is the sum over c of the E_bc diagonal entries
    of ``embedding @ quotient``.
    """
    diag = np.einsum("ij,ji->j", g.quotient, g.embedding).real
    norms = np.sqrt(np.concatenate([np.tile(np.sum(x, axis=1), len(x))
                                    for x in split_blocks(diag, g.structure)]))
    return norms, norms > tol * max(1.0, float(np.max(norms)))


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


def resolve_sectors(g: GnsData, tol: float | None = None, seed: int = 0) -> GnsSectors:
    """Block-decompose the represented algebra and reduce the cyclic vector."""
    tol = resolve_tol(tol, g.dim)
    norms, keep = _unit_norms(g, tol)
    units = np.eye(len(norms))[keep] / norms[keep, None]    # an orthonormal basis of the span
    structure, w = _discover_span(lambda c: g.represent(c @ units), len(units), g.dim, tol, seed)
    rotated = w.conj().T @ g.cyclic
    weights, mults = [], []
    for sl, (n, m) in zip(structure.ambient_slices(), structure.blocks):
        part = rotated[sl]
        p = float(np.linalg.norm(part) ** 2)
        weights.append(p)
        psi = part.reshape(n, m) / np.sqrt(p)
        mults.append(psi.T @ psi.conj())
    return GnsSectors(structure=structure, weights=np.array(weights),
                      multiplicity_states=tuple(mults))


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
    if not frob(t - t.conj().T) <= tol * max(1.0, frob(t)) * 10:
        raise ValidationError("operator is not self-adjoint")
    eigs = np.linalg.eigvalsh(hermitize(t))
    if not (-eigs[0] <= tol * 10 and eigs[-1] - 1.0 <= tol * 10):
        raise ValidationError(f"operator spectrum [{eigs[0]:.3e}, {eigs[-1]:.3e}] not within [0, 1]")
    ops = g.rep_ops
    comm = np.linalg.norm(t @ ops - ops @ t, axis=(1, 2))
    if not np.max(comm) <= max(tol * 100, 1e-7):
        raise ValidationError("operator does not commute with the represented algebra")
    weight = float((g.cyclic.conj() @ (t @ g.cyclic)).real)
    if weight <= tol:
        raise ValidationError("operator annihilates the cyclic vector; no sub-state")
    raw = (ops @ g.cyclic) @ (t.T @ g.cyclic.conj())
    return weight, StateFunctional(g.structure, tuple(split_blocks(raw / weight, g.structure)))


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
            if not 0.0 < t <= 1.0 + 1e-9:
                raise ValidationError(f"weight {t!r} outside (0, 1]")
            if not abs(np.linalg.norm(vec) - 1.0) <= 1e-8:
                raise ValidationError("vectors must be unit norm")
            by_block.setdefault(i, []).append((t, vec))
            items.append((t, i, frozen(vec)))
        for i, terms in by_block.items():
            m = len(terms[0][1])
            acc = np.zeros((m, m), dtype=complex)
            for t, vec in terms:
                acc += t * np.outer(vec, vec.conj())
            if not frob(acc - np.eye(m)) <= 1e-8 * m:
                raise ValidationError(f"block {i} terms do not resolve the identity")
        object.__setattr__(self, "items", tuple(items))


def identity_decomposition_random(sectors: GnsSectors, seed: int = 0,
                                  sizes: dict[int, int] | None = None) -> IdentityDecomposition:
    """Random per-block resolutions of the identity on the multiplicity factors of the sectors.

    Each block i of ``sectors.structure`` gets M_i terms with M_i drawn in
    [m_i, 2 m_i] (overridable through ``sizes``), built from the rows of a
    random isometry so the resolution is exact.  With M_i = m_i the rows
    form an orthonormal basis and every weight is 1.
    """
    rng = rng_stream(seed, 3)
    items = []
    for i, (_, m) in enumerate(sectors.structure.blocks):
        count = sizes.get(i) if sizes else None
        if count is None:
            count = int(rng.integers(m, 2 * m + 1))
        if count < m:
            raise ValidationError(f"block {i} needs at least {m} terms")
        iso = random_isometry(count, m, rng)
        for row in iso.conj():
            t = float(np.linalg.norm(row) ** 2)
            if t <= 1e-12:
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


def sectors_entropy(sectors: GnsSectors) -> EntropyReport:
    """Entropy report read off the resolved sectors of a GNS representation.

    The sector weights are the squared norms of the cyclic vector's
    projections and the block entropies those of its reduced states on the
    multiplicity factors, which equal those on the irreducible factors.
    """
    p = sectors.weights
    sector_entropy = _entropy_of(p)
    mean = 0.0
    vn = 0.0
    mult = 0.0
    for w, sigma, (_, m) in zip(p, sectors.multiplicity_states, sectors.structure.blocks):
        block = _entropy_of(np.linalg.eigvalsh(sigma))
        mean += w * block
        vn += w * (block + np.log(m))
        mult += w * np.log(m)
    return EntropyReport(
        state_entropy=sector_entropy + mean,
        sector_entropy=sector_entropy,
        mean_block_entropy=mean,
        vn_of_representative=sector_entropy + vn,
        multiplicity_term=mult,
    )


def gns_state_entropy(omega: StateFunctional, tol: float | None = None,
                      seed: int = 0) -> EntropyReport:
    """State entropy recomputed through the GNS representation.

    Builds the representation, resolves its sectors and reads the report off
    them with :func:`sectors_entropy`; the result must agree with the
    closed-form entropy.
    """
    tol = resolve_tol(tol, omega.structure.ambient_dim)
    g = gns_construct(omega, tol)
    return sectors_entropy(resolve_sectors(g, tol=tol, seed=seed))


def is_irreducible(g: GnsData, tol: float | None = None) -> bool:
    """True iff the represented algebra has a trivial commutant.

    Equivalent test: an irreducibly acting *-algebra is the full matrix
    algebra, so dim^2 of the represented units must be nonzero.
    """
    tol = resolve_tol(tol, g.dim)
    return int(np.count_nonzero(_unit_norms(g, tol)[1])) == g.dim * g.dim

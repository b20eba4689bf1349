"""Finite-dimensional operator algebras as block structures.

A finite-dimensional *-algebra of matrices is, up to a unitary change of
basis, a direct sum of full matrix blocks M_n repeated with multiplicities:
``(+)_i M_{n_i} (x) I_{m_i}``.  This module constructs such algebras
abstractly, embeds them as concrete matrices, and recovers the block
structure (and the change-of-basis unitary W) of a numerically given matrix
*-algebra from the eigenspaces of one generic element, grouped by how a
second one couples them (Murota, Kanno, Kojima & Kojima, 2010), without
computing the center.  The algebra is read only through random elements:
one given by generators S draws them as products of two random elements of
span{I, S, S*}, with no basis and no closure under words, and one given by an
orthonormal basis is split as the algebra that one random combination of the
basis generates.  A generated algebra is held in block form, as its structure
and W, and its commutant is read off the same W with the two tensor factors
swapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._linalg import (
    Cutoff,
    check_int,
    check_tol,
    complex_gaussian,
    frob,
    frozen,
    hermitize,
    resolve_tol,
    rng_stream,
)
from .errors import DecompositionError, ValidationError


@dataclass(frozen=True)
class BlockStructure:
    """Ordered list of blocks (n, m) of positive integers: block dimension n with multiplicity m.

    The ambient Hilbert space is ``(+)_i C^{n_i} (x) C^{m_i}`` with the
    algebra acting as ``X_i (x) I_{m_i}`` on block i.
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        blocks = tuple((check_int(n, "block dimension", 1), check_int(m, "block multiplicity", 1))
                       for n, m in self.blocks)
        if not blocks:
            raise ValidationError("a block structure needs at least one block")
        object.__setattr__(self, "blocks", blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def ambient_dim(self) -> int:
        return sum(n * m for n, m in self.blocks)

    @property
    def algebra_dim(self) -> int:
        return sum(n * n for n, m in self.blocks)

    def ambient_slices(self) -> list[slice]:
        """Slice of the ambient space occupied by each block."""
        out, off = [], 0
        for n, m in self.blocks:
            out.append(slice(off, off + n * m))
            off += n * m
        return out


def make_algebra(blocks: Sequence[tuple[int, int]]) -> BlockStructure:
    """Validate and build a BlockStructure from (n, m) pairs."""
    return BlockStructure(tuple(tuple(b) for b in blocks))


@dataclass(frozen=True)
class AlgebraElement:
    """One complex n_i x n_i matrix per block of a BlockStructure."""

    structure: BlockStructure
    parts: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.parts) != self.structure.num_blocks:
            raise ValidationError("one part per block required")
        parts = []
        for (n, _), part in zip(self.structure.blocks, self.parts):
            arr = np.asarray(part, dtype=complex)
            if arr.shape != (n, n):
                raise ValidationError(f"part of shape {arr.shape} does not match block size {n}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError("part has non-finite entries")
            parts.append(frozen(arr))
        object.__setattr__(self, "parts", tuple(parts))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.structure, tuple(a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.structure, tuple(a - b for a, b in zip(self.parts, other.parts)))

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.structure, tuple(scalar * a for a in self.parts))

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Algebra product, computed blockwise."""
        self._check_same(other)
        return AlgebraElement(self.structure, tuple(a @ b for a, b in zip(self.parts, other.parts)))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.structure, tuple(a.conj().T for a in self.parts))

    def is_selfadjoint(self, tol: float = Cutoff.TOL) -> bool:
        tol = check_tol(tol)
        return all(frob(a - a.conj().T) <= tol * max(1.0, frob(a)) for a in self.parts)

    def _check_same(self, other: "AlgebraElement") -> None:
        if other.structure.blocks != self.structure.blocks:
            raise ValidationError("elements belong to different block structures")


def identity(structure: BlockStructure) -> AlgebraElement:
    return AlgebraElement(structure, tuple(np.eye(n) for n, _ in structure.blocks))


def random_element(structure: BlockStructure, rng: np.random.Generator) -> AlgebraElement:
    return AlgebraElement(structure,
                          tuple(complex_gaussian((n, n), rng) for n, _ in structure.blocks))


def _assemble(parts: Sequence[np.ndarray], structure: BlockStructure) -> np.ndarray:
    """The block matrix ``(+)_i X_i (x) I_{m_i}`` from parts of shape (..., n_i, n_i).

    Leading axes are stacked: parts of shape (k, n_i, n_i) give (k, d, d).
    The inverse, up to the factors m_i, is :func:`partial_traces`.
    """
    d = structure.ambient_dim
    out = np.zeros(parts[0].shape[:-2] + (d, d), dtype=complex)
    for sl, (n, m), x in zip(structure.ambient_slices(), structure.blocks, parts):
        # the Kronecker product x (x) I_m: entry [(a, j), (b, k)] is x[a, b] * I[j, k]
        out[..., sl, sl] = (x[..., :, None, :, None] * np.eye(m)[:, None, :]).reshape(
            x.shape[:-2] + (n * m, n * m))
    return out


def embed(a: AlgebraElement) -> np.ndarray:
    """Embed an element as the block matrix ``(+)_i X_i (x) I_{m_i}``."""
    return _assemble(a.parts, a.structure)


def split_blocks(flat: np.ndarray, structure: BlockStructure) -> list[np.ndarray]:
    """Per-block parts (..., n_i, n_i) of standard-basis coefficients (..., algebra_dim)."""
    out, start = [], 0
    for n, _ in structure.blocks:
        out.append(flat[..., start:start + n * n].reshape(flat.shape[:-1] + (n, n)))
        start += n * n
    return out


def partial_traces(mat: np.ndarray, structure: BlockStructure) -> list[np.ndarray]:
    """Trace over the multiplicity factor of each diagonal block.

    Block i of the ambient matrix, read as an operator on C^{n_i} (x) C^{m_i},
    gives the n_i x n_i matrix ``sum_j M[(a, j), (b, j)]``.  Leading axes of
    a stack (..., d, d) are kept.
    """
    lead = mat.shape[:-2]
    return [np.einsum("...ajbj->...ab", mat[..., sl, sl].reshape(lead + (n, m, n, m)))
            for sl, (n, m) in zip(structure.ambient_slices(), structure.blocks)]


def structure_projection(mat: np.ndarray,
                         structure: BlockStructure) -> tuple[np.ndarray, float | np.ndarray]:
    """Orthogonal projection of a matrix, or a stack (..., d, d), onto the embedded algebra.

    Returns the nearest matrix of the form ``(+)_i X_i (x) I_{m_i}`` in the
    Hilbert-Schmidt sense, together with the Frobenius residual: a float for
    a single matrix, an array of shape (...) for a stack.
    """
    mat = np.asarray(mat, dtype=complex)
    d = structure.ambient_dim
    if mat.ndim < 2 or mat.shape[-2:] != (d, d):
        raise ValidationError(f"matrix shape {mat.shape} does not match ambient dimension {d}")
    proj = _assemble([x / m for x, (_, m) in zip(partial_traces(mat, structure), structure.blocks)],
                     structure)
    res = np.linalg.norm(mat - proj, axis=(-2, -1))
    return proj, float(res) if mat.ndim == 2 else res


def _swap_factors(structure: BlockStructure) -> tuple[BlockStructure, np.ndarray]:
    """The structure ((m_i, n_i)) and the order listing block i's coordinates (a, j) as (j, a):
    reordered by it, the commutant ``(+)_i I_{n_i} (x) M_{m_i}`` reads ``(+)_i M_{m_i} (x) I_{n_i}``."""
    order = np.concatenate([sl.start + np.arange(n * m).reshape(n, m).T.reshape(-1)
                            for sl, (n, m) in zip(structure.ambient_slices(), structure.blocks)])
    return BlockStructure(tuple((m, n) for n, m in structure.blocks)), order


@dataclass(frozen=True)
class SubalgebraBasis:
    """The unital matrix *-algebra ``W ((+)_i M_{n_i} (x) I_{m_i}) W*`` on C^d, in block form:
    the structure and a read-only unitary W, whose columns are the blocks' coordinates (a, j)."""

    structure: BlockStructure
    w: np.ndarray

    def __post_init__(self):
        d = self.structure.ambient_dim
        w = frozen(self.w)
        if w.shape != (d, d):
            raise ValidationError(f"W of shape {w.shape} does not match ambient dimension {d}")
        # written `not defect <= bound`, which a NaN defect fails
        if not frob(w.conj().T @ w - np.eye(d)) <= Cutoff.identity_defect(d):
            raise ValidationError("W is not unitary")
        object.__setattr__(self, "w", w)

    @property
    def ambient_dim(self) -> int:
        return self.structure.ambient_dim

    @property
    def dim(self) -> int:
        return self.structure.algebra_dim

    @property
    def basis(self) -> np.ndarray:
        """Hilbert-Schmidt-orthonormal basis ``W (E_ab (x) I_{m_i}) W* / sqrt(m_i)``, block by
        block, row-major: a read-only (dim, d, d) stack, built on each call."""
        d = self.ambient_dim
        out = np.empty((self.dim, d, d), dtype=complex)
        start = 0
        for sl, (n, m) in zip(self.structure.ambient_slices(), self.structure.blocks):
            cols = self.w[:, sl].reshape(d, n, m)
            units = out[start:start + n * n].reshape(n, n, d, d)
            np.einsum("xap,ybp->abxy", cols, cols.conj(), out=units)
            units /= np.sqrt(m)
            start += n * n
        out.setflags(write=False)
        return out


def _letters(generators: Sequence[np.ndarray]) -> np.ndarray:
    """The letters S/||S||_F of the nonzero generators S, one (k, d, d) stack; their
    adjoints are not listed, since an adjoint's residual is the letter's own."""
    if not len(generators):
        raise ValidationError("generator set must be nonempty")
    mats = [np.asarray(g, dtype=complex) for g in generators]
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1 \
            or any(g.shape != shape for g in mats):
        raise ValidationError("generators must be square matrices of equal size")
    letters = np.stack(mats)
    if not np.all(np.isfinite(letters)):
        raise ValidationError("generators must have finite entries")
    norms = np.linalg.norm(letters, axis=(1, 2))
    return letters[norms > 0] / norms[norms > 0, None, None]


def _residual(mats: np.ndarray, structure: BlockStructure, w: np.ndarray) -> float:
    """Largest Frobenius residual of W* X W against the structure, over a stack of X.

    The projection P onto the structure is Hilbert-Schmidt orthogonal onto a
    *-closed algebra, so P(Y*) = P(Y)* and X* has the same residual as X.
    """
    return float(np.max(structure_projection(w.conj().T @ mats @ w, structure)[1], initial=0.0))


def generator_residual(generators: Sequence[np.ndarray], sub: SubalgebraBasis) -> float:
    """Largest relative residual ``||W* S W - P(W* S W)||_F / ||S||_F`` over the generators S,
    P the projection onto sub's structure (:func:`structure_projection`).  An adjoint S* has
    the same residual as S, so the maximum also covers the adjoints."""
    return _residual(_letters(generators), sub.structure, sub.w)


def generate_subalgebra(generators: Sequence[np.ndarray], tol: float = Cutoff.TOL,
                        seed: int = 0) -> SubalgebraBasis:
    """The smallest unital *-algebra A containing the generators, in block form.

    Returns the structure and W of A, without a basis of A, and of dimension
    ``sum n_i^2``.  A product of two random elements of span{I, S, S*} lies
    in A (MeatAxe-style sampling: Holt & Rees, 1994), and the split draws
    its two generic elements H (hermitized) and B that way; nothing is
    closed under words.  The split ``D = W ((+)_i M_{n_i} (x) I_{m_i}) W*``
    is certified equal to A by: (i) every generator projects into D within
    ``Cutoff.certificate(tol)`` relative to its Frobenius norm, and so does
    its adjoint, whose residual is the same as D is *-closed, so A is in
    D; (ii) in each block, H has n_i eigenvalue clusters that B's coupling
    graph connects, so A acts irreducibly on it, and (iii) distinct blocks
    carry disjoint H spectra, so no two are equivalent; by the density
    theorem D is then in A.  Checks (ii) and (iii) hold by construction,
    as do the law ``sum n_i m_i = d``, the unitarity of W and the alignment
    of the multiplicity spaces.  ``tol`` is the relative eigenvalue-cluster
    gap, not a rank cutoff.  A degenerate draw or a failed certificate is
    retried: up to 8 attempts run, attempt k on ``rng_stream(seed, 2, k)``,
    and when none passes a :class:`DecompositionError` carries the smallest
    residual checked.
    """
    letters = _letters(generators)
    d = letters.shape[-1]
    tol = resolve_tol(tol, d)
    # the span I / sqrt(d), the letters and their adjoints, flattened to (k, d^2) rows
    span = np.concatenate([np.eye(d, dtype=complex)[None] / np.sqrt(d), letters,
                           letters.conj().transpose(0, 2, 1)]).reshape(-1, d * d)

    def sample(rng: np.random.Generator) -> np.ndarray:
        # a product of two random complex combinations of the span
        x, y = (complex_gaussian((2, len(span)), rng) @ span).reshape(2, d, d)
        return x @ y

    residuals = []
    for attempt in range(8):
        try:
            sub = _split_attempt(sample, d, tol, rng_stream(seed, 2, attempt))
        except _Retry:
            continue
        residual = _residual(letters, sub.structure, sub.w)
        if residual <= Cutoff.certificate(tol):
            return sub
        residuals.append(residual)
    raise DecompositionError("block decomposition failed verification after retries",
                             residual=min(residuals, default=None))


def commutant(sub: SubalgebraBasis) -> SubalgebraBasis:
    """The commutant {X : X A = A X for every A in sub}, in block form.

    The commutant of ``W ((+)_i M_{n_i} (x) I_{m_i}) W*`` is
    ``W ((+)_i I_{n_i} (x) M_{m_i}) W*`` (Davidson, 1996), the algebra of
    the structure ((m_i, n_i)) under W with each block's coordinates
    (a, j) listed as (j, a).  Its basis is ``W (I_{n_i} (x) E_pq) W* /
    sqrt(n_i)``, of dimension ``sum m_i^2``.  Nothing is discovered, and
    ``commutant(commutant(sub))`` returns sub's blocks and W.
    """
    swapped, order = _swap_factors(sub.structure)
    return SubalgebraBasis(swapped, sub.w[:, order])


class _Retry(Exception):
    """A degenerate draw: the attempt is repeated with fresh randomness."""


def _split_attempt(sample: Callable[[np.random.Generator], np.ndarray], d: int, tol: float,
                   rng: np.random.Generator) -> SubalgebraBasis:
    # A generic self-adjoint element is (+)_i X_i (x) I_{m_i} with simple,
    # mutually distinct spectra, so its eigenvalue clusters are the spaces
    # e (x) C^{m_i}, one per eigenvalue of each X_i: the runs of sorted
    # eigenvalues whose adjacent gaps are below tol times the spectral scale.
    lam, v = np.linalg.eigh(hermitize(sample(rng)))
    bounds = np.flatnonzero(np.concatenate(
        ([True], lam[1:] - lam[:-1] > Cutoff.spectral(tol, np.abs(lam).max()), [True])))
    starts, dims = bounds[:-1], np.diff(bounds)

    # A generic element B compresses to zero between clusters of different
    # blocks and to a nonzero multiple of a unitary between clusters of one
    # block, so the blocks are the connected components of the coupling graph:
    # its reflexive closure, squared until it stops growing, relates two
    # clusters iff they lie in one block, and names each block by its first.
    b = sample(rng)
    comp = v.conj().T @ b @ v
    sq = np.add.reduceat(np.add.reduceat(np.abs(comp) ** 2, starts, axis=0), starts, axis=1)
    reach = (np.sqrt(sq + sq.T) > Cutoff.coupling(tol, frob(b))) | np.eye(len(starts), dtype=bool)
    while ((grown := reach @ reach) != reach).any():
        reach = grown
    first_of = reach.argmax(axis=1)
    if (dims != dims[first_of]).any():
        raise _Retry()

    sectors = []
    block_of_row = first_of.repeat(dims)
    for first in np.flatnonzero(first_of == np.arange(len(starts))):
        m, start = int(dims[first]), starts[first]
        # Align the multiplicity spaces by the compressions R_a = Q_a* B Q_first,
        # which must be nonzero multiples of unitaries: a cluster that couples to
        # the block's first only through others has a compression below
        # ALIGN_SCALE, and the draw is retried.  With R_a = U diag(s) V*, the
        # defect of R_a / scale_a from a unitary has eigenvalues s^2/scale^2 - 1.
        # The polar factor U V* is unitary to rounding, so W stays unitary.
        rows = np.flatnonzero(block_of_row == first)
        u, s, vh = np.linalg.svd(comp[rows, start:start + m].reshape(-1, m, m))
        scale = np.sqrt((s * s).sum(axis=1) / m)
        if scale.min() < Cutoff.ALIGN_SCALE:
            raise _Retry()
        defect = (s / scale[:, None]) ** 2 - 1
        if np.sqrt((defect * defect).sum(axis=1).max()) > Cutoff.ALIGN_DEFECT:
            raise _Retry()
        cols = np.einsum("xam,amk->xak", v[:, rows].reshape(d, -1, m), u @ vh).reshape(d, -1)
        sectors.append((len(s), m, lam[start], cols))

    # Deterministic output order: big blocks first, then A's lowest eigenvalue
    # in the block (fixed for a fixed seed).
    sectors.sort(key=lambda s: (-s[0], -s[1], s[2]))
    blocks = tuple((n, m) for n, m, _, _ in sectors)
    w = np.concatenate([cols for *_, cols in sectors], axis=1)
    try:  # SubalgebraBasis checks W*W against Cutoff.identity_defect(d)
        return SubalgebraBasis(BlockStructure(blocks), w)
    except ValidationError:
        raise _Retry() from None


def block_decompose(basis: np.ndarray, tol: float = Cutoff.TOL,
                    seed: int = 0) -> SubalgebraBasis:
    """Recover the block structure of a matrix *-algebra given by an orthonormal basis.

    ``basis`` is a (k, d, d) stack whose Gram matrix is I_k within ``Cutoff.gram(k)``; an
    empty, ragged, non-finite or non-orthonormal stack, or a span without the identity, is
    a :class:`ValidationError`.  Returns the span A as a :class:`SubalgebraBasis`, whose W
    conjugates it to ``(+)_i M_{n_i} (x) I_{m_i}``.  One generic element x of a
    finite-dimensional C*-algebra generates it (Davidson, 1996), so A is split by
    :func:`generate_subalgebra` of x, a random combination of the basis, into the
    algebra D that x generates, which lies in A if A is closed.  D is certified equal
    to A by the dimension law ``dim D = k`` and the projection residuals of two fresh
    random elements of A, each at most ``Cutoff.certificate(tol)``, so A is in D; a
    span that fails either raises :class:`DecompositionError`.  The three elements
    are drawn from ``rng_stream(seed, 4)``, and the split from the streams of
    :func:`generate_subalgebra` with the same seed.
    """
    try:
        mats = np.asarray(basis, dtype=complex)
    except (TypeError, ValueError):  # a ragged stack, or entries that are not numbers
        raise ValidationError("basis matrices must be square of the ambient dimension") from None
    if not mats.size:
        raise ValidationError("a subalgebra basis cannot be empty")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValidationError("basis matrices must be square of the ambient dimension")
    k, d = len(mats), mats.shape[-1]
    rows = mats.reshape(k, -1)
    # written `not defect <= bound`, which a NaN or infinite entry fails
    if not frob(rows @ rows.conj().T - np.eye(k)) <= Cutoff.gram(k):
        raise ValidationError("basis is not orthonormal under the Hilbert-Schmidt inner product")
    tol = resolve_tol(tol, d)
    vec_id = np.eye(d, dtype=complex).reshape(-1)
    if not frob(vec_id - (rows.conj() @ vec_id) @ rows) <= Cutoff.identity_in_span(tol, np.sqrt(d)):
        raise ValidationError("subalgebra must contain the identity (unital closure)")
    x, *fresh = np.tensordot(complex_gaussian((3, k), rng_stream(seed, 4)), mats, axes=1)
    sub = generate_subalgebra([x], tol, seed)
    # With unit-variance coefficients the expected squared residual of a fresh
    # element is the sum of the basis elements' squared residuals.
    residual = _residual(np.stack(fresh) / np.sqrt(2), sub.structure, sub.w)
    if sub.dim != k or residual > Cutoff.certificate(tol):
        raise DecompositionError(f"the span of {k} basis matrices is not closed: one element of "
                                 f"it generates blocks {sub.structure.blocks} of dimension "
                                 f"{sub.dim}", residual=residual)
    return sub

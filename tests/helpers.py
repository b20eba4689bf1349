"""Shared generators for randomized tests."""

import numpy as np

import cstar_entropy as ce
from cstar_entropy._linalg import Cutoff, random_isometry, resolve_tol
from cstar_entropy.algebra import _assemble, split_blocks
from cstar_entropy.entropy import _entropy_of
from cstar_entropy.errors import ValidationError
from cstar_entropy.states import active_sectors


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """The tests' input stream: Philox keyed by seed, with up to three key parts as the counter.

    Test inputs come from here, not from the package's ``rng_stream``, so they
    stay put when the package's streams change.
    """
    counter = np.zeros(4, dtype=np.uint64)
    for i, k in enumerate(reversed(key)):
        counter[3 - i] = np.uint64(int(k) & 0xFFFF_FFFF_FFFF_FFFF)
    return np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1), counter=counter))


def random_structure(rng, max_ambient=12, max_blocks=3, multiplicities=True):
    """A random block structure with ambient dimension bounded by max_ambient."""
    blocks = []
    total = 0
    for _ in range(int(rng.integers(1, max_blocks + 1))):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3)) if multiplicities else 1
        if total + n * m > max_ambient:
            break
        blocks.append((n, m))
        total += n * m
    if not blocks:
        blocks = [(int(rng.integers(1, 4)), 1)]
    return ce.make_algebra(blocks)


def random_block_density(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_state(rng, structure, min_weight=0.0):
    """A random faithful-ish state; sector weights can be bounded from below."""
    k = structure.num_blocks
    p = rng.dirichlet(np.ones(k))
    if min_weight:
        p = (1.0 - k * min_weight) * p + min_weight
    rhos = [random_block_density(rng, n) for n, _ in structure.blocks]
    return ce.StateFunctional.from_canonical(structure, p, rhos)


def random_pure_state(rng, structure, block=None):
    k = structure.num_blocks
    i = int(rng.integers(k)) if block is None else block
    n = structure.blocks[i][0]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    p = np.zeros(k)
    p[i] = 1.0
    rhos = [None] * k
    rhos[i] = np.outer(v, v.conj())
    return ce.StateFunctional.from_canonical(structure, p, rhos)


def random_ambient_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def riesz_representative(basis_mats, values):
    """Element of the span of basis_mats representing a functional (generic Gram solve).

    Returns the unique X in the span with Tr(X' B_k) = values[k] for every k,
    X' the adjoint.  The library reads the representative off the block
    values in closed form; this ambient solve is the independent reference.
    """
    mats = np.stack([np.asarray(b, dtype=complex) for b in basis_mats])
    gram = np.einsum("kab,lab->kl", mats.conj(), mats)
    coeffs = np.linalg.solve(gram, np.asarray(values, dtype=complex).conj())
    return np.tensordot(coeffs, mats, axes=1)


def conjugated_algebra_generators(rng, structure, count=2):
    """Generators of a unitarily rotated copy of the embedded algebra."""
    v = random_isometry(structure.ambient_dim, structure.ambient_dim, rng)
    return [v @ ce.embed(ce.random_element(structure, rng)) @ v.conj().T
            for _ in range(count)]


def multiplicity_free(structure):
    """The companion structure with every multiplicity set to 1."""
    return ce.make_algebra([(n, 1) for n, _ in structure.blocks])


def embedded_standard_basis(structure):
    """Embedded matrix units E_ab, shape (algebra_dim, d, d), block by block, row-major."""
    return _assemble(split_blocks(np.eye(structure.algebra_dim), structure), structure)


def standard_basis(structure):
    """Matrix-unit basis of the abstract algebra, block by block, row-major: the elements
    :func:`embedded_standard_basis` embeds, in its order."""
    out = []
    for i, (n, _) in enumerate(structure.blocks):
        for a in range(n):
            for b in range(n):
                parts = [np.zeros((nn, nn)) for nn, _ in structure.blocks]
                parts[i][a, b] = 1.0
                out.append(ce.AlgebraElement(structure, tuple(parts)))
    return out


def decomposition_entropy_split(dec):
    """Split of a decomposition's entropy into sector mixing and within-block parts.

    Returns ``(H(p), sum_i p_i H(v_i))`` where p groups the weights by block;
    the two parts add up to the total entropy.
    """
    by_block = {}
    for w, i, _ in dec.components:
        by_block.setdefault(i, []).append(w)
    p = np.array([sum(ws) for ws in by_block.values()])
    within = sum(sum(ws) * _entropy_of(np.array(ws)) for ws in by_block.values())
    return _entropy_of(p), within


def convex_combine(states, weights):
    """Value-wise mixture of states over one algebra."""
    if not states:
        raise ValidationError("need at least one state")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(states),) or np.any(w < -Cutoff.WEIGHT_FLOOR) \
            or abs(w.sum() - 1.0) > Cutoff.PROBABILITY:
        raise ValidationError("weights must form a probability vector matching the states")
    structure = states[0].structure
    for s in states[1:]:
        if s.structure.blocks != structure.blocks:
            raise ValidationError("states belong to different block structures")
    values = []
    for i, (n, _) in enumerate(structure.blocks):
        acc = np.zeros((n, n), dtype=complex)
        for wk, s in zip(w, states):
            acc += wk * s.block_values[i]
        values.append(acc)
    return ce.StateFunctional(structure, tuple(values))


def sectors_connectable(omega_a, omega_b, tol=None):
    """Whether two pure states over one algebra can be transformed into each other physically.

    True iff their supporting sectors coincide; pure states of different
    sectors are separated by a superselection rule.
    """
    if omega_a.structure.blocks != omega_b.structure.blocks:
        raise ValidationError("states belong to different block structures")
    tol = resolve_tol(tol, omega_a.structure.ambient_dim)
    supports = []
    for name, omega in (("first", omega_a), ("second", omega_b)):
        if not ce.is_pure(omega, tol):
            raise ValidationError(f"{name} state is not pure")
        supports.append(active_sectors(omega, tol)[0][0])
    return supports[0] == supports[1]


def closure_defect(basis):
    """Largest residual of products and adjoints of an orthonormal (k, d, d) stack's
    elements against its span."""
    rows = basis.reshape(len(basis), -1)
    worst = 0.0
    for a in basis:
        cmat = np.concatenate([a.conj().T[None], a @ basis]).reshape(-1, rows.shape[1])
        res = cmat - (cmat @ rows.conj().T) @ rows
        worst = max(worst, float(np.max(np.linalg.norm(res, axis=1))))
    return worst


__all__ = [
    "random_isometry",
    "rng_stream",
    "random_structure",
    "random_block_density",
    "random_state",
    "random_pure_state",
    "random_ambient_density",
    "riesz_representative",
    "conjugated_algebra_generators",
    "multiplicity_free",
    "embedded_standard_basis",
    "standard_basis",
    "convex_combine",
    "sectors_connectable",
    "decomposition_entropy_split",
    "closure_defect",
]

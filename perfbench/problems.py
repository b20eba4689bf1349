"""Seeded problem generator for the benchmark workloads.

Every problem is a JSON file in the format the ``cstar-entropy`` CLI reads,
together with a reference computed here with numpy alone from the generating
data (sector weights, block states, block structure), never by calling the
package under test.

A workload is a fixed *deck* of slots.  Each slot fixes the rung, the block
structure and the state form; the seed only draws the random content (Haar
rotations, block states, multiplicity states, weights) and the order of the
deck.  So every seed has the same cost profile and the rung mix is exact:
14 small, 2 mid and 4 top slots out of 20 put the median inside the small
rung (at 50 % of a 0-70 % band) and the 90th percentile inside the top rung
(at 90 % of an 80-100 % band), away from either boundary.  Within a rung
the percentile also keeps off the edge between two block structures, where
it would read the slowest command of one and the fastest of the next:
where the small rung's structures differ in cost, its costliest structure
fills 8 of its 14 slots (the 30-70 % band), so the median is the middle of
one structure's commands.  The top rung is one structure.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

MAIN_SEED = 1
HOLDOUT_SEED = 7919

# (rung, blocks, form); form picks the state encoding or the special case.
DECKS = {
    # entropy on generator-form files: the only path through generate_subalgebra.
    "discover": (
        [("small", ((2, 2), (1, 1)), "density")] * 2
        + [("small", ((3, 1), (2, 2)), "density")] * 2
        + [("small", ((2, 2), (2, 1), (1, 2)), "density")] * 2
        + [("small", ((3, 2), (2, 2), (1, 2)), "density")] * 8
        + [("mid", ((4, 2), (3, 2), (2, 1)), "density")] * 2
        + [("top", ((6, 2), (4, 2), (3, 1)), "density")] * 4
    ),
    # oracle on canonical-form files like acceptance criterion 1; the top rung is the
    # ROADMAP's oracle row, blocks (3,2),(2,1),(1,1) at 10^4 samples.
    "certify": (
        [("small", ((2, 1), (1, 2)), 1000)] * 2
        + [("small", ((3, 1), (2, 2)), 1000)] * 2
        + [("small", ((3, 2), (1, 1)), 1000)] * 2
        + [("small", ((2, 2), (1, 1), (1, 2)), 1000)] * 8
        + [("mid", ((3, 2), (2, 1), (1, 1)), 2000)] * 2
        + [("top", ((3, 2), (2, 1), (1, 1)), 10_000)] * 4
    ),
    # gns on explicit-block canonical files: block_decompose on the represented algebra.
    "cross_check": (
        [("small", ((2, 1), (1, 2)), "canonical")] * 2
        + [("small", ((3, 1), (1, 1)), "pure")] * 2
        + [("small", ((4, 1), (1, 1)), "pure")] * 2
        + [("small", ((3, 2), (2, 1), (1, 1)), "canonical")] * 8
        + [("mid", ((4, 1), (3, 2), (1, 1)), "canonical")] * 2
        + [("top", ((5, 1), (4, 2), (2, 1), (1, 1)), "canonical")] * 4
    ),
    # entropy on explicit-block files: states/entropy dominate, no closure.
    "closed_form": (
        [("small", ((3, 2), (2, 1)), "density")] * 2
        + [("small", ((4, 1), (2, 2), (1, 1)), "density")] * 2
        + [("small", ((2, 3), (3, 1)), "density")] * 2
        + [("small", ((4, 2), (2, 1)), "density")] * 2
        + [("small", ((3, 2), (2, 2), (1, 2)), "density")] * 2
        + [("small", ((3, 2), (2, 1)), "values")] * 2
        + [("small", ((2, 2), (2, 1), (1, 2)), "values")] * 2
        + [("mid", ((8, 2), (4, 1)), "density")] * 2
        + [("top", ((16, 2), (8, 1)), "density")] * 4
    ),
}

# The subcommand each workload issues.
COMMANDS = {"discover": "entropy", "certify": "oracle",
            "cross_check": "gns", "closed_form": "entropy"}


@dataclass
class Problem:
    """One generated problem file, its CLI arguments and its reference values."""

    slot: int
    rung: str
    path: str
    argv: list[str]
    blocks: tuple[tuple[int, int], ...]
    s_ref: float           # H(p) + sum_i p_i S_VN(rho_i), in nats
    mult_ref: float        # sum_i p_i log m_i
    pure: bool
    gns_dim: int           # sum_i n_i rank(rho_i) over weighted blocks
    samples: int | None = None
    digest: str = ""       # sha256 of the file bytes


def _mat(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, complex)]


def _gauss(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_gauss(rng, (d, d)))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank density matrix: a Wishart draw mixed with the maximally mixed state."""
    a = _gauss(rng, (n, n))
    w = a @ a.conj().T
    rho = 0.9 * w / np.trace(w).real + 0.1 * np.eye(n) / n
    return 0.5 * (rho + rho.conj().T)


def _pure(rng: np.random.Generator, n: int) -> np.ndarray:
    v = _gauss(rng, n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _weights(rng: np.random.Generator, k: int) -> np.ndarray:
    """Sector weights bounded away from zero, so no block falls under the CLI tolerance."""
    p = rng.dirichlet(np.ones(k))
    return 0.8 * p + 0.2 / k


def _vn(rho: np.ndarray) -> float:
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    lam = lam[lam > 0.0] / lam.sum()
    return float(-(lam * np.log(lam)).sum())


def _block_diag(parts: list[np.ndarray]) -> np.ndarray:
    d = sum(p.shape[0] for p in parts)
    out = np.zeros((d, d), dtype=complex)
    off = 0
    for p in parts:
        k = p.shape[0]
        out[off:off + k, off:off + k] = p
        off += k
    return out


def _embedded(blocks, parts: list[np.ndarray]) -> np.ndarray:
    """(+)_i X_i (x) I_{m_i}."""
    return _block_diag([np.kron(x, np.eye(m)) for x, (_, m) in zip(parts, blocks)])


def _with_coherences(rng: np.random.Generator, blocks, diag: np.ndarray) -> np.ndarray:
    """A density whose diagonal blocks equal diag's but with coherences between blocks.

    D^(1/2) (I + H) D^(1/2) with H Hermitian, zero on the diagonal blocks and
    of norm 1/2, is positive and leaves every diagonal block of D unchanged,
    so it induces the same state on the algebra as D.
    """
    d = diag.shape[0]
    h = _gauss(rng, (d, d))
    h = h + h.conj().T
    off = 0
    for n, m in blocks:
        h[off:off + n * m, off:off + n * m] = 0.0
        off += n * m
    h *= 0.5 / max(np.linalg.norm(h, 2), 1e-300)
    w, v = np.linalg.eigh(diag)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    rho = root @ (np.eye(d) + h) @ root
    return 0.5 * (rho + rho.conj().T)


def _matrix_units(blocks) -> list[np.ndarray]:
    units = []
    for i, (n, _) in enumerate(blocks):
        for a in range(n):
            for b in range(n):
                parts = [np.zeros((k, k)) for k, _ in blocks]
                parts[i][a, b] = 1.0
                units.append(_embedded(blocks, parts))
    return units


def _make(workload: str, blocks, form, rng: np.random.Generator) -> tuple[dict, dict]:
    """The problem document and its reference values for one slot."""
    k = len(blocks)
    if form == "pure":
        # always the first block, so the GNS dimension and the cost do not depend on the seed
        p = np.zeros(k)
        p[0] = 1.0
        rhos = [None] * k
        rhos[0] = _pure(rng, blocks[0][0])
    else:
        p = _weights(rng, k)
        rhos = [_density(rng, n) for n, _ in blocks]
    s_ref = float(-(p[p > 0] * np.log(p[p > 0])).sum()) + sum(
        float(w) * _vn(r) for w, r in zip(p, rhos) if r is not None)
    mult_ref = sum(float(w) * float(np.log(m)) for w, (_, m) in zip(p, blocks) if w > 0)
    gns_dim = sum(n * int(np.linalg.matrix_rank(r, tol=1e-8))
                  for (n, _), r in zip(blocks, rhos) if r is not None)
    ref = {"s_ref": s_ref, "mult_ref": mult_ref, "pure": form == "pure", "gns_dim": gns_dim}
    options = {"seed": int(rng.integers(0, 2**31))}

    if workload == "discover":
        d = sum(n * m for n, m in blocks)
        v = _haar(rng, d)
        gens = [v @ _embedded(blocks, [_gauss(rng, (n, n)) for n, _ in blocks]) @ v.conj().T
                for _ in range(2)]
        sigmas = [_density(rng, m) for _, m in blocks]
        diag = _block_diag([w * np.kron(r, s) for w, r, s in zip(p, rhos, sigmas)])
        doc = {"algebra": {"generators": [_mat(g) for g in gens]},
               "state": {"density": _mat(v @ diag @ v.conj().T)}}
    elif workload == "closed_form" and form == "density":
        sigmas = [_density(rng, m) for _, m in blocks]
        diag = _block_diag([w * np.kron(r, s) for w, r, s in zip(p, rhos, sigmas)])
        doc = {"algebra": {"blocks": [list(b) for b in blocks]},
               "state": {"density": _mat(_with_coherences(rng, blocks, diag))}}
    elif workload == "closed_form" and form == "values":
        # a declared basis of random complex combinations of the matrix units
        units = np.stack(_matrix_units(blocks))
        mix = _gauss(rng, (len(units), len(units)))
        basis = np.tensordot(mix, units, axes=1)
        rep = _embedded(blocks, [w * r / m for w, r, (_, m) in zip(p, rhos, blocks)])
        values = [complex(np.trace(rep @ b)) for b in basis]
        doc = {"algebra": {"blocks": [list(b) for b in blocks]},
               "state": {"values": [[z.real, z.imag] for z in values],
                         "basis": [_mat(b) for b in basis]}}
    else:
        doc = {"algebra": {"blocks": [list(b) for b in blocks]},
               "state": {"canonical": {"p": [float(w) for w in p],
                                       "rhos": [None if r is None else _mat(r) for r in rhos]}}}
        if workload == "certify" and form != 1000:
            options["samples"] = int(form)
    doc["options"] = options
    return doc, ref


def generate(workload: str, seed: int, outdir: str) -> tuple[list[Problem], Problem]:
    """Write the problem files of the ``workload`` deck for ``seed`` into outdir.

    Returns the deck (shuffled by the seed) and the warm-up problem, which is
    drawn from its own stream so it never coincides with a timed problem.
    """
    if workload not in DECKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(DECKS)}")
    os.makedirs(outdir, exist_ok=True)
    wid = sorted(DECKS).index(workload)
    deck = DECKS[workload]
    problems = []

    def emit(slot: int, stream: int, name: str) -> Problem:
        rung, blocks, form = deck[slot]
        rng = np.random.default_rng([seed % 2**64, wid, stream])
        doc, ref = _make(workload, blocks, form, rng)
        data = json.dumps(doc, sort_keys=True).encode()
        path = os.path.join(outdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        return Problem(slot=slot, rung=rung, path=path,
                       argv=[COMMANDS[workload], path, "--json"], blocks=tuple(blocks),
                       samples=(form if workload == "certify" else None),
                       digest=hashlib.sha256(data).hexdigest(), **ref)

    for slot in range(len(deck)):
        problems.append(emit(slot, slot, f"{workload}-{slot:02d}.json"))
    warm = emit(0, 1000, f"{workload}-warmup.json")
    order = np.random.default_rng([seed % 2**64, wid, 2000]).permutation(len(problems))
    return [problems[i] for i in order], warm

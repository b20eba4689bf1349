"""Preparations of a state, majorization, and the sampled entropy infimum.

A density matrix can be prepared as many different mixtures of pure states.
Every preparation's weight vector is a doubly stochastic image of the
spectrum, so the spectral preparation is the most ordered one; the state
entropy is the infimum of the mixing entropies, here certified numerically
by random sampling.
"""

import numpy as np

import cstar_entropy as ce
from cstar_entropy._linalg import random_isometry, rng_stream

rng = rng_stream(42)

# ----------------------------------------------------------------------
# All preparations of one qubit density matrix.
# ----------------------------------------------------------------------
rho = np.diag([0.25, 0.75]).astype(complex)
print("spectrum: [0.75, 0.25], S_VN =", ce.von_neumann(rho))

spectral = ce.schrodinger_decomposition(rho, np.eye(2))
print("spectral weights:", spectral.weights(), "entropy:", ce.decomposition_entropy(spectral))

u = random_isometry(2, 2, rng)
other = ce.schrodinger_decomposition(rho, u)
print("random-mixing weights:", np.round(other.weights(), 6),
      "entropy:", ce.decomposition_entropy(other))
print("reconstructs rho:", np.allclose(other.density(), rho))

# The weights are a doubly stochastic image of the spectrum ...
b = ce.doubly_stochastic_from_unitary(u)
lam = np.array([0.75, 0.25])
print("B @ spectrum == weights:", np.allclose(np.sort(b @ lam), np.sort(other.weights())))

# ... hence majorized by it, and never less entropic.
verdict = ce.majorizes(lam, other.weights())
print("spectrum", verdict.relation, "the mixed weights")

# ----------------------------------------------------------------------
# States over a two-sector algebra: the closed form is the infimum.
# ----------------------------------------------------------------------
st = ce.make_algebra([(2, 1), (2, 1)])
om = ce.StateFunctional.from_canonical(
    st, [0.4, 0.6],
    [np.diag([0.9, 0.1]).astype(complex), np.eye(2, dtype=complex) / 2])

closed = ce.state_entropy(om).state_entropy
print("\nclosed-form state entropy:", closed)

report = ce.infimum_oracle(om, samples=20_000, seed=0)
print("minimum over 20000 sampled decompositions:", report.min_entropy_found)
print("gap:", report.min_entropy_found - closed)
# the report names the winning sample; its decomposition is rebuilt on demand
best = ce.oracle_decomposition(om, report.best_index, seed=0)
print("argmin is sample", report.best_index, "with", len(best.components),
      "components and reconstructs the state:",
      np.allclose(best.density(), ce.representative_density(om).matrix))

# A deliberately wasteful preparation of the same state is strictly worse.
dec = ce.minimal_decomposition(om)
waste = ce.Decomposition(st, tuple(
    (w / 2, i, v) for w, i, v in dec.components for _ in range(2)))
print("duplicating every component costs exactly log 2 extra:",
      ce.decomposition_entropy(waste) - ce.decomposition_entropy(dec))

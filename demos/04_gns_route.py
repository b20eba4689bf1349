"""The GNS construction: representing a state on its own Hilbert space.

The state itself defines an inner product on the algebra; quotienting by its
null space produces a representation whose cyclic vector reproduces every
expectation value.  Irreducibility of that representation detects purity,
and reducing the cyclic vector over the representation's blocks recomputes
the state entropy by a second route.
"""

import numpy as np

import cstar_entropy as ce
from cstar_entropy._linalg import rng_stream

rng = rng_stream(11)

st = ce.make_algebra([(2, 1), (2, 1)])

# ----------------------------------------------------------------------
# Pure state: low-dimensional and irreducible.
# ----------------------------------------------------------------------
psi = np.array([0.6, 0.8j], dtype=complex)
pure = ce.StateFunctional.from_canonical(st, [1.0, 0.0], [np.outer(psi, psi.conj()), None])
g_pure = ce.gns_construct(pure)
print("pure state: GNS dimension", g_pure.dim, "- irreducible:", ce.is_irreducible(g_pure))

# ----------------------------------------------------------------------
# Mixed state: bigger space, reducible, same expectation values.
# ----------------------------------------------------------------------
mixed = ce.StateFunctional.from_canonical(
    st, [0.3, 0.7],
    [np.diag([0.25, 0.75]).astype(complex), np.eye(2, dtype=complex) / 2])
g = ce.gns_construct(mixed)
print("mixed state: GNS dimension", g.dim, "- irreducible:", ce.is_irreducible(g))

a = ce.random_element(st, rng)
coeffs = np.concatenate([part.reshape(-1) for part in a.parts])
via_gns = g.cyclic.conj() @ (g.represent(coeffs) @ g.cyclic)
print("cyclic vector reproduces the state: |<Omega|pi(A)Omega> - omega(A)| = %.2e"
      % abs(via_gns - mixed.expect(a)))

# ----------------------------------------------------------------------
# Entropy through the GNS representation equals the closed form.
# ----------------------------------------------------------------------
gns_entropy = ce.gns_state_entropy(mixed)
closed = ce.state_entropy(mixed).state_entropy
print("\nGNS-route entropy:   ", gns_entropy)
print("closed-form entropy: ", closed)
print("difference:           %.2e" % abs(gns_entropy - closed))

# ----------------------------------------------------------------------
# Decompositions from the commutant: projections carve out sub-states,
# and resolutions of the identity induce pure decompositions whose mixing
# entropy can only exceed the state entropy.
# ----------------------------------------------------------------------
lam, sub_state = ce.gns_commutant_functional(g, np.eye(g.dim))
print("\nT = identity gives back the state with weight", lam)

sectors = ce.resolve_sectors(g)
print("GNS block structure:", sectors.structure.blocks)
print("sector weights of Omega:", np.round(sectors.weights, 6))

for trial in range(3):
    idec = ce.identity_decomposition_random(sectors, seed=trial)
    weights = ce.identity_decomposition_weights(sectors, idec)
    print("random identity decomposition: %2d terms, mixing entropy %.6f (>= %.6f)"
          % (len(weights), ce.shannon(weights), closed))

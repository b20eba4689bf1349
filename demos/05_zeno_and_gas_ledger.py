"""Thermodynamic accounting: Zeno rotations and the boxed-ensemble ledger.

Pure states in one sector are isoentropic because frequent measurements
rotate one into the other with probability approaching one.  Separating the
pure components of a mixed ensemble with semipermeable walls and compressing
them isothermally prices the state entropy in exchanged heat.
"""

import numpy as np

import cstar_entropy as ce

st = ce.make_algebra([(2, 1), (1, 1)])

# ----------------------------------------------------------------------
# Definite values: the algebraic stand-in for eigenstates.
# ----------------------------------------------------------------------
observable = ce.AlgebraElement(st, (np.diag([1.0, 2.0]), np.array([[5.0]])))
eigenstate = ce.StateFunctional.from_canonical(
    st, [1.0, 0.0], [np.diag([0.0, 1.0]).astype(complex), None])
definite, value = ce.has_definite_value(eigenstate, observable)
print("eigenstate measures the observable definitely:", definite, "value:", value)

mixed = ce.StateFunctional.from_canonical(
    st, [1.0, 0.0], [np.eye(2, dtype=complex) / 2, None])
definite, value = ce.has_definite_value(mixed, observable)
print("mixed state:", definite, "- expectation", value, "but nonzero variance")

# ----------------------------------------------------------------------
# The Zeno ladder between orthogonal pure states of one sector.
# ----------------------------------------------------------------------
phi = np.array([1.0, 0.0], dtype=complex)
psi = np.array([0.0, 1.0], dtype=complex)
for k in [1, 10, 100, 10_000]:
    print("k = %6d: success probability %.6f" % (k, ce.zeno_success_probability(k)))

vectors, steps = ce.zeno_sequence(phi, psi, k=10)
print("10-step ladder: %d unit vectors, each step succeeds with %.6f"
      % (len(vectors), steps[0]))

try:
    ce.zeno_sequence(phi, psi, k=10, block_phi=0, block_psi=1)
except ce.DisconnectedSectorsError as exc:
    print("different sectors refuse to connect:", exc)

# ----------------------------------------------------------------------
# The Einstein-gas ledger: compression heats sum to the entropy.
# ----------------------------------------------------------------------
omega = ce.StateFunctional.from_canonical(
    st, [0.5, 0.5], [np.diag([0.25, 0.75]).astype(complex), np.eye(1)])
acct = ce.GasAccount(copies=1000, temperature=300.0,
                     sector_entropies=np.zeros(st.num_blocks), boltzmann=1.0)

dec = ce.minimal_decomposition(omega)
print("\npure components and their compression heats:")
ledger = 0.0
for w, i, _ in dec.components:
    q = ce.compression_heat(w, acct)
    ledger -= q
    print("  weight %.4f in sector %d: Q = %10.2f" % (w, i, q))

per_copy = ledger / (acct.boltzmann * acct.copies * acct.temperature)
print("ledger total / (k_B M T) =", per_copy)
print("state entropy            =", ce.state_entropy(omega).state_entropy)
print("gas entropy per copy     =", ce.gas_entropy(omega, acct))

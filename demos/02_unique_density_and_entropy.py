"""Why entropy needs a distinguished density matrix, and how to compute it.

When the observables form only a subalgebra, many ambient density matrices
induce the same state, and their von Neumann entropies disagree.  Exactly
one representative lies inside the algebra itself; its canonical block form
gives an unambiguous entropy.
"""

import numpy as np

import cstar_entropy as ce

# ----------------------------------------------------------------------
# The ambiguity: two density matrices, same measurements, different S_VN.
# ----------------------------------------------------------------------
diagonal = ce.make_algebra([(1, 1)] * 2)     # only diagonal 2x2 observables

rho_mixed = np.diag([0.5, 0.5]).astype(complex)
rho_pure = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)   # |+><+|

print("S_VN(rho_mixed) =", ce.von_neumann(rho_mixed))   # log 2
print("S_VN(rho_pure)  =", ce.von_neumann(rho_pure))    # 0

om_mixed = ce.state_from_density(rho_mixed, diagonal)
om_pure = ce.state_from_density(rho_pure, diagonal)
print("same functional on the algebra:", np.allclose(om_mixed.values(), om_pure.values()))

# The unique in-algebra representative resolves the ambiguity.
rep = ce.representative_density(om_pure)
print("representative:\n", rep.matrix.real)
print("state entropy:", ce.state_entropy(om_pure).state_entropy, "(= log 2)")

# ----------------------------------------------------------------------
# Canonical form: sector weights and normalized block states.
# ----------------------------------------------------------------------
st = ce.make_algebra([(2, 1), (3, 1)])
rng = np.random.default_rng(7)
block = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
block = block @ block.conj().T
block /= np.trace(block)
om = ce.StateFunctional.from_canonical(st, [0.3, 0.7], [np.eye(2) / 2, block])

p, rhos = ce.canonical_form(ce.representative_density(om), st)
print("\nsector weights:", np.round(p, 6))
report = ce.state_entropy(om)
print("S(omega)            =", report.state_entropy)
print("  sector mixing     =", report.sector_entropy)
print("  mean block part   =", report.mean_block_entropy)

# ----------------------------------------------------------------------
# Multiplicities inflate the representative's entropy but not the state's.
# ----------------------------------------------------------------------
fat = ce.make_algebra([(2, 3)])     # one qubit block repeated three times
psi = np.array([1.0, 1.0j]) / np.sqrt(2)
pure = ce.StateFunctional.from_canonical(fat, [1.0], [np.outer(psi, psi.conj())])
rep = ce.state_entropy(pure)
print("\npure state on a multiplicity-3 block:")
print("is_pure:", ce.is_pure(pure))
print("state entropy        =", rep.state_entropy)            # 0
print("S_VN(representative) =", rep.vn_of_representative)     # log 3
print("multiplicity term    =", rep.multiplicity_term)        # log 3

"""Discovering the block structure of a numerically given operator algebra.

A finite-dimensional *-algebra of matrices always looks, in the right basis,
like a direct sum of full matrix blocks repeated with multiplicities.  This
script hides such an algebra behind a random change of basis, recovers the
hidden structure straight from two generators, and holds the generated
algebra and its commutant in block form, as that structure and the recovered
change of basis.
"""

import numpy as np

import cstar_entropy as ce
from cstar_entropy._linalg import random_isometry, rng_stream

rng = rng_stream(2024)

# ----------------------------------------------------------------------
# Build a hidden algebra: one 2x2 block repeated twice, plus a 1x1 block.
# ----------------------------------------------------------------------
hidden = ce.make_algebra([(2, 2), (1, 1)])
print("hidden structure:    ", hidden.blocks)
print("ambient dimension:   ", hidden.ambient_dim)   # 2*2 + 1*1 = 5
print("algebra dimension:   ", hidden.algebra_dim)   # 4 + 1 = 5

# Conjugate two random elements by a random unitary so nothing is visibly
# block diagonal anymore.
scrambler = random_isometry(hidden.ambient_dim, hidden.ambient_dim, rng)
generators = [scrambler @ ce.embed(ce.random_element(hidden, rng)) @ scrambler.conj().T
              for _ in range(2)]
print("\na generator, rounded (no visible structure):")
print(np.round(generators[0], 2))

# ----------------------------------------------------------------------
# Discover the structure from the generators alone.  Products of random
# combinations of I, S and S* are random elements of the generated algebra,
# so no basis is built and nothing is closed under words.  The generated
# algebra is held in block form, as its structure and the change of basis W.
# ----------------------------------------------------------------------
sub = ce.generate_subalgebra(generators, tol=1e-9, seed=0)
blocks = sub.structure.blocks
print("\nrecovered structure:", blocks)

# The change-of-basis unitary makes every generator block diagonal again.
print("largest relative off-structure residual of the generators: %.2e"
      % ce.generator_residual(generators, sub))
print("generated *-algebra dimension:", sub.dim)

# Dimension laws: sum n^2 = algebra dimension, sum n*m = ambient dimension.
print("sum n_i^2 =", sum(n * n for n, _ in blocks), "== span dim", sub.dim)
print("sum n_i m_i =", sum(n * m for n, m in blocks), "== ambient", sub.ambient_dim)

# Its basis W (E_ab (x) I_m) W* / sqrt(m) is read off W when asked for, and
# discovery from that basis stack finds the same blocks.
print("from the basis:", ce.block_decompose(sub.basis, tol=1e-9, seed=0).structure.blocks)

# ----------------------------------------------------------------------
# The commutant sees the multiplicities mirrored: sum m_i^2 dimensions.  It
# is read off the same W with the two tensor factors swapped, so nothing is
# discovered a second time.
# ----------------------------------------------------------------------
com = ce.commutant(sub)
print("\ncommutant blocks:", com.structure.blocks)
print("commutant dimension:", com.dim, "(expected", sum(m * m for _, m in blocks), ")")

double = ce.commutant(com)
print("double commutant equals the algebra:",
      double.structure.blocks == sub.structure.blocks and np.array_equal(double.w, sub.w))

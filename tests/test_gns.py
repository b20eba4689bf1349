"""Tests for the GNS construction and the entropy computed through it."""

import numpy as np
import pytest

import cstar_entropy as ce
from cstar_entropy._linalg import complex_gaussian
from cstar_entropy.errors import NotAStateError, ValidationError

from helpers import (
    random_ambient_density,
    random_isometry,
    random_pure_state,
    random_state,
    random_structure,
    rng_stream,
)


def _coeffs(a):
    return np.concatenate([part.reshape(-1) for part in a.parts])


class TestGnsConstruct:
    def test_pure_state_on_full_block(self):
        st = ce.make_algebra([(3, 1)])
        psi = np.zeros(3, dtype=complex)
        psi[0] = 1.0
        om = ce.StateFunctional.from_canonical(st, [1.0], [np.outer(psi, psi.conj())])
        g = ce.gns_construct(om)
        assert g.dim == 3

    def test_faithful_state_on_full_block(self):
        rng = rng_stream(70)
        st = ce.make_algebra([(3, 1)])
        om = ce.state_from_density(random_ambient_density(rng, 3), st)
        assert ce.gns_construct(om).dim == 9

    def test_diagonal_algebra_rep_ops_diagonal(self):
        st = ce.make_algebra([(1, 1)] * 3)
        om = ce.StateFunctional.from_canonical(
            st, [0.2, 0.3, 0.5], [np.eye(1)] * 3)
        g = ce.gns_construct(om)
        assert g.dim == 3
        for op in g.represent(np.eye(st.algebra_dim)):
            assert np.allclose(op, np.diag(np.diag(op)), atol=1e-10)

    def test_reproduces_functional(self):
        rng = rng_stream(71)
        for _ in range(3):
            st = random_structure(rng, max_ambient=8)
            om = random_state(rng, st)
            g = ce.gns_construct(om)
            for _ in range(100):
                a = ce.random_element(st, rng)
                lhs = g.cyclic.conj() @ (g.represent(_coeffs(a)) @ g.cyclic)
                assert abs(lhs - om.expect(a)) < 1e-9

    def test_representation_is_star_homomorphism(self):
        rng = rng_stream(72)
        st = random_structure(rng, max_ambient=8)
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        for _ in range(10):
            a, b = ce.random_element(st, rng), ce.random_element(st, rng)
            pa, pb = g.represent(_coeffs(a)), g.represent(_coeffs(b))
            assert np.linalg.norm(g.represent(_coeffs(a @ b)) - pa @ pb) < 1e-8
            assert np.linalg.norm(g.represent(_coeffs(a.adjoint())) - pa.conj().T) < 1e-8

    def test_cyclic_vector_is_cyclic(self):
        rng = rng_stream(73)
        st = random_structure(rng, max_ambient=8)
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        orbit = g.represent(np.eye(st.algebra_dim)) @ g.cyclic
        assert np.linalg.matrix_rank(orbit) == g.dim

    def test_dim_equals_gram_rank(self):
        rng = rng_stream(74)
        st = random_structure(rng, max_ambient=8)
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        # <E_ab, E_cd> = delta_ac omega(E_bd): block i of the Gram matrix is kron(I_n, omega_i)
        gram = np.zeros((st.algebra_dim, st.algebra_dim), dtype=complex)
        off = 0
        for (n, _), values in zip(st.blocks, om.block_values):
            gram[off:off + n * n, off:off + n * n] = np.kron(np.eye(n), values)
            off += n * n
        assert g.dim == np.linalg.matrix_rank(gram, tol=1e-10)

    def test_non_positive_gram_rejected(self):
        # the state decides positivity when it is built, so no GNS data can be asked for
        st = ce.make_algebra([(2, 1)])
        with pytest.raises(NotAStateError):
            ce.StateFunctional(st, (np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex),))


class TestStackedArrays:
    """Every matrix family is one read-only (k, d, d) ndarray."""

    @staticmethod
    def _assert_read_only_stack(arr, k, d):
        assert isinstance(arr, np.ndarray)
        assert arr.shape == (k, d, d)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0

    def test_subalgebra_bases_are_read_only_stacks(self):
        rng = rng_stream(90)
        st = ce.make_algebra([(2, 1), (1, 2)])
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        # the represented units are built on demand; the cyclic vector is read-only
        assert not g.cyclic.flags.writeable
        with pytest.raises(ValueError):
            g.cyclic[0] = 1.0
        sub = ce.generate_subalgebra([ce.embed(ce.random_element(st, rng)) for _ in range(2)])
        self._assert_read_only_stack(sub.basis, st.algebra_dim, st.ambient_dim)
        com = ce.commutant(sub)
        self._assert_read_only_stack(com.basis, com.dim, st.ambient_dim)
        assert not sub.w.flags.writeable and not com.w.flags.writeable

    def test_sectors_are_read_only(self):
        om = random_state(rng_stream(94), ce.make_algebra([(2, 2), (1, 1)]))
        sectors = ce.resolve_sectors(ce.gns_construct(om))
        before = ce.sectors_entropy(sectors)
        for arr in (sectors.weights, *sectors.multiplicity_states):
            with pytest.raises(ValueError):
                arr[0] = 5.0
        assert ce.sectors_entropy(sectors) == before

    @pytest.mark.parametrize("rank", [1, 2])
    def test_unit_norms_read_off_the_blocks(self, rank):
        # a zero-weight block is left out of the GNS blocks and represents as
        # zero; a rank-r block state gives GNS block (n, r) and units of
        # Hilbert-Schmidt norm sqrt(r)
        st = ce.make_algebra([(2, 1), (2, 2), (1, 1)])
        psi = np.array([1.0, 1j]) / np.sqrt(2)
        rho = np.outer(psi, psi.conj()) if rank == 1 else np.diag([0.3, 0.7])
        om = ce.StateFunctional.from_canonical(st, [0.4, 0.0, 0.6], [rho, None, np.eye(1)])
        g = ce.gns_construct(om)
        assert g.gns_structure.blocks == ((2, rank), (1, 1))
        assert g.active == (0, 2)
        assert g.dim == 2 * rank + 1
        norms = np.linalg.norm(g.represent(np.eye(st.algebra_dim)), axis=(1, 2))
        assert np.allclose(norms, [np.sqrt(rank)] * 4 + [0.0] * 4 + [1.0], atol=1e-12)


class TestIrreducibility:
    def test_pure_states_are_irreducible(self):
        rng = rng_stream(75)
        for _ in range(5):
            st = random_structure(rng, max_ambient=8)
            om = random_pure_state(rng, st)
            assert ce.is_irreducible(ce.gns_construct(om))

    def test_maximally_mixed_is_reducible(self):
        st = ce.make_algebra([(3, 1)])
        om = ce.state_from_density(np.eye(3) / 3, st)
        assert not ce.is_irreducible(ce.gns_construct(om))

    def test_two_sector_mixture_is_reducible(self):
        st = ce.make_algebra([(1, 1), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [0.5, 0.5], [np.eye(1), np.eye(1)])
        assert not ce.is_irreducible(ce.gns_construct(om))

    def test_purity_iff_irreducibility(self):
        rng = rng_stream(76)
        for trial in range(10):
            st = random_structure(rng, max_ambient=6)
            om = random_pure_state(rng, st) if trial % 2 else random_state(rng, st)
            g = ce.gns_construct(om)
            assert ce.is_irreducible(g) == ce.is_pure(om)

    def test_purity_and_irreducibility_share_one_rank_rule(self):
        # single-sector states whose block state has a second eigenvalue log-uniform in
        # [1e-12, 1e-5], across the GNS cutoff tol * lambda_1 = 1e-9 * lambda_1
        rng = rng_stream(93)
        for _ in range(300):
            st = ce.make_algebra([(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
                                  for _ in range(int(rng.integers(1, 4)))])
            i = int(rng.integers(st.num_blocks))
            n = st.blocks[i][0]
            lam = np.zeros(n)
            lam[0] = 1.0
            if n > 1:
                lam[1] = 10.0 ** rng.uniform(-12, -5)
                lam[0] -= lam[1]
            v = random_isometry(n, n, rng)
            p = np.eye(st.num_blocks)[i]
            rhos = [(v * lam) @ v.conj().T if j == i else None for j in range(st.num_blocks)]
            om = ce.StateFunctional.from_canonical(st, p, rhos)
            assert ce.is_pure(om) == ce.is_irreducible(ce.gns_construct(om)), (st.blocks, lam)


class TestCommutantFunctional:
    def test_identity_returns_the_state(self):
        rng = rng_stream(77)
        st = random_structure(rng, max_ambient=6)
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        lam, sub = ce.gns_commutant_functional(g, np.eye(g.dim))
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(sub.values(), om.values(), atol=1e-9)

    def test_half_identity_scalar_case(self):
        rng = rng_stream(78)
        st = random_structure(rng, max_ambient=6)
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        lam, sub = ce.gns_commutant_functional(g, np.eye(g.dim) / 2)
        assert lam == pytest.approx(0.5, abs=1e-10)
        assert np.allclose(sub.values(), om.values(), atol=1e-9)

    def test_sector_projection_gives_pure_substate(self):
        # projecting onto one sector of a two-sector mixture leaves a pure state
        st = ce.make_algebra([(1, 1), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [0.25, 0.75], [np.eye(1), np.eye(1)])
        g = ce.gns_construct(om)
        # represented units are diagonal here; the first sector projector is diag(1, 0)
        units = g.represent(np.eye(st.algebra_dim))
        k = np.argmax([abs(op[0, 0]) for op in units])
        proj = np.round(np.abs(units[k])).real
        lam, sub = ce.gns_commutant_functional(g, proj)
        assert ce.is_pure(sub)
        assert lam == pytest.approx(0.25, abs=1e-9) or lam == pytest.approx(0.75, abs=1e-9)

    def test_leftover_functional_is_positive(self):
        # omega - lam * omega_T must still be a positive functional
        st = ce.make_algebra([(2, 1), (1, 1)])
        rng = rng_stream(79)
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        t = np.eye(g.dim) * 0.6
        lam, sub = ce.gns_commutant_functional(g, t)
        rest = (om.values() - lam * sub.values()) / (1 - lam)
        block_values, off = [], 0
        for n, _ in st.blocks:
            block_values.append(rest[off:off + n * n].reshape(n, n))
            off += n * n
        ce.StateFunctional(st, tuple(block_values))  # raises if not positive

    @staticmethod
    def _commutant_part(g, t):
        # the orthogonal projection of T onto the commutant (+)_j I_n (x) M_r of the
        # GNS blocks (n, r), whose coordinates are (a, k) row-major
        out = np.zeros_like(t)
        off = 0
        for n, r in g.gns_structure.blocks:
            sl = slice(off, off + n * r)
            out[sl, sl] = np.kron(np.eye(n), np.einsum("akal->kl", t[sl, sl].reshape(n, r, n, r)) / n)
            off += n * r
        return out

    def test_commutant_check_is_never_looser_than_the_commutators(self):
        # T = P(T) + eps H, H Hermitian with P(H) = 0 and ||H||_F = 1, eps swept across
        # the check's bound: whenever T is accepted, every ||[T, pi(E_k)]||_F is within
        # max(100 tol, 1e-7), the bound the commutators themselves were held to
        tol = 1e-9
        bound = max(100 * tol, 1e-7)
        st = ce.make_algebra([(2, 1), (3, 2), (1, 1)])
        accepted = rejected = 0
        for seed in range(5):
            rng = rng_stream(93, seed)
            g = ce.gns_construct(random_state(rng, st))
            assert g.gns_structure.blocks == ((2, 2), (3, 3), (1, 1))
            units = g.represent(np.eye(st.algebra_dim))
            z = complex_gaussian((g.dim, g.dim), rng)
            c = self._commutant_part(g, z @ z.conj().T)
            c = 0.2 * np.eye(g.dim) + 0.6 * c / np.linalg.norm(c, 2)
            h = complex_gaussian((g.dim, g.dim), rng)
            h = h + h.conj().T
            h = h - self._commutant_part(g, h)
            h /= np.linalg.norm(h)
            for eps in np.geomspace(bound / 10, bound * 10, 21):
                t = c + eps * h
                try:
                    ce.gns_commutant_functional(g, t, tol)
                except ValidationError as err:
                    assert "does not commute" in str(err)
                    rejected += 1
                    continue
                accepted += 1
                assert max(np.linalg.norm(t @ u - u @ t) for u in units) <= bound
        assert accepted > 0 and rejected > 0

    def test_zero_weight_block_gets_a_zero_sub_state(self):
        st = ce.make_algebra([(2, 1), (2, 2), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [0.4, 0.0, 0.6],
                                               [np.diag([0.3, 0.7]), None, np.eye(1)])
        g = ce.gns_construct(om)
        assert g.active == (0, 2)
        t = np.zeros((g.dim, g.dim), dtype=complex)
        t[:4, :4] = np.kron(np.eye(2), [[0.5, 0.2j], [-0.2j, 0.3]])
        t[4, 4] = 0.5
        lam, sub = ce.gns_commutant_functional(g, t)
        assert np.array_equal(sub.block_values[1], np.zeros((2, 2)))
        units = g.represent(np.eye(st.algebra_dim))
        expected = [g.cyclic.conj() @ t @ u @ g.cyclic for u in units]
        assert np.allclose(lam * sub.values(), expected, atol=1e-12)

    def test_non_commuting_operator_rejected(self):
        st = ce.make_algebra([(2, 1)])
        rng = rng_stream(80)
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        t = np.zeros((g.dim, g.dim))
        t[0, 0] = 1.0
        with pytest.raises(ValidationError):
            ce.gns_commutant_functional(g, t)

    def test_operator_above_identity_rejected(self):
        st = ce.make_algebra([(2, 1)])
        rng = rng_stream(81)
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        with pytest.raises(ValidationError):
            ce.gns_commutant_functional(g, 2.0 * np.eye(g.dim))

    def test_operator_of_the_wrong_shape_rejected(self):
        g = ce.gns_construct(random_state(rng_stream(83), ce.make_algebra([(2, 1)])))
        with pytest.raises(ValidationError, match="operator shape does not match"):
            ce.gns_commutant_functional(g, np.eye(g.dim + 1))

    def test_operator_that_annihilates_the_cyclic_vector_rejected(self):
        g = ce.gns_construct(random_state(rng_stream(84), ce.make_algebra([(2, 1)])))
        with pytest.raises(ValidationError, match="annihilates the cyclic vector"):
            ce.gns_commutant_functional(g, np.zeros((g.dim, g.dim)))

    def test_nan_operator_fails_its_own_check(self):
        # not later, inside StateFunctional, after a RuntimeWarning
        st = ce.make_algebra([(2, 1)])
        g = ce.gns_construct(random_state(rng_stream(82), st))
        t = np.eye(g.dim)
        t[0, 0] = np.nan
        with pytest.raises(ValidationError, match="not self-adjoint"):
            ce.gns_commutant_functional(g, t)


class TestIdentityDecomposition:
    def test_random_resolution_sums_to_identity(self):
        rng = rng_stream(84)
        st = ce.make_algebra([(2, 2), (1, 1)])
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        sectors = ce.resolve_sectors(g)
        idec = ce.identity_decomposition_random(sectors, seed=3)
        # constructor already validates the resolution; check grouping by block
        for i, (_, m) in enumerate(sectors.structure.blocks):
            acc = sum(t * np.outer(v, v.conj())
                      for t, j, v in idec.items if j == i)
            assert np.allclose(acc, np.eye(m), atol=1e-9)

    def test_weight_formula_sums_to_one_and_bounds_entropy(self):
        rng = rng_stream(85)
        st = ce.make_algebra([(2, 2), (1, 2)])
        om = random_state(rng, st)
        g = ce.gns_construct(om)
        sectors = ce.resolve_sectors(g)
        s = ce.state_entropy(om).state_entropy
        for trial in range(5):
            idec = ce.identity_decomposition_random(sectors, seed=trial)
            lam = ce.identity_decomposition_weights(sectors, idec)
            assert lam.sum() == pytest.approx(1.0, abs=1e-9)
            assert ce.shannon(lam) >= s - 1e-9

    @pytest.mark.parametrize("items, message", [
        (((1.5, 0, np.eye(1)[0]),), "weight 1.5 outside"),
        (((0.5, 0, np.eye(2)[0]), (1.0, 0, np.eye(2)[1])), "block 0 terms do not resolve"),
    ], ids=["weight_above_one", "not_the_identity"])
    def test_malformed_items_rejected(self, items, message):
        with pytest.raises(ValidationError, match=message):
            ce.IdentityDecomposition(items)

    @pytest.mark.parametrize("block,length", [(2, 1), (-3, 1), (1, 2)],
                             ids=["block_past_the_end", "negative_block", "wrong_length"])
    def test_weights_reject_items_that_do_not_fit_the_sectors(self, block, length):
        st = ce.make_algebra([(2, 2), (1, 1)])
        g = ce.gns_construct(random_state(rng_stream(92), st))
        sectors = ce.resolve_sectors(g)
        assert sectors.structure.blocks == ((2, 2), (1, 1))
        # an orthonormal basis of C^length resolves the identity, so the item set is valid
        idec = ce.IdentityDecomposition(tuple((1.0, block, e) for e in np.eye(length)))
        with pytest.raises(ValidationError):
            ce.identity_decomposition_weights(sectors, idec)


class TestGnsStateEntropy:
    def test_pure_state_zero(self):
        rng = rng_stream(86)
        st = random_structure(rng, max_ambient=6)
        om = random_pure_state(rng, st)
        assert ce.gns_state_entropy(om) < 1e-9

    def test_faithful_m2_hand_value(self):
        st = ce.make_algebra([(2, 1)])
        om = ce.state_from_density(np.diag([0.25, 0.75]).astype(complex), st)
        assert ce.gns_state_entropy(om) == pytest.approx(
            0.5623351446188083, abs=1e-9)

    def test_matches_closed_form_on_random_states(self):
        rng = rng_stream(87)
        for _ in range(10):
            st = random_structure(rng, max_ambient=10)
            om = random_state(rng, st)
            via_gns = ce.gns_state_entropy(om)
            closed = ce.state_entropy(om).state_entropy
            assert via_gns == pytest.approx(closed, abs=1e-9)

    def test_matches_closed_form_at_gns_dimension_320(self):
        # a faithful state on (16,2),(8,1): dim A = g = 320, reached only because
        # no stack of represented units is built
        rng = rng_stream(91)
        st = ce.make_algebra([(16, 2), (8, 1)])
        om = random_state(rng, st)
        assert ce.gns_construct(om).dim == 320
        via_gns = ce.gns_state_entropy(om)
        assert via_gns == pytest.approx(ce.state_entropy(om).state_entropy, abs=1e-12)

    def test_tol_that_keeps_no_gram_eigenvalue_is_an_input_error(self):
        # the largest Gram eigenvalue is 0.5 and the rank cutoff tol * 0.5 keeps nothing at tol 1
        st = ce.make_algebra([(2, 1), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [0.5, 0.5], [np.eye(2) / 2, np.eye(1)])
        with pytest.raises(ValidationError, match="tol 1.0 keeps no eigenvalue") as err:
            ce.gns_state_entropy(om, 1.0)
        assert not isinstance(err.value, NotAStateError)

    def test_is_the_closed_form_number_where_multiplicities_differ_from_ranks(self):
        # block (2,1) has multiplicity 1 and GNS rank 2, block (1,3) multiplicity 3 and rank 1
        st = ce.make_algebra([(2, 1), (1, 3)])
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        om = ce.StateFunctional.from_canonical(st, [0.7, 0.3], [rho, np.eye(1)])
        assert ce.gns_construct(om).gns_structure.blocks == ((2, 2), (1, 1))
        via_gns = ce.gns_state_entropy(om)
        assert type(via_gns) is float
        assert via_gns == pytest.approx(ce.state_entropy(om).state_entropy, abs=1e-12)

    def test_a_rounding_level_negative_eigenvalue_gives_no_gns_vector(self):
        # X_0 = diag(0.6 + 5e-9, -5e-9) is within StateFunctional's eigenvalue tolerance; an
        # SVD without the sign test would keep the -5e-9 and give block 0 rank 2
        st = ce.make_algebra([(2, 1), (1, 1)])
        om = ce.StateFunctional(st, (np.diag([0.6 + 5e-9, -5e-9]), np.array([[0.4]])))
        assert ce.gns_construct(om).dim == 3
        assert abs(ce.gns_state_entropy(om) - ce.state_entropy(om).state_entropy) <= 1e-12

    def test_catches_a_planted_fault_in_the_closed_forms_spectra(self):
        # the closed form reads omega.spectra and the GNS route the raw block values, so
        # squaring each block's eigenvalues, renormalized over all blocks, moves one route only
        rng = rng_stream(93)
        st = ce.make_algebra([(3, 2), (2, 1), (1, 1)])
        for _ in range(30):
            om = random_state(rng, st)
            squared = [(w ** 2, v) for w, v in om.spectra]
            total = sum(w.sum() for w, _ in squared)
            object.__setattr__(om, "spectra", tuple((w / total, v) for w, v in squared))
            assert abs(ce.gns_state_entropy(om) - ce.state_entropy(om).state_entropy) > 1e-3

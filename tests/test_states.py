"""Tests for state functionals, representative densities and canonical forms."""

import numpy as np
import pytest

import cstar_entropy as ce
from cstar_entropy._linalg import Cutoff
from cstar_entropy.errors import NotAStateError, ValidationError

from helpers import (
    convex_combine,
    embedded_standard_basis,
    multiplicity_free,
    random_ambient_density,
    random_state,
    random_structure,
    rng_stream,
    sectors_connectable,
    standard_basis,
)


class TestStateFromDensity:
    def test_diagonal_algebra_sees_only_the_diagonal(self):
        st = ce.make_algebra([(1, 1)] * 3)
        rho_a = np.array([[0.2, 0.1, 0.0], [0.1, 0.5, 0.0], [0.0, 0.0, 0.3]], dtype=complex)
        rho_b = np.diag([0.2, 0.5, 0.3]).astype(complex)
        om_a = ce.state_from_density(rho_a, st)
        om_b = ce.state_from_density(rho_b, st)
        assert np.allclose(om_a.values(), om_b.values())

    def test_full_algebra_representative_is_the_input(self):
        rng = rng_stream(3)
        st = ce.make_algebra([(3, 1)])
        rho = random_ambient_density(rng, 3)
        om = ce.state_from_density(rho, st)
        assert np.allclose(ce.representative_density(om).matrix, rho, atol=1e-10)

    def test_multiplicity_block_pure_vector_state(self):
        # |00><00| restricted to M_2 (x) I_2 is represented by |0><0| (x) I/2
        st = ce.make_algebra([(2, 2)])
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        om = ce.state_from_density(rho, st)
        expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert np.allclose(ce.representative_density(om).matrix, expected, atol=1e-10)

    def test_dimension_mismatch(self):
        st = ce.make_algebra([(2, 1)])
        with pytest.raises(ValidationError):
            ce.state_from_density(np.eye(3) / 3, st)


class TestRepresentativeDensity:
    def test_diagonal_algebra_takes_diagonal_part(self):
        st = ce.make_algebra([(1, 1)] * 3)
        rho = np.array([[0.2, 0.1, 0.05], [0.1, 0.5, 0.0], [0.05, 0.0, 0.3]], dtype=complex)
        om = ce.state_from_density(rho, st)
        assert np.allclose(ce.representative_density(om).matrix,
                           np.diag([0.2, 0.5, 0.3]), atol=1e-10)

    def test_scalar_algebra_gives_maximally_mixed(self):
        st = ce.make_algebra([(1, 4)])
        rng = rng_stream(4)
        om = ce.state_from_density(random_ambient_density(rng, 4), st)
        assert np.allclose(ce.representative_density(om).matrix, np.eye(4) / 4, atol=1e-10)

    def test_reproduces_functional_on_full_basis(self):
        rng = rng_stream(5)
        for trial in range(5):
            st = random_structure(rng)
            om = random_state(rng, st)
            rho = ce.representative_density(om).matrix
            for a, mat in zip(standard_basis(st), embedded_standard_basis(st)):
                assert abs(np.trace(rho @ mat) - om.expect(a)) < 1e-10

    def test_hs_projection_property(self):
        # Tr((rho - rho_omega) B) = 0 for every embedded basis element B
        rng = rng_stream(6)
        st = ce.make_algebra([(2, 2), (1, 1)])
        rho = random_ambient_density(rng, 5)
        om = ce.state_from_density(rho, st)
        rep = ce.representative_density(om).matrix
        for mat in embedded_standard_basis(st):
            assert abs(np.trace((rho - rep) @ mat)) < 1e-10

    def test_uniqueness_in_algebra_span(self):
        # any in-algebra density reproducing the functional equals the representative
        rng = rng_stream(7)
        for trial in range(5):
            st = random_structure(rng)
            om = random_state(rng, st)
            rep = ce.representative_density(om).matrix
            om2 = ce.state_from_density(rep, st)
            rep2 = ce.representative_density(om2).matrix
            assert np.allclose(rep, rep2, atol=1e-9)

    def test_positivity_failure_raises_not_a_state(self):
        st = ce.make_algebra([(2, 1)])
        values = (np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex),)
        with pytest.raises(NotAStateError, match="not positive"):
            ce.StateFunctional(st, values)

    @pytest.mark.parametrize("values, message", [
        ((), "one value matrix per block required"),
        ((np.eye(3) / 3,), "value matrix shape does not match block size"),
    ], ids=["count", "shape"])
    def test_malformed_values_rejected(self, values, message):
        with pytest.raises(ValidationError, match=message):
            ce.StateFunctional(ce.make_algebra([(2, 1)]), values)

    def test_expect_rejects_an_element_of_another_algebra(self):
        om = ce.StateFunctional.from_canonical(ce.make_algebra([(2, 1)]), [1.0], [np.eye(2) / 2])
        with pytest.raises(ValidationError, match="different block structure"):
            om.expect(ce.identity(ce.make_algebra([(1, 1), (1, 1)])))

    def test_unnormalized_functional_rejected(self):
        st = ce.make_algebra([(2, 1)])
        with pytest.raises(NotAStateError):
            ce.StateFunctional(st, (np.eye(2, dtype=complex),))

    def test_unnormalized_functional_prints_a_plain_number(self):
        st = ce.make_algebra([(1, 1)])
        with pytest.raises(NotAStateError) as err:
            ce.StateFunctional(st, (np.array([[0.5]]),))
        assert str(err.value) == "functional is not normalized: value (0.5+0j) on the identity"

    def test_positive_weight_without_a_block_state_is_rejected(self):
        # a None block state is a placeholder for a sector of zero weight only;
        # for a sector of weight 0.5 it is an input error, not an unnormalized state
        st = ce.make_algebra([(2, 1), (1, 1)])
        with pytest.raises(ValidationError) as err:
            ce.StateFunctional.from_canonical(st, [0.5, 0.5], [np.eye(2) / 2, None])
        assert str(err.value) == "block 1 has weight 0.5 but no block state"

    def test_negative_weight_without_a_block_state_is_rejected(self):
        # None stands for weight zero; for -1e-3 the built functional would not be the declared one
        st = ce.make_algebra([(2, 1), (1, 1)])
        with pytest.raises(ValidationError) as err:
            ce.StateFunctional.from_canonical(st, [1.001, -1e-3], [np.eye(2) / 2, None])
        assert str(err.value) == "block 1 has weight -0.001 but no block state"

    def test_mis_shaped_block_state_is_rejected_at_weight_zero(self):
        st = ce.make_algebra([(1, 1), (2, 1)])
        with pytest.raises(ValidationError, match="block state shape does not match block size"):
            ce.StateFunctional.from_canonical(st, [1.0, 0.0], [np.eye(1), np.ones((3, 1))])

    @pytest.mark.parametrize("p, rhos, message", [
        ([1.001, -1e-3], [np.eye(2) / 2, np.eye(1)],
         "functional is not positive: representative has eigenvalue -1.000e-03"),
        ([0.5, 0.4], [np.eye(2) / 2, np.eye(1)],
         "functional is not normalized: value (0.9+0j) on the identity"),
    ], ids=["negative_weight", "unnormalized"])
    def test_canonical_weights_meet_the_constructors_rules(self, p, rhos, message):
        # the canonical form has no rule of its own: the weights become values, which
        # StateFunctional decides as it decides any others
        with pytest.raises(NotAStateError) as err:
            ce.StateFunctional.from_canonical(ce.make_algebra([(2, 1), (1, 1)]), p, rhos)
        assert str(err.value) == message

    @pytest.mark.parametrize("p", [[-3e-8, 1 + 3e-8], [0.5, 0.5 + 5e-8]], ids=["-3e-8", "unit+5e-8"])
    def test_canonical_weights_within_the_state_rule_are_accepted(self, p):
        st = ce.make_algebra([(1, 4), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, p, [np.eye(1), np.eye(1)])
        assert np.array_equal(om.values(), np.asarray(p, dtype=complex))

    @pytest.mark.parametrize("weight", [0.0, Cutoff.WEIGHT_FLOOR, -Cutoff.WEIGHT_FLOOR])
    def test_weight_at_the_floor_keeps_its_placeholder(self, weight):
        st = ce.make_algebra([(2, 1), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [1.0 - weight, weight], [np.eye(2) / 2, None])
        assert np.array_equal(om.block_values[1], np.zeros((1, 1)))

    def test_non_self_adjoint_functional_rejected(self):
        st = ce.make_algebra([(2, 1)])
        with pytest.raises(NotAStateError):
            ce.StateFunctional.from_canonical(st, [1.0], [np.array([[0.5, 0.5], [0.0, 0.5]])])

    def test_non_self_adjoint_values_rejected(self):
        st = ce.make_algebra([(2, 1)])
        basis = list(embedded_standard_basis(st))
        with pytest.raises(NotAStateError):
            ce.state_from_values(st, basis, [0.5, 0.5, 0.0, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        st = ce.make_algebra([(2, 1)])
        mat = np.array([[bad, 0.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            ce.DensityMatrix(mat)
        with pytest.raises(ValidationError):
            ce.StateFunctional(st, (mat,))
        with pytest.raises(ValidationError):
            ce.StateFunctional.from_canonical(st, [bad], [None])


class TestStateIsCheckedOnce:
    """Construction makes the one eigen-decomposition per block that every route reads."""

    def test_one_eigh_per_block_at_construction_and_none_after(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(mat):
            calls.append(mat.shape)
            return eigh(mat)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        st = ce.make_algebra([(3, 1), (2, 2), (1, 3)])
        om = random_state(rng_stream(301), st)
        pure = ce.StateFunctional.from_canonical(st, [0.0, 1.0, 0.0],
                                                 [None, np.diag([1.0, 0.0]), None])
        assert calls == [(3, 3), (2, 2), (1, 1)] * 2
        calls.clear()
        acct = ce.GasAccount(copies=1, temperature=1.0, sector_entropies=np.zeros(3))
        ce.state_entropy(om)
        ce.minimal_decomposition(om)
        ce.is_pure(om)
        ce.infimum_oracle(om, samples=5)
        ce.gas_entropy(om, acct)
        sectors_connectable(pure, pure)
        ce.gns_construct(om)
        assert calls == []

    def test_spectra_are_read_only_descending_and_sum_to_one(self):
        st = ce.make_algebra([(2, 2), (1, 1)])
        # block 0's eigenvalue of -1e-12 is within the default cutoff and is clipped
        om = ce.StateFunctional(st, (np.diag([0.6, -1e-12]).astype(complex), np.eye(1) * 0.4))
        (w0, v0), (w1, _) = om.spectra
        assert w0[0] == pytest.approx(0.6) and w0[1] == 0.0 and w1[0] == pytest.approx(0.4)
        assert w0.sum() + w1.sum() == pytest.approx(1.0, abs=1e-15)
        for arr in (w0, v0):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_clipped_weights_carry_no_negative_zero(self, monkeypatch):
        # eigh may return a zero eigenvalue as -0.0; the clip must give +0.0, as np.clip does
        eigh = np.linalg.eigh
        lowest = {2: -0.0, 3: -1e-14}
        patched = []

        def signed(mat):
            w, v = eigh(mat)
            w = w.copy()
            w[0] = lowest.get(w.size, w[0])
            patched.append(w)
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", signed)
        st = ce.make_algebra([(2, 1), (3, 2), (1, 1)])
        om = ce.StateFunctional(st, (np.diag([0.3, 0.0]).astype(complex),
                                     np.diag([0.3, 0.2, 0.0]).astype(complex),
                                     np.full((1, 1), 0.2, dtype=complex)))
        clipped = [np.clip(w[::-1], 0.0, None) for w in patched]
        total = sum(w.sum() for w in clipped)
        assert len(patched) == 3 and np.signbit(patched[0][0]) and patched[1][0] < 0
        for (w, _), expected in zip(om.spectra, clipped):
            assert not np.signbit(w).any()
            assert np.array_equal(w, expected / total)


class TestDensityMatrix:
    @pytest.mark.parametrize("mat, message", [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "density matrix is not Hermitian"),
        (np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -5.000e-01"),
        (np.diag([0.5, 0.4]), "density matrix has trace 0.9, expected 1"),
    ], ids=["not_hermitian", "negative_eigenvalue", "trace"])
    def test_rejects_what_is_not_a_density_matrix(self, mat, message):
        with pytest.raises(ValidationError) as err:
            ce.DensityMatrix(mat)
        assert str(err.value) == message

    def test_keeps_the_ascending_spectrum_of_its_validation(self):
        rng = rng_stream(36)
        rho = ce.DensityMatrix(random_ambient_density(rng, 5))
        assert np.allclose(rho.spectrum, np.linalg.eigvalsh(rho.matrix), atol=1e-14)
        assert np.all(np.diff(rho.spectrum) >= 0)
        assert not rho.spectrum.flags.writeable
        assert ce.von_neumann(rho) == pytest.approx(
            -sum(x * np.log(x) for x in rho.spectrum if x > 0), abs=1e-14)

    def test_spectrum_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            ce.DensityMatrix(np.eye(2) / 2, spectrum=np.array([0.5, 0.5]))


class TestCanonicalForm:
    def test_single_block_identity(self):
        st = ce.make_algebra([(2, 1)])
        p, rhos = ce.canonical_form(np.diag([0.5, 0.5]).astype(complex), st)
        assert np.allclose(p, [1.0])
        assert np.allclose(rhos[0], np.eye(2) / 2)

    def test_two_scalar_blocks(self):
        st = ce.make_algebra([(1, 1), (1, 1)])
        p, rhos = ce.canonical_form(np.diag([0.25, 0.75]).astype(complex), st)
        assert np.allclose(p, [0.25, 0.75])
        assert np.allclose(rhos[0], [[1.0]])
        assert np.allclose(rhos[1], [[1.0]])

    def test_pure_with_multiplicity(self):
        st = ce.make_algebra([(2, 2)])
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        rho = np.kron(np.outer(psi, psi.conj()), np.eye(2) / 2)
        p, rhos = ce.canonical_form(rho, st)
        assert np.allclose(p, [1.0])
        assert np.allclose(rhos[0], np.outer(psi, psi.conj()), atol=1e-10)

    def test_zero_weight_block_gets_placeholder(self):
        st = ce.make_algebra([(1, 1), (2, 1)])
        rho = np.diag([0.0, 0.5, 0.5]).astype(complex)
        p, rhos = ce.canonical_form(rho, st)
        assert p[0] == 0.0
        assert rhos[0] is None

    def test_reconstruction_roundtrip(self):
        rng = rng_stream(8)
        for trial in range(5):
            st = random_structure(rng)
            om = random_state(rng, st)
            rho = ce.representative_density(om)
            p, rhos = ce.canonical_form(rho, st)
            om2 = ce.StateFunctional.from_canonical(st, p, rhos)
            assert np.allclose(om.values(), om2.values(), atol=1e-9)

    def test_outside_algebra_rejected(self):
        st = ce.make_algebra([(1, 1), (1, 1)])
        rho = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            ce.canonical_form(rho, st)

    def test_tol_above_every_weight_is_an_input_error(self):
        # both weights are 0.5, so tol 0.6 keeps no sector: the closed form's error, not NaN weights
        st = ce.make_algebra([(1, 1), (1, 1)])
        with pytest.raises(ValidationError, match="discards every sector"):
            ce.canonical_form(np.diag([0.5, 0.5]).astype(complex), st, 0.6)


class TestIsPure:
    def test_rank_one_on_full_block(self):
        st = ce.make_algebra([(2, 1)])
        psi = np.array([0.6, 0.8], dtype=complex)
        om = ce.StateFunctional.from_canonical(st, [1.0], [np.outer(psi, psi.conj())])
        assert ce.is_pure(om)

    def test_sector_mixture_is_not_pure(self):
        st = ce.make_algebra([(1, 1), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [0.5, 0.5], [np.eye(1), np.eye(1)])
        assert not ce.is_pure(om)

    def test_pure_despite_multiplicity(self):
        # the representative has rank 2 but the state admits no decomposition
        st = ce.make_algebra([(2, 2)])
        psi = np.array([1.0, 0.0], dtype=complex)
        om = ce.StateFunctional.from_canonical(st, [1.0], [np.outer(psi, psi.conj())])
        assert ce.is_pure(om)
        rep = ce.representative_density(om)
        assert np.linalg.matrix_rank(rep.matrix) == 2

    def test_purity_is_representation_independent(self):
        rng = rng_stream(9)
        st = ce.make_algebra([(2, 3), (3, 2)])
        flat = multiplicity_free(st)
        for trial in range(5):
            om = random_state(rng, st)
            p, rhos = ce.canonical_form(ce.representative_density(om), st)
            om_flat = ce.StateFunctional.from_canonical(flat, p, rhos)
            assert ce.is_pure(om) == ce.is_pure(om_flat)

    def test_mixed_block_state_is_not_pure(self):
        st = ce.make_algebra([(2, 1)])
        om = ce.StateFunctional.from_canonical(st, [1.0], [np.eye(2) / 2])
        assert not ce.is_pure(om)


class TestConvexCombine:
    def test_single_state(self):
        rng = rng_stream(10)
        st = random_structure(rng)
        om = random_state(rng, st)
        out = convex_combine([om], [1.0])
        assert np.allclose(out.values(), om.values())

    def test_two_sector_pure_states(self):
        st = ce.make_algebra([(1, 1), (1, 1)])
        om0 = ce.StateFunctional.from_canonical(st, [1.0, 0.0], [np.eye(1), None])
        om1 = ce.StateFunctional.from_canonical(st, [0.0, 1.0], [None, np.eye(1)])
        mix = convex_combine([om0, om1], [0.5, 0.5])
        assert np.allclose(ce.representative_density(mix).matrix, np.eye(2) / 2)

    def test_matches_density_mixture(self):
        st = ce.make_algebra([(2, 1)])
        om0 = ce.state_from_density(np.diag([1.0, 0.0]).astype(complex), st)
        om1 = ce.state_from_density(np.diag([0.0, 1.0]).astype(complex), st)
        mix = convex_combine([om0, om1], [1 / 3, 2 / 3])
        assert np.allclose(ce.representative_density(mix).matrix,
                           np.diag([1 / 3, 2 / 3]), atol=1e-12)

    def test_representatives_combine_affinely(self):
        rng = rng_stream(11)
        st = random_structure(rng)
        om_a, om_b = random_state(rng, st), random_state(rng, st)
        lam = 0.3
        mix = convex_combine([om_a, om_b], [lam, 1 - lam])
        expected = lam * ce.representative_density(om_a).matrix \
            + (1 - lam) * ce.representative_density(om_b).matrix
        assert np.allclose(ce.representative_density(mix).matrix, expected, atol=1e-9)

    def test_mismatched_structures_rejected(self):
        rng = rng_stream(12)
        st_a, st_b = ce.make_algebra([(2, 1)]), ce.make_algebra([(1, 1), (1, 1)])
        om_a = random_state(rng, st_a)
        om_b = random_state(rng, st_b)
        with pytest.raises(ValidationError):
            convex_combine([om_a, om_b], [0.5, 0.5])


class TestStateFromValues:
    def test_declared_basis_roundtrip(self):
        rng = rng_stream(13)
        st = ce.make_algebra([(2, 1), (1, 1)])
        om = random_state(rng, st)
        basis = list(embedded_standard_basis(st))
        values = [np.trace(ce.representative_density(om).matrix @ b) for b in basis]
        om2 = ce.state_from_values(st, basis, values)
        assert np.allclose(om.values(), om2.values(), atol=1e-9)

    def test_missing_basis_element_rejected(self):
        # four of the five elements of C^{2x2} (+) C: omega(E11 - E22) is never given
        st = ce.make_algebra([(2, 1), (1, 1)])
        units = embedded_standard_basis(st)
        basis = [units[0] + units[3], units[1], units[2], units[4]]
        with pytest.raises(ValidationError, match="exactly 5"):
            ce.state_from_values(st, basis, [0.6, 0.0, 0.0, 0.4])

    def test_dependent_basis_element_rejected(self):
        st = ce.make_algebra([(2, 1), (1, 1)])
        units = embedded_standard_basis(st)
        basis = [units[0], units[1], units[2], units[4], units[0] + units[4]]
        with pytest.raises(ValidationError, match="linearly independent"):
            ce.state_from_values(st, basis, [0.3, 0.0, 0.0, 0.4, 0.7])

    def test_basis_element_outside_algebra_rejected(self):
        # the functional would vanish on the outside element's coefficient, so
        # a solve in the span of the declared matrices would accept it
        st = ce.make_algebra([(1, 1), (1, 1)])
        outside = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
        basis = [np.diag([1.0, 0.0]).astype(complex), outside]
        with pytest.raises(ValidationError, match="does not lie in the embedded algebra"):
            ce.state_from_values(st, basis, [1.0, 0.0])

    def test_basis_element_of_wrong_size_rejected(self):
        st = ce.make_algebra([(1, 1), (1, 1)])
        with pytest.raises(ValidationError):
            ce.state_from_values(st, [np.eye(2), np.eye(3)], [1.0, 1.0])

    def test_non_positive_values_rejected(self):
        st = ce.make_algebra([(2, 1)])
        basis = list(embedded_standard_basis(st))
        values = [1.5, 0.0, 0.0, -0.5]
        with pytest.raises(NotAStateError):
            ce.state_from_values(st, basis, values)


class TestDecompositionContainer:
    def test_density_reconstruction(self):
        st = ce.make_algebra([(2, 2)])
        psi = np.array([1.0, 0.0], dtype=complex)
        dec = ce.Decomposition(st, ((1.0, 0, psi),))
        expected = np.kron(np.outer(psi, psi.conj()), np.eye(2) / 2)
        assert np.allclose(dec.density(), expected)

    def test_rejects_unnormalized_weights(self):
        st = ce.make_algebra([(2, 1)])
        psi = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValidationError):
            ce.Decomposition(st, ((0.7, 0, psi),))

    def test_rejects_non_unit_vector(self):
        st = ce.make_algebra([(2, 1)])
        with pytest.raises(ValidationError):
            ce.Decomposition(st, ((1.0, 0, np.array([1.0, 1.0])),))

    @pytest.mark.parametrize("components, message", [
        (((1.0, 1, np.array([1.0, 0.0])),), "block index 1 out of range"),
        (((1.0, 0, np.array([1.0, 0.0, 0.0])),), "component vector does not match its block"),
        ((), "a decomposition needs at least one component"),
    ], ids=["block_index", "vector_shape", "empty"])
    def test_rejects_malformed_components(self, components, message):
        with pytest.raises(ValidationError, match=message):
            ce.Decomposition(ce.make_algebra([(2, 1)]), components)

    def test_readers_trust_the_constructors_margin(self):
        # weights sum to 1 + 9e-9 and vectors have norm 1 + 9e-9, both within Cutoff.UNIT_NORM;
        # the density's trace 1 + 2.7e-8 is within the state rule's normalization cutoff
        st = ce.make_algebra([(2, 1)])
        w, s = 0.5 + 4.5e-9, 1 + 9e-9
        dec = ce.Decomposition(st, ((w, 0, np.array([s, 0.0])), (w, 0, np.array([0.0, s]))))
        assert np.allclose(dec.state().values(), [0.5, 0.0, 0.0, 0.5], atol=1e-7)
        assert ce.decomposition_entropy(dec) == pytest.approx(np.log(2), abs=1e-15)

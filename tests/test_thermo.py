"""Tests for definite values, Zeno rotations and the gas-entropy ledger."""

import numpy as np
import pytest

import cstar_entropy as ce
from cstar_entropy.errors import DisconnectedSectorsError, ValidationError

from helpers import (random_pure_state, random_state, random_structure, rng_stream,
                     sectors_connectable)

ZENO_10 = 0.7805460697811408  # cos(pi/20)^20, direct evaluation
STEP_10 = 0.9755282581475768  # cos(pi/20)^2


def _account(structure, entropies=None, copies=1, temperature=1.0, k_b=1.0):
    s = np.zeros(structure.num_blocks) if entropies is None else np.asarray(entropies, float)
    return ce.GasAccount(copies=copies, temperature=temperature,
                         sector_entropies=s, boltzmann=k_b)


class TestHasDefiniteValue:
    def test_eigenstate_has_definite_eigenvalue(self):
        st = ce.make_algebra([(2, 1)])
        om = ce.StateFunctional.from_canonical(st, [1.0], [np.diag([0.0, 1.0])])
        a = ce.AlgebraElement(st, (np.diag([3.0, 7.0]),))
        definite, value = ce.has_definite_value(om, a)
        assert definite
        assert value == pytest.approx(7.0, abs=1e-12)

    def test_maximally_mixed_has_no_definite_value(self):
        st = ce.make_algebra([(2, 1)])
        om = ce.state_from_density(np.eye(2) / 2, st)
        a = ce.AlgebraElement(st, (np.diag([0.0, 1.0]),))
        definite, value = ce.has_definite_value(om, a)
        assert not definite
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_definite_value_implies_spectral_projector(self):
        # a pure state definite on a nondegenerate observable sits on one eigenvector
        st = ce.make_algebra([(3, 1)])
        rng = rng_stream(90)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        a = ce.AlgebraElement(st, (u @ np.diag([1.0, 2.0, 3.0]) @ u.conj().T,))
        psi = u[:, 1]
        om = ce.StateFunctional.from_canonical(st, [1.0], [np.outer(psi, psi.conj())])
        definite, value = ce.has_definite_value(om, a)
        assert definite
        assert value == pytest.approx(2.0, abs=1e-9)
        rep = ce.representative_density(om).matrix
        assert np.allclose(rep, np.outer(psi, psi.conj()), atol=1e-9)

    def test_non_selfadjoint_rejected(self):
        st = ce.make_algebra([(2, 1)])
        rng = rng_stream(91)
        om = random_state(rng, st)
        a = ce.AlgebraElement(st, (np.array([[0.0, 1.0], [0.0, 0.0]]),))
        with pytest.raises(ValidationError):
            ce.has_definite_value(om, a)


class TestZenoSequence:
    def test_endpoints(self):
        phi = np.array([1.0, 0.0], dtype=complex)
        psi = np.array([0.0, 1.0], dtype=complex)
        vectors, probs = ce.zeno_sequence(phi, psi, k=1)
        assert np.allclose(vectors[0], phi)
        assert np.allclose(vectors[-1], psi)
        assert probs == [pytest.approx(0.0, abs=1e-30)]

    def test_step_probability_and_unit_norms(self):
        phi = np.array([1.0, 0.0, 0.0], dtype=complex)
        psi = np.array([0.0, 1.0j, 0.0], dtype=complex)
        vectors, probs = ce.zeno_sequence(phi, psi, k=10)
        assert len(vectors) == 11
        assert all(p == pytest.approx(STEP_10, abs=1e-12) for p in probs)
        for v in vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_consecutive_overlaps(self):
        phi = np.array([1.0, 0.0], dtype=complex)
        psi = np.array([0.0, 1.0], dtype=complex)
        k = 7
        vectors, _ = ce.zeno_sequence(phi, psi, k=k)
        for a, b in zip(vectors, vectors[1:]):
            assert abs(np.vdot(a, b)) == pytest.approx(np.cos(np.pi / (2 * k)), abs=1e-12)

    def test_product_of_step_probabilities(self):
        phi = np.array([1.0, 0.0], dtype=complex)
        psi = np.array([0.0, 1.0], dtype=complex)
        _, probs = ce.zeno_sequence(phi, psi, k=10)
        assert np.prod(probs) == pytest.approx(ZENO_10, abs=1e-12)

    def test_disconnected_sectors_rejected(self):
        phi = np.array([1.0, 0.0], dtype=complex)
        psi = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(DisconnectedSectorsError):
            ce.zeno_sequence(phi, psi, k=3, block_phi=0, block_psi=1)

    def test_non_orthogonal_rejected(self):
        v = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValidationError):
            ce.zeno_sequence(v, v, k=3)

    def test_vectors_of_different_lengths_rejected(self):
        with pytest.raises(ValidationError, match="one-dimensional and of equal length"):
            ce.zeno_sequence(np.eye(2)[0], np.eye(3)[1], k=3)


class TestZenoSuccessProbability:
    def test_single_step_is_zero(self):
        assert ce.zeno_success_probability(1) == pytest.approx(0.0, abs=1e-30)

    def test_ten_steps(self):
        assert ce.zeno_success_probability(10) == pytest.approx(ZENO_10, abs=1e-12)

    def test_many_steps_approach_one(self):
        assert ce.zeno_success_probability(10_000) >= 0.999

    def test_monotone_on_log_grid(self):
        grid = [1, 2, 3, 5, 10, 30, 100, 300, 1000, 10_000, 100_000]
        values = [ce.zeno_success_probability(k) for k in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_asymptotic_lower_bound(self):
        for k in [2, 5, 10, 100, 1000, 100_000]:
            assert ce.zeno_success_probability(k) >= 1.0 - np.pi ** 2 / (4 * k)

    @pytest.mark.parametrize("k", [0, -3, 2.5, True, "3", float("nan")])
    def test_invalid_k_rejected(self, k):
        with pytest.raises(ValidationError):
            ce.zeno_success_probability(k)


class TestCompressionHeat:
    def test_full_weight_no_compression(self):
        st = ce.make_algebra([(2, 1)])
        assert ce.compression_heat(1.0, _account(st)) == 0.0

    def test_half_weight(self):
        st = ce.make_algebra([(2, 1)])
        assert ce.compression_heat(0.5, _account(st)) == pytest.approx(
            0.5 * np.log(0.5), abs=1e-12)

    def test_scales_with_copies_temperature_boltzmann(self):
        st = ce.make_algebra([(2, 1)])
        acct = _account(st, copies=10, temperature=2.0, k_b=3.0)
        assert ce.compression_heat(0.5, acct) == pytest.approx(
            3.0 * 0.5 * 10 * 2.0 * np.log(0.5), abs=1e-10)

    def test_invalid_weight_rejected(self):
        st = ce.make_algebra([(2, 1)])
        for w in [0.0, -0.1, 1.5]:
            with pytest.raises(ValidationError):
                ce.compression_heat(w, _account(st))

    def test_heat_ledger_closes_to_von_neumann(self):
        # summing -Q/(k_B M T) over the minimal decomposition weights gives
        # the von Neumann entropy of the representative (no multiplicities)
        rng = rng_stream(92)
        for _ in range(5):
            st = random_structure(rng, multiplicities=False)
            om = random_state(rng, st)
            acct = _account(st, copies=3, temperature=0.7, k_b=2.0)
            dec = ce.minimal_decomposition(om)
            total = -sum(ce.compression_heat(w, acct) for w in dec.weights())
            total /= acct.boltzmann * acct.copies * acct.temperature
            vn = ce.von_neumann(ce.representative_density(om))
            assert total == pytest.approx(vn, abs=1e-9)


class TestGasEntropy:
    def test_zero_entropies_multiplicity_free(self):
        rng = rng_stream(93)
        st = random_structure(rng, multiplicities=False)
        om = random_state(rng, st)
        assert ce.gas_entropy(om, _account(st)) == pytest.approx(
            ce.state_entropy(om).state_entropy, abs=1e-9)

    def test_pure_state_with_zero_entropies(self):
        rng = rng_stream(94)
        st = random_structure(rng, multiplicities=False)
        om = random_pure_state(rng, st)
        assert ce.gas_entropy(om, _account(st)) == pytest.approx(0.0, abs=1e-9)

    def test_two_sector_hand_value(self):
        st = ce.make_algebra([(1, 1), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [0.5, 0.5], [np.eye(1), np.eye(1)])
        acct = _account(st, entropies=[0.0, np.log(2)])
        assert ce.gas_entropy(om, acct) == pytest.approx(
            np.log(2) + 0.5 * np.log(2), abs=1e-12)

    def test_sector_count_mismatch_rejected(self):
        st = ce.make_algebra([(1, 1), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [0.5, 0.5], [np.eye(1), np.eye(1)])
        with pytest.raises(ValidationError):
            ce.gas_entropy(om, _account(ce.make_algebra([(1, 1)])))


class TestSectorsConnectable:
    def test_same_block(self):
        rng = rng_stream(95)
        st = ce.make_algebra([(2, 1), (2, 1)])
        om_a = random_pure_state(rng, st, block=0)
        om_b = random_pure_state(rng, st, block=0)
        assert sectors_connectable(om_a, om_b)

    def test_different_blocks(self):
        rng = rng_stream(96)
        st = ce.make_algebra([(2, 1), (2, 1)])
        om_a = random_pure_state(rng, st, block=0)
        om_b = random_pure_state(rng, st, block=1)
        assert not sectors_connectable(om_a, om_b)

    def test_state_with_itself(self):
        rng = rng_stream(97)
        st = ce.make_algebra([(3, 1), (1, 1)])
        om = random_pure_state(rng, st)
        assert sectors_connectable(om, om)

    def test_mixed_state_rejected(self):
        rng = rng_stream(98)
        st = ce.make_algebra([(2, 1), (2, 1)])
        om_mixed = random_state(rng, st)
        om_pure = random_pure_state(rng, st)
        with pytest.raises(ValidationError):
            sectors_connectable(om_mixed, om_pure)

    def test_states_over_different_algebras_rejected(self):
        rng = rng_stream(99)
        om_a = random_pure_state(rng, ce.make_algebra([(2, 1), (2, 1)]))
        om_b = random_pure_state(rng, ce.make_algebra([(2, 1)]))
        with pytest.raises(ValidationError, match="different block structures"):
            sectors_connectable(om_a, om_b)

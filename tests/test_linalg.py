"""Tests for the contracts of the orthonormal extension, of the random stream, of the
tolerance argument and of the cutoff table."""

import inspect

import numpy as np
import pytest

import cstar_entropy as ce
from cstar_entropy import _linalg
from cstar_entropy._linalg import Cutoff, complex_gaussian, orthonormal_extend
from cstar_entropy.errors import ValidationError

from helpers import embedded_standard_basis, rng_stream


def _orthonormal_rows(rng, k, n):
    q, _ = np.linalg.qr(complex_gaussian((n, k), rng))
    return q.T.copy()


class TestOrthonormalExtend:
    def test_input_rows_come_first_unchanged(self):
        rng = rng_stream(41)
        basis = _orthonormal_rows(rng, 3, 10)
        out = orthonormal_extend(basis, complex_gaussian((4, 10), rng), 1e-9)
        assert out.shape == (7, 10)
        assert np.array_equal(out[:3], basis)

    def test_output_rows_are_orthonormal(self):
        rng = rng_stream(42)
        basis = _orthonormal_rows(rng, 2, 12)
        # more candidates than free directions, with a dependent pair among them
        cand = complex_gaussian((8, 12), rng)
        cand[5] = 2.0 * cand[1] - 1j * cand[2]
        out = orthonormal_extend(basis, cand, 1e-9)
        assert out.shape == (9, 12)
        assert np.allclose(out @ out.conj().T, np.eye(9), atol=1e-12)

    def test_candidates_in_the_span_add_nothing(self):
        rng = rng_stream(43)
        basis = _orthonormal_rows(rng, 4, 9)
        cand = complex_gaussian((6, 4), rng) @ basis
        out = orthonormal_extend(basis, cand, 1e-9)
        assert np.array_equal(out, basis)

    def test_cutoff_is_absolute(self):
        basis = np.eye(4, dtype=complex)[:1]
        # residual norms 1e-3 and 1e-6; scaling the candidates up moves the second
        # across the cutoff, which a cutoff relative to the candidates would not
        cand = np.array([[5.0, 1e-3, 0.0, 0.0], [0.0, 0.0, 1e-6, 0.0]], dtype=complex)
        assert orthonormal_extend(basis, cand, 1e-5).shape == (2, 4)
        assert orthonormal_extend(basis, cand, 1e-7).shape == (3, 4)
        assert orthonormal_extend(basis, 1e3 * cand, 1e-5).shape == (3, 4)

    def test_new_rows_have_a_real_positive_largest_entry(self):
        rng = rng_stream(44)
        out = orthonormal_extend(np.zeros((0, 6), dtype=complex),
                                 complex_gaussian((3, 6), rng), 1e-9)
        lead = out[np.arange(3), np.argmax(np.abs(out), axis=1)]
        assert np.allclose(lead.imag, 0.0) and np.all(lead.real > 0)

    def test_empty_basis(self):
        out = orthonormal_extend(np.zeros((0, 4), dtype=complex), np.array([[3.0, 0, 0, 0]]), 1e-9)
        assert np.allclose(out, [[1.0, 0, 0, 0]])

    def test_empty_candidates(self):
        basis = np.eye(3, dtype=complex)[:2]
        assert np.array_equal(orthonormal_extend(basis, np.zeros((0, 3)), 1e-9), basis)
        empty = orthonormal_extend(np.zeros((0, 3), dtype=complex), np.zeros((0, 3)), 1e-9)
        assert empty.shape == (0, 3)


@pytest.mark.parametrize("key", [(1, 0), (1, 3), (2, 7), (3,), (4,)])
@pytest.mark.parametrize("seed", [-1, 0, 5, 2 ** 128 + 5])
def test_rng_stream_is_sfc64_keyed_by_a_seed_sequence(seed, key):
    ref = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed % 2 ** 128, spawn_key=key)))
    rng = _linalg.rng_stream(seed, *key)
    assert np.array_equal(rng.standard_normal(64), ref.standard_normal(64))
    assert np.array_equal(rng.integers(0, 10 ** 6, size=64), ref.integers(0, 10 ** 6, size=64))


@pytest.mark.parametrize("seed", [True, 2.5], ids=["bool", "float"])
def test_rng_stream_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValidationError, match="seed must be an integer"):
        _linalg.rng_stream(seed, 1, 0)


_ST = ce.make_algebra([(2, 1), (1, 1)])
_OM = ce.StateFunctional.from_canonical(_ST, [2 / 3, 1 / 3], [np.eye(2) / 2, np.eye(1)])
_G = ce.gns_construct(_OM)
_GENS = [np.diag([1.0, 2.0, 3.0])]
_SUB = ce.generate_subalgebra(_GENS)

# every public function that takes tol, called on valid inputs
_TOL_CALLS = {
    "is_pure": lambda tol: ce.is_pure(_OM, tol),
    "state_from_values": lambda tol: ce.state_from_values(
        _ST, list(embedded_standard_basis(_ST)), _OM.values(), tol),
    "canonical_form": lambda tol: ce.canonical_form(ce.representative_density(_OM), _ST, tol),
    "state_entropy": lambda tol: ce.state_entropy(_OM, tol),
    "minimal_decomposition": lambda tol: ce.minimal_decomposition(_OM, tol),
    "infimum_oracle": lambda tol: ce.infimum_oracle(_OM, samples=1, tol=tol),
    "oracle_decomposition": lambda tol: ce.oracle_decomposition(_OM, 1, tol=tol),
    "gns_construct": lambda tol: ce.gns_construct(_OM, tol),
    "gns_commutant_functional": lambda tol: ce.gns_commutant_functional(_G, np.eye(_G.dim), tol),
    "gns_state_entropy": lambda tol: ce.gns_state_entropy(_OM, tol),
    "has_definite_value": lambda tol: ce.has_definite_value(_OM, ce.identity(_ST), tol),
    "gas_entropy": lambda tol: ce.gas_entropy(_OM, ce.GasAccount(1, 1.0, np.zeros(2)), tol),
    "block_decompose": lambda tol: ce.block_decompose(_SUB.basis, tol),
    "generate_subalgebra": lambda tol: ce.generate_subalgebra(_GENS, tol),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0, True],
                         ids=["nan", "inf", "negative", "zero", "bool"])
@pytest.mark.parametrize("name", sorted(_TOL_CALLS))
def test_tol_that_is_not_a_positive_finite_number_is_rejected(name, tol):
    _TOL_CALLS[name](None)
    with pytest.raises(ValidationError, match="tol must be a positive finite number"):
        _TOL_CALLS[name](tol)


# every public function whose tol defaults to a float, called on exact inputs; there tol = 0
# asks for an exact check
_EXACT_TOL_CALLS = {
    "is_selfadjoint": lambda tol: ce.identity(_ST).is_selfadjoint(tol),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, True], ids=["nan", "inf", "negative", "bool"])
@pytest.mark.parametrize("name", sorted(_EXACT_TOL_CALLS))
def test_tol_that_is_not_a_nonnegative_finite_number_is_rejected(name, tol):
    _EXACT_TOL_CALLS[name](1e-9)
    with pytest.raises(ValidationError, match="tol must be a nonnegative finite number"):
        _EXACT_TOL_CALLS[name](tol)


@pytest.mark.parametrize("name", sorted(_EXACT_TOL_CALLS))
def test_zero_tol_is_an_exact_check(name):
    _EXACT_TOL_CALLS[name](0)
    _EXACT_TOL_CALLS[name](0.0)


_HALVES = ce.StateFunctional.from_canonical(ce.make_algebra([(1, 1), (1, 1)]), [0.5, 0.5],
                                           [np.eye(1), np.eye(1)])
_ACCOUNT = ce.GasAccount(1, 1.0, np.zeros(2))


@pytest.mark.parametrize("call, shown", [
    (lambda: ce.state_entropy(_HALVES, np.float64(0.9)), "tol 0.9 discards every sector"),
    (lambda: ce.generate_subalgebra(_GENS, tol=np.float32(-1)), "got -1.0"),
    (lambda: ce.identity(_ST).is_selfadjoint(np.float64(-1)), "got -1.0"),
    (lambda: ce.infimum_oracle(_OM, samples=np.int64(0)), "samples must be at least 1, got 0"),
    (lambda: ce.oracle_decomposition(_OM, np.int64(-1)), "index must be at least 0, got -1"),
    (lambda: ce.zeno_sequence(np.eye(2)[0], np.eye(2)[1], np.int64(0)), "got 0"),
    (lambda: ce.GasAccount(1, np.float64(-1.0), np.zeros(2)), "temperature must be a positive "
     "finite number, got -1.0"),
    (lambda: ce.compression_heat(np.float64(2.0), _ACCOUNT), "weight 2.0 outside (0, 1]"),
], ids=["state_entropy", "resolve_tol", "check_tol", "infimum_oracle", "oracle_decomposition",
        "zeno_sequence", "gas_account", "compression_heat"])
def test_messages_print_numpy_scalars_as_python_numbers(call, shown):
    with pytest.raises(ValidationError) as err:
        call()
    assert shown in str(err.value) and "np." not in str(err.value)


def test_random_isometry_needs_at_least_as_many_rows_as_columns():
    with pytest.raises(ValueError, match="rows >= cols"):
        _linalg.random_isometry(2, 3, rng_stream(1))


# Each entry of the cutoff table next to the inline expression it replaced, kept here as the
# reference.  Where the replaced expression read a tol parameter that is gone, its default
# stands in: 1e-8 for the unitary checks, 1e-9 for shannon, majorizes and zeno_sequence.
_REPLACED = {
    "TOL": 1e-9,
    "WEIGHT_FLOOR": 1e-12,
    "PROBABILITY": 1e-9,
    "UNIT_NORM": 1e-8,
    "ALIGN_SCALE": 1e-8,
    "ALIGN_DEFECT": 1e-6,
    "CONDITION": 1e6,
    "ZENO": 1e-9 * 100,
    "default": lambda scale: 1e-9 if scale <= 64 else 1e-9 * scale / 64.0,
    "spectral": lambda tol, scale: tol * max(scale, 1e-300),
    "coupling": lambda tol, scale: max(1e-8, tol) * scale,
    "identity_in_span": lambda tol, scale: max(tol, 1e-9) * 10 * scale,
    "certificate": lambda tol: max(1e-6, 100.0 * tol),
    "identity_defect": lambda scale: 1e-8 * scale,
    "gram": lambda scale: 1e-7 * scale,
    "unitary": lambda scale: 1e-8 * max(1.0, scale),
    "probability_sum": lambda scale: max(1e-9, 1e-12) * scale,
    "defect": lambda tol, scale: tol * max(1.0, scale) * 10,
    "selfadjoint": lambda tol, scale: tol * 100 * max(1.0, scale),
    "eigenvalue": lambda tol: tol * 10,
    "aggregate": lambda tol: tol * 100,
    "span": lambda tol: max(tol * 100, 1e-7),
    "variance": lambda tol: max(tol * 100, 1e-10),
}
# call sites that negate an entry replaced these expressions
_NEGATED = {
    "WEIGHT_FLOOR": -1e-12,
    "eigenvalue": lambda tol: -tol * 10,
    "defect": lambda tol, scale: -tol * max(1.0, scale) * 10,
}
_TOLS = [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.5]
_SCALES = [0.0, 1e-300, 1.0, 37.5, 1e6]


def _bits(x):
    return np.float64(x).tobytes()


def _grid(reference):
    """Keyword arguments for the reference over the grid of tol and scale, with the scale both
    a float and a numpy float; one None for a constant."""
    if not callable(reference):
        return [None]
    params = inspect.signature(reference).parameters
    return [{k: v for k, v in (("tol", t), ("scale", s)) if k in params}
            for t in _TOLS for s in _SCALES + [np.float64(s) for s in _SCALES]]


def _value(entry, kwargs):
    return entry if kwargs is None else entry(**kwargs)


def test_cutoff_table_has_one_reference_per_entry():
    entries = {name for name in vars(Cutoff) if not name.startswith("_")}
    assert entries == set(_REPLACED)
    for name, reference in _REPLACED.items():
        if callable(reference):
            assert inspect.signature(getattr(Cutoff, name)).parameters.keys() \
                == inspect.signature(reference).parameters.keys(), name


@pytest.mark.parametrize("name", sorted(_REPLACED))
def test_cutoff_is_bit_identical_to_the_expression_it_replaced(name):
    entry, reference = getattr(Cutoff, name), _REPLACED[name]
    for kwargs in _grid(reference):
        assert _bits(_value(entry, kwargs)) == _bits(_value(reference, kwargs)), (name, kwargs)


@pytest.mark.parametrize("name", sorted(_NEGATED))
def test_negated_cutoff_is_bit_identical_to_the_expression_it_replaced(name):
    entry, reference = getattr(Cutoff, name), _NEGATED[name]
    for kwargs in _grid(reference):
        assert _bits(-_value(entry, kwargs)) == _bits(_value(reference, kwargs)), (name, kwargs)

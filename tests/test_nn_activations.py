"""Unit tests for repro.nn.activations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.activations import (
    ELU,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Softplus,
    Tanh,
    available_activations,
    get_activation,
)

ALL_ACTIVATIONS = [Identity(), ReLU(), LeakyReLU(), Sigmoid(), Tanh(), ELU(), Softplus(), Softmax()]

SPECIAL_VALUES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
    750.0, -750.0, 1e300, -1e300,
]
RANDOM_SHAPES = pytest.mark.parametrize(
    "shape", [(257,), (33, 17), (3, 32, 64)], ids=["1d", "2d", "3d"]
)
RANDOM_SCALES = pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 800.0])


def _random_inputs(shape, scale):
    return np.random.default_rng(int(scale * 10) + len(shape)).normal(size=shape) * scale


def _assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestForwardValues:
    def test_relu_clamps_negatives(self):
        z = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(ReLU().forward(z), [0.0, 0.0, 0.0, 0.5, 2.0])

    def test_identity_returns_input(self):
        z = np.array([-1.0, 0.0, 3.5])
        np.testing.assert_allclose(Identity().forward(z), z)

    def test_sigmoid_range_and_midpoint(self):
        z = np.array([-50.0, 0.0, 50.0])
        out = Sigmoid().forward(z)
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_is_numerically_stable_for_large_inputs(self):
        z = np.array([-1000.0, 1000.0])
        out = Sigmoid().forward(z)
        assert np.all(np.isfinite(out))

    @staticmethod
    def _masked_sigmoid(z: np.ndarray) -> np.ndarray:
        """The earlier boolean-mask gather/scatter form, kept as the reference."""
        out = np.empty_like(z)
        positive = z >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
        exp_z = np.exp(z[~positive])
        out[~positive] = exp_z / (1.0 + exp_z)
        return out

    @pytest.mark.parametrize(
        "shape", [(257,), (33, 17), (3, 32, 64)], ids=["1d", "2d", "3d"]
    )
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 800.0])
    def test_sigmoid_bits_match_masked_form_on_random_inputs(self, shape, scale):
        z = np.random.default_rng(int(scale * 10) + len(shape)).normal(size=shape) * scale
        with np.errstate(under="ignore"):
            expected = self._masked_sigmoid(z)
            got = Sigmoid().forward(z)
            got_transposed = Sigmoid().forward(z.T)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(
            got_transposed.view(np.int64), expected.T.view(np.int64)
        )

    def test_sigmoid_bits_match_masked_form_on_special_values(self):
        z = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
             750.0, -750.0, 745.2, -745.2, 1e300, -1e300, 709.8, -709.8]
        )
        with np.errstate(under="ignore"):
            expected = self._masked_sigmoid(z)
            got = Sigmoid().forward(z)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        assert got.shape == z.shape

    def test_tanh_matches_numpy(self):
        z = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(Tanh().forward(z), np.tanh(z))

    def test_leaky_relu_negative_slope(self):
        out = LeakyReLU(alpha=0.1).forward(np.array([-10.0, 10.0]))
        np.testing.assert_allclose(out, [-1.0, 10.0])

    def test_elu_continuity_at_zero(self):
        elu = ELU(alpha=1.0)
        assert elu.forward(np.array([0.0]))[0] == pytest.approx(0.0)
        assert elu.forward(np.array([-1e-9]))[0] == pytest.approx(0.0, abs=1e-8)

    def test_softplus_positive_everywhere(self):
        z = np.linspace(-20, 20, 41)
        assert np.all(Softplus().forward(z) > 0)

    def test_softmax_rows_sum_to_one(self):
        z = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
        out = Softmax().forward(z)
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0])

    def test_softmax_invariant_to_constant_shift(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(Softmax().forward(z), Softmax().forward(z + 100.0))

    @staticmethod
    def _reference_softmax(z: np.ndarray) -> np.ndarray:
        """The earlier np.max / np.sum form, kept as the reference."""
        shifted = z - np.max(z, axis=-1, keepdims=True)
        exp_z = np.exp(shifted)
        return exp_z / np.sum(exp_z, axis=-1, keepdims=True)

    @RANDOM_SHAPES
    @RANDOM_SCALES
    def test_softmax_bits_match_reference_form_on_random_inputs(self, shape, scale):
        z = _random_inputs(shape, scale)
        with np.errstate(under="ignore"):
            _assert_same_bits(Softmax().forward(z), self._reference_softmax(z))
            _assert_same_bits(Softmax().forward(z.T), self._reference_softmax(z.T))

    def test_softmax_bits_match_reference_form_on_special_values(self):
        # Every ordered pair of special values shares a row with a finite one.
        rows = np.array([[a, b, 0.25] for a in SPECIAL_VALUES for b in SPECIAL_VALUES])
        vector = np.array(SPECIAL_VALUES)
        with np.errstate(all="ignore"):
            _assert_same_bits(Softmax().forward(rows), self._reference_softmax(rows))
            _assert_same_bits(Softmax().forward(vector), self._reference_softmax(vector))


class TestDerivatives:
    @pytest.mark.parametrize("activation", ALL_ACTIVATIONS[:-1], ids=lambda a: a.name)
    def test_derivative_matches_finite_difference(self, activation):
        z = np.linspace(-2.0, 2.0, 9) + 0.1  # avoid the ReLU kink at exactly 0
        eps = 1e-6
        numeric = (activation.forward(z + eps) - activation.forward(z - eps)) / (2 * eps)
        np.testing.assert_allclose(activation.derivative(z), numeric, rtol=1e-4, atol=1e-6)

    def test_relu_derivative_is_zero_one(self):
        d = ReLU().derivative(np.array([-1.0, 1.0]))
        np.testing.assert_allclose(d, [0.0, 1.0])

    def test_sigmoid_derivative_peak_at_zero(self):
        d = Sigmoid().derivative(np.array([0.0]))
        assert d[0] == pytest.approx(0.25)

    @staticmethod
    def _reference_derivative(activation, z: np.ndarray) -> np.ndarray:
        """The earlier forms, recomputing the forward pass from ``z``."""
        if isinstance(activation, Sigmoid):
            s = Sigmoid().forward(z)
            return s * (1.0 - s)
        t = np.tanh(z)
        return 1.0 - t * t

    @pytest.mark.parametrize("activation", [Sigmoid(), Tanh()], ids=lambda a: a.name)
    @RANDOM_SHAPES
    @RANDOM_SCALES
    def test_derivative_from_output_bits_match_recomputed_form(self, activation, shape, scale):
        z = _random_inputs(shape, scale)
        with np.errstate(under="ignore"):
            expected = self._reference_derivative(activation, z)
            _assert_same_bits(activation.derivative(z, output=activation.forward(z)), expected)
            _assert_same_bits(activation.derivative(z), expected)

    @pytest.mark.parametrize("activation", [Sigmoid(), Tanh()], ids=lambda a: a.name)
    def test_derivative_from_output_bits_match_recomputed_form_on_special_values(self, activation):
        z = np.array(SPECIAL_VALUES)
        with np.errstate(all="ignore"):
            expected = self._reference_derivative(activation, z)
            _assert_same_bits(activation.derivative(z, output=activation.forward(z)), expected)
            _assert_same_bits(activation.derivative(z), expected)

    @pytest.mark.parametrize("activation", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_derivative_given_forward_output_is_unchanged(self, activation):
        # Activations whose from-output form would differ ignore ``output``.
        z = np.concatenate([_random_inputs((3, 32, 8), 3.0).ravel(), SPECIAL_VALUES])
        with np.errstate(all="ignore"):
            _assert_same_bits(
                activation.derivative(z, output=activation.forward(z)), activation.derivative(z)
            )


class TestRegistry:
    def test_available_contains_expected_names(self):
        names = available_activations()
        for expected in ("relu", "sigmoid", "tanh", "softmax", "elu"):
            assert expected in names

    def test_get_activation_by_name(self):
        assert isinstance(get_activation("relu"), ReLU)
        assert isinstance(get_activation("  TANH "), Tanh)

    def test_get_activation_passthrough_instance(self):
        instance = ELU(alpha=0.5)
        assert get_activation(instance) is instance

    def test_get_activation_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            get_activation("swishy")

    def test_equality_and_hash_by_name(self):
        assert ReLU() == ReLU()
        assert ReLU() != Tanh()
        assert len({ReLU(), ReLU(), Tanh()}) == 2


class TestValidation:
    def test_leaky_relu_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            LeakyReLU(alpha=-0.1)

    def test_elu_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            ELU(alpha=0.0)

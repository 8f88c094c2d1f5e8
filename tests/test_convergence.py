import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nmfkit.convergence import (
    AngularTol,
    Checkpoint,
    ConvergenceTrace,
    FrobeniusTol,
    MaxIterOnly,
    angular_measure,
    match_columns,
    should_stop,
)
from nmfkit.errors import DimensionMismatch


def _cp(iteration, objective_sq, theta=None):
    return Checkpoint(
        iteration=iteration, objective_sq=objective_sq, theta_max_deg=theta, elapsed_s=0.0
    )


class TestAngularMeasure:
    def test_identical_columns_zero(self):
        W = np.random.default_rng(0).random((6, 3))
        assert np.allclose(angular_measure(W, W), 0.0, atol=1e-5)

    def test_positive_scaling_zero(self):
        W = np.random.default_rng(1).random((6, 3))
        assert np.allclose(angular_measure(W, 4.2 * W), 0.0, atol=1e-5)

    def test_orthogonal_columns_ninety(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.0], [1.0]])
        assert angular_measure(a, b)[0] == pytest.approx(90.0, abs=1e-10)

    def test_forty_five_degrees(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[1.0], [1.0]])
        assert angular_measure(a, b)[0] == pytest.approx(45.0, abs=1e-10)

    def test_zero_column_maps_to_ninety(self):
        a = np.array([[0.0], [0.0]])
        b = np.array([[1.0], [2.0]])
        assert angular_measure(a, b)[0] == pytest.approx(90.0)

    def test_columns_compared_indexwise(self):
        # swapping two distinct columns must register movement by default
        W = np.eye(3)
        W_swapped = W[:, [1, 0, 2]]
        thetas = angular_measure(W, W_swapped)
        assert thetas[0] == pytest.approx(90.0)
        assert thetas[2] == pytest.approx(0.0, abs=1e-10)

    def test_rematch_cancels_permutation(self):
        W = np.random.default_rng(2).random((8, 4)) + 0.1
        perm = [2, 0, 3, 1]
        Wc = W[:, perm]
        thetas = angular_measure(W, Wc[:, match_columns(Wc, W)])
        assert np.allclose(thetas, 0.0, atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            angular_measure(np.ones((3, 2)), np.ones((3, 3)))

    @given(
        arrays(np.float64, (5, 3), elements=st.floats(0.1, 10)),
        st.floats(0.1, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_property(self, W, c):
        base = angular_measure(W, W + 1.0)
        scaled = angular_measure(c * W, c * (W + 1.0))
        assert np.allclose(base, scaled, atol=1e-5)


class TestMatchColumns:
    def test_permutation_round_trip(self):
        rng = np.random.default_rng(3)
        W_ref = rng.random((10, 5)) + 0.05
        perm = np.array([3, 0, 4, 1, 2])
        W = W_ref[:, perm]
        found = match_columns(W, W_ref)
        assert np.array_equal(W[:, found], W_ref)

    def test_identity_when_aligned(self):
        W = np.random.default_rng(4).random((7, 4)) + 0.05
        assert np.array_equal(match_columns(W, W), np.arange(4))


class TestTrace:
    def test_append_requires_increasing_iterations(self):
        tr = ConvergenceTrace()
        tr.append(_cp(0, 10.0))
        tr.append(_cp(5, 8.0))
        with pytest.raises(ValueError):
            tr.append(_cp(5, 7.0))

    def test_objective_lookup(self):
        tr = ConvergenceTrace()
        tr.append(_cp(0, 10.0))
        tr.append(_cp(5, 4.0))
        assert tr.objective_at(5) == 4.0
        with pytest.raises(KeyError):
            tr.objective_at(3)

    def test_csv_round_trip_values(self, tmp_path):
        tr = ConvergenceTrace()
        tr.append(_cp(0, 10.123456789012345))
        tr.append(_cp(5, 4.000000000000001, theta=12.5))
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("iteration")
        assert len(lines) == 3
        # repr round-trip keeps full precision
        assert float(lines[1].split(",")[1]) == 10.123456789012345


class TestShouldStop:
    def test_maxiter_never_stops(self):
        tr = ConvergenceTrace()
        tr.append(_cp(0, 0.0))
        assert should_stop(MaxIterOnly(), tr, np.array([0.0])) is None

    def test_frobenius_boundary_inclusive(self):
        tr = ConvergenceTrace()
        tr.append(_cp(0, 4.0))  # residual = 2.0 exactly
        assert should_stop(FrobeniusTol(eps_f=2.0), tr, None) == "frobenius_tol"
        assert should_stop(FrobeniusTol(eps_f=1.999999), tr, None) is None

    def test_angular_uses_worst_column(self):
        tr = ConvergenceTrace()
        tr.append(_cp(10, 1.0, theta=5.0))
        assert should_stop(AngularTol(eps_deg=1.0), tr, np.array([0.1, 5.0])) is None
        assert should_stop(AngularTol(eps_deg=1.0), tr, np.array([0.1, 0.9])) == "angular_tol"

    def test_angular_boundary_inclusive(self):
        tr = ConvergenceTrace()
        tr.append(_cp(10, 1.0, theta=1.0))
        assert should_stop(AngularTol(eps_deg=1.0), tr, np.array([1.0])) == "angular_tol"

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            should_stop(MaxIterOnly(), ConvergenceTrace(), None)

    def test_angular_tolerance_range_validated(self):
        with pytest.raises(ValueError):
            AngularTol(eps_deg=0.0)
        with pytest.raises(ValueError):
            AngularTol(eps_deg=95.0)

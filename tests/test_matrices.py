import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    admissible_models,
    dense_weighted_norm,
    log_norm_columns,
    log_norm_l1,
    random_general_spec,
    random_weights,
    rate_parts,
    traced_peak,
    transform_product,
    upper_ones,
    upper_ones_inv,
)
from twoproc.bounds import fixed_alphas
from twoproc.matrices import (
    TRUNCATION_CAP,
    WeightSequence,
    _forcing,
    _layout,
    _rate_bands,
    _repeating_columns,
    build_A,
    build_B,
    build_transformed,
    format_matrix,
    weighted_norm,
)


class TestWeightSequence:
    def test_derived_sequence(self):
        w = WeightSequence(epsilon=0.25, delta1=1.5, delta=2.0)
        assert w.d(7).tolist() == [1.0, 0.25, 1.0, 1.5, 3.0, 6.0, 12.0]

    @pytest.mark.parametrize("eps,d1,d", [(0.0, 2, 2), (1.0, 2, 2), (0.5, 1.0, 2), (0.5, 2, 0.9)])
    def test_invalid_weights_rejected(self, eps, d1, d):
        with pytest.raises(ValueError):
            WeightSequence(epsilon=eps, delta1=d1, delta=d)


class TestGeneratorMatrix:
    def test_example_entries(self, ex1_spec):
        A = build_A(ex1_spec, 0.0, 6)
        assert A[0, 1] == 2.0  # fast completion (1,0) -> (0,0)
        assert A[0, 2] == 2.0  # slow completion (0,1) -> (0,0)
        assert A[3, 1] == 1.0  # arrival (1,0) -> (1,1)

    def test_hand_expanded_heterogeneous_matrix(self, ex3_spec):
        # rates at t = 0.25: lambda = 16, mu1 = 6, mu2 = 5, mu = 11
        expected = np.array(
            [
                [-16, 6, 5, 0, 0, 0, 0, 0],
                [16, -22, 0, 5, 0, 0, 0, 0],
                [0, 0, -21, 6, 0, 0, 0, 0],
                [0, 16, 16, -27, 11, 0, 0, 0],
                [0, 0, 0, 16, -27, 11, 0, 0],
                [0, 0, 0, 0, 16, -27, 11, 0],
                [0, 0, 0, 0, 0, 16, -27, 11],
                [0, 0, 0, 0, 0, 0, 16, -27],
            ],
            dtype=float,
        )
        assert np.allclose(build_A(ex3_spec, 0.25, 8), expected, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(admissible_models(), st.floats(0.0, 2.0), st.integers(5, 40))
    def test_column_sums(self, spec, t, n):
        A = build_A(spec, t, n)
        sums = A.sum(axis=0)
        lam, mu1, mu2 = spec.rates(t)
        scale = lam + mu1 + mu2
        assert np.max(np.abs(sums[:-1])) <= 1e-14 * scale
        assert sums[-1] == pytest.approx(-lam, abs=1e-14 * scale)  # the cut arrival outflow
        off = A - np.diag(np.diag(A))
        assert np.min(off) >= 0.0
        assert np.max(np.diag(A)) <= 0.0

    def test_peak_memory_is_the_output(self, ex3_spec):
        A, peak = traced_peak(lambda: build_A(ex3_spec, 0.3, 1024))
        assert peak <= 1.5 * A.nbytes  # forming the three parts densely peaked at 42 MB for 8.4 MB

    def test_conservative_variant_conserves_everywhere(self, ex2_spec):
        A = build_A(ex2_spec, 0.3, 9, conservative=True)
        assert np.max(np.abs(A.sum(axis=0))) <= 1e-14

    def test_too_small_truncation_rejected(self, ex1_spec):
        with pytest.raises(ValueError):
            build_A(ex1_spec, 0.0, 4)

    def test_too_large_truncation_rejected_before_allocating(self, ex1_spec, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("allocated before the size was checked")

        monkeypatch.setattr(np, "zeros", fail)
        for build in (build_A, build_transformed):
            args = (ex1_spec, WeightSequence(0.1, 2.0, 2.0)) if build is build_transformed else (ex1_spec,)
            with pytest.raises(ValueError, match="^truncation must keep at most 4096 states, got 100000$"):
                build(*args, 0.0, 100_000)


class TestRateBands:
    @pytest.mark.parametrize("conservative", [True, False])
    @pytest.mark.parametrize("n", [5, 6, 16, 127, 128, 300])
    def test_bands_are_the_diagonals_of_the_parts(self, n, conservative):
        parts = rate_parts(n, conservative)
        bands = _rate_bands(n, conservative)
        assert bands.shape == (3, 5, n)
        for d in range(-2, 3):
            # bands[:, 2 + d, j] is the entry at (j + d, j); columns j + d outside 0..n-1 hold 0
            inside = slice(max(0, -d), n - max(0, d))
            assert np.array_equal(bands[:, 2 + d, inside], np.diagonal(parts, -d, axis1=1, axis2=2))
            assert not bands[:, 2 + d, :max(0, -d)].any() and not bands[:, 2 + d, n - max(0, d):].any()
        # and the parts have no entry off the five diagonals
        assert np.count_nonzero(bands) == np.count_nonzero(parts)
        assert np.array_equal(_layout(bands), parts)

    @pytest.mark.parametrize("n", [5, 16, 300, TRUNCATION_CAP])
    def test_band_columns_sum_to_zero(self, n):
        assert np.all(_rate_bands(n, True).sum(axis=1) == 0.0)
        # the plain truncation keeps only the outflow of the arrival past the last state
        sums = _rate_bands(n, False).sum(axis=1)
        assert sums[0, -1] == -1.0
        sums[0, -1] = 0.0
        assert np.all(sums == 0.0)

    @pytest.mark.parametrize("n", [16, 300])
    def test_repeating_columns(self, n):
        # the solver tiles its step maps from the columns that repeat
        head, tail = _repeating_columns()
        bands = _rate_bands(n, True)
        same = np.all(bands == bands[:, :, head, None], axis=(0, 1))
        assert same[head:n - tail].all() and not same[:head].any() and not same[n - tail:].any()

    def test_layout_places_each_diagonal(self):
        bands = np.arange(1.0, 2 * 5 * 6 + 1).reshape(2, 5, 6)
        M = _layout(bands)
        assert M.shape == (2, 6, 6)
        for d in range(-2, 3):
            j = np.arange(max(0, -d), 6 - max(0, d))
            assert np.array_equal(M[:, j + d, j], bands[:, 2 + d, j])
        assert np.count_nonzero(M) == 2 * (6 + 2 * 5 + 2 * 4)


class TestReducedMatrix:
    def test_first_row(self, ex1_spec):
        B, f = build_B(ex1_spec, 0.0, 6)
        assert B[0, 0] == -4.0  # -(2 lambda + mu1)
        assert B[0, 1] == -1.0
        assert B[0, 2] == 1.0  # mu2 - lambda
        assert np.all(B[0, 3:] == -1.0)
        assert f[0] == 1.0 and np.all(f[1:] == 0.0)

    def test_cap_names_the_requested_n(self, ex1_spec):
        # B is cut from A on n + 1 states, so its own cap is one below TRUNCATION_CAP
        for n in (TRUNCATION_CAP, 100_000):
            with pytest.raises(ValueError, match=rf"^B keeps at most 4095 states \(A on n \+ 1\), got {n}$"):
                build_B(ex1_spec, 0.0, n)

    def test_forcing_vector(self, ex2_spec):
        _, f = build_B(ex2_spec, 0.25, 8)
        assert f[0] == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 12, 130])
    def test_elimination_of_the_empty_state(self, ex3_spec, n):
        for t in (0.0, 0.37):
            A = build_A(ex3_spec, t, n + 1)
            B, f = build_B(ex3_spec, t, n)
            assert np.array_equal(B, A[1:, 1:] - A[1:, :1])
            assert np.array_equal(f, A[1:, 0])
            assert np.array_equal(_forcing(ex3_spec, t, n), f)

    def test_peak_memory_is_the_output(self, ex3_spec):
        (B, f), peak = traced_peak(lambda: build_B(ex3_spec, 0.3, 1024))
        assert B.shape == (1024, 1024) and f.shape == (1024,)
        assert peak <= 1.5 * B.nbytes  # the dense parts and full-size temporaries peaked at 42 MB for 8.4 MB

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(admissible_models(), st.floats(0.0, 2.0), st.integers(5, 13), st.integers(0, 2**32 - 1))
    def test_substitution_oracle_against_full_system(self, spec, t, m, seed):
        # dz/dt from the reduced system must equal rows 1.. of the full system
        # with p00 reconstructed from normalization.
        rng = np.random.default_rng(seed)
        z = rng.random(m)
        z *= rng.uniform(0.1, 0.99) / z.sum()
        p = np.concatenate([[1.0 - z.sum()], z])
        A = build_A(spec, t, m + 1)
        B, f = build_B(spec, t, m)
        assert np.allclose(A @ p, np.concatenate([[(A @ p)[0]], B @ z + f]), atol=1e-12)


class TestTriangularTransform:
    def test_T_inverse_exact(self):
        for m in (5, 9, 17):
            assert np.array_equal(upper_ones(m) @ upper_ones_inv(m), np.eye(m))

    def test_closed_form_equals_explicit_product(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            spec = random_general_spec(rng)
            w = random_weights(rng)
            t = float(rng.uniform(0.0, 2.0))
            m = int(rng.integers(6, 16))
            M1 = build_transformed(spec, w, t, m)
            M2 = transform_product(spec, w, t, m)
            assert np.max(np.abs(M1[:, :-2] - M2[:, :-2])) <= 1e-12

    def test_equal_service_zero_coupling_entry(self, ex1_spec, ex1_weights):
        M = build_transformed(ex1_spec, ex1_weights, 0.0, 8)
        assert M[0, 1] == 0.0  # (d1/d2)(mu1 - mu2) vanishes

    def test_heterogeneous_averaged_entry(self, ex3_spec, ex3_weights):
        M = build_transformed(ex3_spec.averaged(), ex3_weights, 0.0, 8)
        assert M[1, 0] == pytest.approx(8.0 / 12.0, abs=1e-15)

    def test_essential_nonnegativity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            spec = random_general_spec(rng)
            w = random_weights(rng)
            t = float(rng.uniform(0.0, 2.0))
            M = build_transformed(spec, w, t, 10)
            off = M - np.diag(np.diag(M))
            assert np.min(off) >= -1e-14


class TestWeightedNorm:
    def test_first_basis_vector(self):
        w = WeightSequence(0.3, 1.5, 2.0)
        x = np.zeros((1, 6))
        x[0, 0] = 1.0
        assert weighted_norm(x, w)[0] == 1.0

    def test_cancelling_pair(self):
        w = WeightSequence(0.5, 1.5, 2.0)
        assert weighted_norm([[1.0, -1.0, 0.0, 0.0, 0.0]], w)[0] == 0.5

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            w = random_weights(rng)
            x = rng.normal(size=(3, int(rng.integers(4, 40))))
            dense = [dense_weighted_norm(row, w) for row in x]
            assert weighted_norm(x, w) == pytest.approx(dense, rel=1e-12)

    def test_reconstruction_chain_constant_on_probability_differences(self):
        # ||p' - p''||_1 <= 2 ||z' - z''||_1 always (p00 = 1 - sum z).
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = 12
            z1 = rng.random(m)
            z1 *= rng.uniform(0, 1) / z1.sum()
            z2 = rng.random(m)
            z2 *= rng.uniform(0, 1) / z2.sum()
            x = z1 - z2
            p_gap = abs(x.sum()) + np.sum(np.abs(x))
            assert p_gap <= 2.0 * np.sum(np.abs(x)) + 1e-15


class TestLogNorm:
    def test_symmetric_example(self):
        assert log_norm_l1(np.array([[-2.0, 1.0], [1.0, -2.0]])) == -1.0

    def test_zero_matrix(self):
        assert log_norm_l1(np.zeros((4, 4))) == 0.0

    def test_averaged_light_traffic_equals_certified_rate(self, ex1_spec, ex1_weights):
        M = build_transformed(ex1_spec.averaged(), ex1_weights, 0.0, 12)
        assert log_norm_l1(M) == pytest.approx(-(1.0 - ex1_weights.epsilon), abs=1e-12)

    def test_identity_with_alpha_minimum(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            spec = random_general_spec(rng)
            w = random_weights(rng)
            t = float(rng.uniform(0.0, 2.0))
            M = build_transformed(spec, w, t, 12)
            interior = float(np.max(log_norm_columns(M)[:-2]))
            assert interior == pytest.approx(-float(np.min(fixed_alphas(*spec.rates(t), w.d(6)))), abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            log_norm_l1(np.zeros((3, 4)))


def test_format_matrix_roundtrips_exactly():
    rng = np.random.default_rng(9)
    M = rng.normal(size=(5, 5)) * 10.0 ** rng.integers(-8, 8, size=(5, 5))
    lines = list(format_matrix(M))
    assert len(lines) == 5 and all(line.endswith("\n") for line in lines)
    text = "".join(lines)
    back = np.array([[float(v) for v in line.split()] for line in text.strip().splitlines()])
    assert np.array_equal(back, M)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmsub import (
    ModelSet,
    ModelSpec,
    ValidationError,
    build_design,
    enumerate_quadratic_models,
    validate_alpha,
)


class TestModelSpec:
    def test_column_count(self):
        spec = ModelSpec(main_effects=(0, 1), quadratic_terms=(0,))
        assert spec.n_params == 4

    def test_quadratic_must_be_main(self):
        with pytest.raises(ValidationError):
            ModelSpec(main_effects=(0, 1), quadratic_terms=(2,))

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            ModelSpec(main_effects=(0, 0))

    def test_term_labels(self):
        spec = ModelSpec(main_effects=(0, 1), quadratic_terms=(1,))
        assert spec.term_labels() == ["intercept", "x1", "x2", "x2^2"]
        assert spec.term_labels(["red", "green"]) == [
            "intercept",
            "red",
            "green",
            "green^2",
        ]


class TestBuildDesign:
    def test_main_effects_only(self):
        spec = ModelSpec(main_effects=(0, 1))
        row = build_design(spec, np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(row, [[1.0, 2.0, 3.0]])

    def test_one_quadratic(self):
        spec = ModelSpec(main_effects=(0, 1), quadratic_terms=(0,))
        row = build_design(spec, np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(row, [[1.0, 2.0, 3.0, 4.0]])

    def test_both_quadratics(self):
        spec = ModelSpec(main_effects=(0, 1), quadratic_terms=(0, 1))
        row = build_design(spec, np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(row, [[1.0, 2.0, 3.0, 4.0, 9.0]])

    def test_missing_column(self):
        spec = ModelSpec(main_effects=(0, 5))
        with pytest.raises(ValidationError):
            build_design(spec, np.ones((3, 2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_row_local(self, seed):
        # Permuting raw rows permutes design rows identically.
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(8, 3))
        perm = rng.permutation(8)
        spec = ModelSpec(main_effects=(0, 1, 2), quadratic_terms=(1,))
        np.testing.assert_array_equal(
            build_design(spec, raw[perm]), build_design(spec, raw)[perm]
        )


class TestValidateAlpha:
    def test_uniform_quarter(self):
        np.testing.assert_array_equal(
            validate_alpha([0.25, 0.25, 0.25, 0.25]), [0.25] * 4
        )

    def test_single(self):
        np.testing.assert_array_equal(validate_alpha([1.0]), [1.0])

    def test_bad_sum(self):
        with pytest.raises(ValidationError, match="sums to"):
            validate_alpha([0.5, 0.6])

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match="outside"):
            validate_alpha([1.2, -0.2])
        with pytest.raises(ValidationError, match="outside"):
            validate_alpha([np.nan, np.nan])


class TestEnumerateQuadraticModels:
    def test_two_continuous_gives_four(self):
        models = enumerate_quadratic_models(2, (0, 1))
        assert len(models) == 4
        quads = [spec.quadratic_terms for spec in models]
        assert quads == [(), (0,), (1,), (0, 1)]
        assert all(spec.main_effects == (0, 1) for spec in models)
        np.testing.assert_allclose(models.alpha, [0.25] * 4)

    def test_three_continuous_gives_eight(self):
        assert len(enumerate_quadratic_models(3, (0, 1, 2))) == 8

    def test_no_continuous_gives_main_only(self):
        models = enumerate_quadratic_models(2, ())
        assert len(models) == 1
        assert models.specs[0].quadratic_terms == ()
        np.testing.assert_array_equal(models.alpha, [1.0])

    def test_first_model_is_main_effects(self):
        for k in range(4):
            models = enumerate_quadratic_models(4, tuple(range(k)))
            assert len(models) == 2**k
            assert models.specs[0].quadratic_terms == ()

    def test_out_of_range_continuous(self):
        with pytest.raises(ValidationError):
            enumerate_quadratic_models(2, (3,))


class TestModelSet:
    def test_alpha_defaults_uniform(self):
        specs = (ModelSpec(main_effects=(0,)), ModelSpec(main_effects=(0,), quadratic_terms=(0,)))
        np.testing.assert_allclose(ModelSet(specs=specs).alpha, [0.5, 0.5])

    def test_alpha_length_mismatch(self):
        with pytest.raises(ValidationError):
            ModelSet(specs=(ModelSpec(main_effects=(0,)),), alpha=np.array([0.5, 0.5]))

    def test_index_of(self):
        models = enumerate_quadratic_models(2, (0, 1))
        assert models.index_of(ModelSpec(main_effects=(0, 1), quadratic_terms=(1,))) == 2
        with pytest.raises(ValidationError):
            models.index_of(ModelSpec(main_effects=(0,)))

    def test_max_params(self):
        assert enumerate_quadratic_models(2, (0, 1)).max_params == 5

    def test_columns_index_the_union_design(self):
        # Models that differ in main effects and list them out of order.
        specs = (
            ModelSpec(main_effects=(2, 0), quadratic_terms=(2,)),
            ModelSpec(main_effects=(1,)),
            ModelSpec(main_effects=(0, 1, 2), quadratic_terms=(0, 1)),
        )
        models = ModelSet(specs=specs)
        assert models.full_spec == ModelSpec(main_effects=(0, 1, 2), quadratic_terms=(0, 1, 2))
        assert [cols.tolist() for cols in models.columns] == [
            [0, 3, 1, 6],
            [0, 2],
            [0, 1, 2, 3, 4, 5],
        ]
        raw = np.random.default_rng(5).normal(size=(9, 4))
        full = build_design(models.full_spec, raw)
        for spec, cols in zip(specs, models.columns):
            own = build_design(spec, raw)
            assert full[:, cols].shape == own.shape
            assert full[:, cols].tobytes() == own.tobytes()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmsub.fitting
from glmsub import (
    LazyDesign,
    ModelSet,
    ModelSpec,
    ValidationError,
    build_design,
    enumerate_quadratic_models,
    validate_alpha,
)
from glmsub.fitting import _row_blocks
from glmsub.models import _feature_rows


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

    @pytest.mark.parametrize(
        "main, quadratic, message",
        [((0, 1), (1, 1), "duplicate quadratic term"), ((0, -1), (), "must be non-negative")],
        ids=["duplicate-quadratic", "negative-index"],
    )
    def test_bad_terms_rejected(self, main, quadratic, message):
        with pytest.raises(ValidationError, match=message):
            ModelSpec(main_effects=main, quadratic_terms=quadratic)

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


class TestFeatureRows:
    """Every design is built feature-major, ``(d, B)``, by one builder."""

    B = glmsub.fitting._BLOCK_ROWS

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("size", [1, B - 1, B, B + 1])
    def test_transpose_of_build_design_bit_for_bit(self, order, size):
        rng = np.random.default_rng(size)
        raw = np.asarray(rng.normal(size=(self.B + 40, 3)), order=order)
        picks = rng.integers(0, raw.shape[0], size=size)
        for spec in enumerate_quadratic_models(3, [0, 1, 2]).specs:
            for rows in (slice(0, size), slice(raw.shape[0] - size, None), picks):
                part = raw[rows]
                reference = np.column_stack(
                    [np.ones(size)]
                    + [part[:, i] for i in spec.main_effects]
                    + [part[:, i] ** 2 for i in spec.quadratic_terms]
                )
                design = build_design(spec, part)
                assert design.tobytes() == reference.tobytes()
                block = _feature_rows(spec, raw, rows)
                assert block.flags.c_contiguous
                assert block.tobytes() == np.ascontiguousarray(design.T).tobytes()

    def test_unsorted_terms_and_lazy_rows(self, rng):
        raw = rng.normal(size=(30, 3))
        spec = ModelSpec(main_effects=(2, 0), quadratic_terms=(0, 2))
        design = np.column_stack(
            [np.ones(30), raw[:, 2], raw[:, 0], raw[:, 0] ** 2, raw[:, 2] ** 2]
        )
        assert build_design(spec, raw).tobytes() == design.tobytes()
        assert build_design(spec, raw).flags.c_contiguous
        lazy = LazyDesign(spec, raw)
        assert lazy.shape == (30, 5)
        block = _feature_rows(lazy.spec, lazy.raw, slice(3, 9))
        assert block.tobytes() == np.ascontiguousarray(design[3:9].T).tobytes()

    def test_lazy_design_checks_covariates(self):
        with pytest.raises(ValidationError, match="covariate index 2"):
            LazyDesign(ModelSpec(main_effects=(0, 2)), np.ones((3, 2)))


class TestRowBlocks:
    """``fitting._row_blocks`` is the one walker of every N-row pass."""

    B = 16

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_blocks_cover_the_rows_once_in_order(self, n, rng, monkeypatch):
        monkeypatch.setattr(glmsub.fitting, "_BLOCK_ROWS", self.B)
        raw = rng.normal(size=(n, 3))
        spec = ModelSpec(main_effects=(2, 0), quadratic_terms=(0,))
        design = build_design(spec, raw)
        blocks = list(_row_blocks(design))
        lazy_blocks = list(_row_blocks(LazyDesign(spec, raw)))
        assert len(blocks) == len(lazy_blocks)
        stop = 0
        for (rows, xt), (lazy_rows, lazy_xt) in zip(blocks, lazy_blocks):
            start, end, step = rows.indices(n)
            assert (start, step) == (stop, 1) and end - start == min(self.B, n - start)
            assert lazy_rows.indices(n) == (start, end, step)
            stop = end
            expected = np.ascontiguousarray(design[start:end].T)
            for block in (xt, lazy_xt):
                assert block.flags.c_contiguous and block.shape == expected.shape
                assert block.tobytes() == expected.tobytes()
        assert stop == n


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

    def test_empty(self):
        with pytest.raises(ValidationError, match="at least one entry"):
            validate_alpha([])

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match="outside"):
            validate_alpha([1.2, -0.2])
        with pytest.raises(ValidationError, match="outside"):
            validate_alpha([np.nan, np.nan])


class TestEnumerateQuadraticModels:
    def test_two_continuous_gives_four(self):
        models = enumerate_quadratic_models(2, (0, 1))
        assert len(models) == 4
        quads = [spec.quadratic_terms for spec in models.specs]
        assert quads == [(), (0,), (1,), (0, 1)]
        assert all(spec.main_effects == (0, 1) for spec in models.specs)
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

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError, match="at least one model"):
            ModelSet(specs=())

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

import warnings

import numpy as np
import pytest

from glmsub import (
    CovariateColumn,
    DatasetDescriptor,
    Logistic,
    Scaling,
    ValidationError,
    apply_scaling,
    load_csv,
)


class TestApplyScaling:
    def test_range_to_unit(self):
        np.testing.assert_allclose(
            apply_scaling(np.array([0.0, 255.0]), Scaling.RANGE_TO_UNIT), [0.0, 1.0]
        )

    def test_standardize_population_variance(self):
        out = apply_scaling(np.array([1.0, 2.0, 3.0]), Scaling.STANDARDIZE)
        np.testing.assert_allclose(out, [-1.224744871391589, 0.0, 1.224744871391589])
        assert out.mean() == pytest.approx(0.0, abs=1e-15)
        assert np.var(out) == pytest.approx(1.0, rel=1e-12)

    def test_none_is_identity(self):
        col = np.array([3.0, 1.0, 7.0])
        np.testing.assert_array_equal(apply_scaling(col, Scaling.NONE), col)

    def test_constant_column_standardize(self):
        with pytest.raises(ValidationError, match="constant"):
            apply_scaling(np.full(4, 2.0), Scaling.STANDARDIZE, "c")

    def test_constant_column_range(self):
        with pytest.raises(ValidationError, match="constant"):
            apply_scaling(np.full(4, 2.0), Scaling.RANGE_TO_UNIT, "c")

    def test_standardize_idempotent(self, rng):
        col = rng.normal(3.0, 2.0, size=50)
        once = apply_scaling(col, Scaling.STANDARDIZE)
        twice = apply_scaling(once, Scaling.STANDARDIZE)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_range_idempotent_on_unit_data(self, rng):
        col = rng.random(50)
        col[0], col[1] = 0.0, 1.0  # pin the range to [0, 1]
        once = apply_scaling(col, Scaling.RANGE_TO_UNIT)
        np.testing.assert_allclose(apply_scaling(once, Scaling.RANGE_TO_UNIT), once)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def descriptor(path, scaling=Scaling.NONE, continuous=True):
    return DatasetDescriptor(
        path=path,
        response="y",
        covariates=(
            CovariateColumn("a", continuous=continuous, scaling=scaling),
            CovariateColumn("b", continuous=continuous, scaling=scaling),
        ),
    )


class TestDescriptor:
    def test_response_not_covariate(self):
        with pytest.raises(ValidationError):
            DatasetDescriptor(path="x.csv", response="a", covariates=(CovariateColumn("a"),))

    def test_needs_covariates(self):
        with pytest.raises(ValidationError):
            DatasetDescriptor(path="x.csv", response="y", covariates=())

    def test_duplicate_names(self):
        with pytest.raises(ValidationError):
            DatasetDescriptor(
                path="x.csv",
                response="y",
                covariates=(CovariateColumn("a"), CovariateColumn("a")),
            )

    def test_continuous_indices(self):
        d = DatasetDescriptor(
            path="x.csv",
            response="y",
            covariates=(
                CovariateColumn("a", continuous=True),
                CovariateColumn("b", continuous=False),
                CovariateColumn("c", continuous=True),
            ),
        )
        assert d.continuous_indices == (0, 2)


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n1,2.0,3.0\n0,4.0,5.0\n")
        raw, y = load_csv(descriptor(path))
        np.testing.assert_array_equal(raw, [[2.0, 3.0], [4.0, 5.0]])
        np.testing.assert_array_equal(y, [1.0, 0.0])

    def test_column_order_follows_descriptor(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "b,y,a\n3.0,1,2.0\n")
        raw, y = load_csv(descriptor(path))
        np.testing.assert_array_equal(raw, [[2.0, 3.0]])

    def test_scaling_applied(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n0,0,10\n1,255,20\n")
        raw, _ = load_csv(descriptor(path, scaling=Scaling.RANGE_TO_UNIT))
        np.testing.assert_allclose(raw, [[0.0, 0.0], [1.0, 1.0]])

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a\n1,2\n")
        with pytest.raises(ValidationError, match="'b'"):
            load_csv(descriptor(path))

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n1,2.0,3.0\n0,oops,5.0\n")
        with pytest.raises(ValidationError, match="row 3.*'a'"):
            load_csv(descriptor(path))

    def test_non_finite_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n1,2.0,3.0\n0,nan,5.0\n")
        with pytest.raises(ValidationError, match="non-finite.*row 3"):
            load_csv(descriptor(path))
        path = write_csv(tmp_path / "e.csv", "y,a,b\n1,2.0,inf\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load_csv(descriptor(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_csv(descriptor(tmp_path / "absent.csv"))

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(ValidationError, match="empty"):
            load_csv(descriptor(path))

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_csv(descriptor(path))

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n1,2\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_csv(descriptor(path))

    def test_family_response_validation(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n2,1.0,1.0\n0,2.0,2.0\n")
        with pytest.raises(ValidationError, match="0/1"):
            load_csv(descriptor(path), family=Logistic())

    def test_quoted_fields(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", 'y,a,b\n"1","2.5","3.5"\n')
        raw, y = load_csv(descriptor(path))
        np.testing.assert_array_equal(raw, [[2.5, 3.5]])
        np.testing.assert_array_equal(y, [1.0])

    def test_extra_field_on_every_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n0,4,5,6\n1,2,3,4\n")
        with pytest.raises(ValidationError, match="row 2 has 4 fields"):
            load_csv(descriptor(path))

    def test_trailing_comma(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n0,4,5,\n")
        with pytest.raises(ValidationError, match="row 2 has 4 fields"):
            load_csv(descriptor(path))

    def test_whitespace_only_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n1,2,3\n   \n0,4,5\n")
        with pytest.raises(ValidationError, match="row 3 has 1 fields"):
            load_csv(descriptor(path))

    def test_hash_prefixed_row_is_data(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n1,2,3\n#0,4,5\n")
        with pytest.raises(ValidationError, match="non-numeric value '#0' at row 3, column 'y'"):
            load_csv(descriptor(path))

    def test_python_float_syntax(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n1,1_0,3\n0,4,５\n")
        raw, y = load_csv(descriptor(path))
        np.testing.assert_array_equal(raw, [[10.0, 3.0], [4.0, 5.0]])
        np.testing.assert_array_equal(y, [1.0, 0.0])

    def test_unused_non_numeric_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "id,y,a,b\nx1,1,2.0,3.0\nx2,0,4.0,5.0\n")
        raw, y = load_csv(descriptor(path))
        np.testing.assert_array_equal(raw, [[2.0, 3.0], [4.0, 5.0]])
        np.testing.assert_array_equal(y, [1.0, 0.0])

    def test_header_and_blank_lines(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="no data rows"):
                load_csv(descriptor(path))

    def test_matches_row_by_row_parse(self, tmp_path):
        rng = np.random.default_rng(5)
        table = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-300, 300, size=(200, 3))
        table[:, 1] = rng.integers(0, 2, size=200)
        text = "a,y,b\n" + "".join(f"{r[0]!r},{r[1]!r},{r[2]!r}\n" for r in table.tolist())
        raw, y = load_csv(descriptor(write_csv(tmp_path / "d.csv", text)))
        assert raw.flags.c_contiguous
        assert raw.tobytes() == np.ascontiguousarray(table[:, [0, 2]]).tobytes()
        assert y.tobytes() == table[:, 1].tobytes()

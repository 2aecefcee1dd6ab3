import csv
import os
import warnings

import numpy as np
import pytest

import glmsub._workers
import glmsub.datasets
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

    def test_unknown_scaling_lists_the_names(self):
        with pytest.raises(ValidationError, match=r"\(none, standardize, range-to-unit\), got 'bogus'"):
            CovariateColumn("a", scaling="bogus")

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

    @pytest.mark.parametrize(
        "row", ["1,2", "0,oops,5.0", "1,2.0,inf"], ids=["ragged", "non-numeric", "inf"]
    )
    def test_row_message_starts_with_the_path(self, tmp_path, row):
        path = write_csv(tmp_path / "d.csv", f"y,a,b\n{row}\n")
        with pytest.raises(ValidationError) as info:
            load_csv(descriptor(path))
        assert str(info.value).startswith(f"{path}: ")

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

    @pytest.mark.parametrize("body", ["1,2.0,3.0\n0,4.0,5.0\n", "1,1_0,3\n0,4,５\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, body):
        # Excel's "CSV UTF-8" export starts the file with U+FEFF; the second
        # body is parsed row by row.
        plain = load_csv(descriptor(write_csv(tmp_path / "plain.csv", "y,a,b\n" + body)))
        marked = load_csv(descriptor(write_csv(tmp_path / "bom.csv", "\ufeffy,a,b\n" + body)))
        for got, want in zip(marked, plain):
            assert got.tobytes() == want.tobytes()

    def test_bad_byte_in_the_header_names_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"y,a\xff,b\n1,2.0,3.0\n")
        with pytest.raises(ValidationError, match=r"d\.csv is not UTF-8: byte 0xff"):
            load_csv(descriptor(path))

    def test_bad_byte_in_a_body_row_names_the_file(self, tmp_path):
        # Far enough into the file that the header decodes cleanly and the
        # row-by-row rescan meets the byte.
        path = tmp_path / "d.csv"
        body = b"1,2.0,3.0\n" * 5000
        path.write_bytes(b"y,a,b\n" + body + b"0,4.\xff,5.0\n" + body)
        with pytest.raises(ValidationError, match=r"d\.csv is not UTF-8: byte 0xff"):
            load_csv(descriptor(path))

    @pytest.mark.parametrize("where", ["body", "header"])
    def test_stray_quote_names_the_file_and_row(self, tmp_path, where):
        # Past csv's 128 KiB field limit, a quote that is never closed
        # makes the reader raise csv.Error; the row is where the field starts.
        body = [f"{i % 2},{i}.5,{i}.25\n" for i in range(20_000)]
        header = "y,a,b\n"
        if where == "body":
            body[4] = '1,"2.5,3.0\n'  # data row 5, row 6 of the file
        else:
            header = 'y,"a,b\n'
        path = write_csv(tmp_path / "d.csv", header + "".join(body))
        row = 6 if where == "body" else 1
        with pytest.raises(ValidationError, match=rf"d\.csv: row {row} cannot be read as CSV"):
            load_csv(descriptor(path))

    def test_pipe_is_refused_before_it_is_read(self):
        # The write end is closed first, so a read of the pipe cannot block.
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write(b"y,a,b\n1,2.0,3.0\n")
        try:
            with pytest.raises(ValidationError, match=f"dataset /dev/fd/{read_end} is not a regular file"):
                load_csv(descriptor(f"/dev/fd/{read_end}"))
            assert os.read(read_end, 6) == b"y,a,b\n"  # nothing was read
        finally:
            os.close(read_end)

    def test_matches_row_by_row_parse(self, tmp_path):
        rng = np.random.default_rng(5)
        table = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-300, 300, size=(200, 3))
        table[:, 1] = rng.integers(0, 2, size=200)
        text = "a,y,b\n" + "".join(f"{r[0]!r},{r[1]!r},{r[2]!r}\n" for r in table.tolist())
        raw, y = load_csv(descriptor(write_csv(tmp_path / "d.csv", text)))
        assert raw.flags.c_contiguous
        assert raw.tobytes() == np.ascontiguousarray(table[:, [0, 2]]).tobytes()
        assert y.tobytes() == table[:, 1].tobytes()

    @pytest.mark.parametrize("header", ["y,a,b", "a,y,b", "b,z,a,y", "z,y,a,b"])
    def test_covariates_split_off_in_blocks(self, tmp_path, monkeypatch, header):
        # The body is parsed in ranges of a row or two and copied out range
        # by range; range edges, reordered columns and an unused column z
        # must all give the descriptor's columns exactly.
        monkeypatch.setattr(glmsub.datasets, "_RANGE_BYTES", 100)
        rng = np.random.default_rng(9)
        names = header.split(",")
        table = rng.normal(size=(50, len(names)))
        table[:, names.index("y")] = rng.integers(0, 2, size=50)
        text = header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in table.tolist())
        raw, y = load_csv(descriptor(write_csv(tmp_path / "d.csv", text)))
        assert raw.flags.c_contiguous
        expected = table[:, [names.index("a"), names.index("b")]]
        assert raw.tobytes() == np.ascontiguousarray(expected).tobytes()
        assert y.tobytes() == table[:, names.index("y")].tobytes()

    def test_repeated_requested_column_is_refused(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b,a\n1,2.0,3.0,4.0\n")
        with pytest.raises(ValidationError, match=r"column 'a' appears more than once in .*d\.csv header"):
            load_csv(descriptor(path))

    def test_repeated_unused_column_is_allowed(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "z,y,a,b,z\nq,1,2.0,3.0,r\n")
        raw, y = load_csv(descriptor(path))
        np.testing.assert_array_equal(raw, [[2.0, 3.0]])
        np.testing.assert_array_equal(y, [1.0])


def _rows(n, seed, quoted=False):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(n, 3))
    table[:, 0] = rng.integers(0, 2, size=n)
    q = '"' if quoted else ""
    return [f"{q}{int(r[0])}{q},{q}{r[1]!r}{q},{q}{r[2]!r}{q}" for r in table.tolist()]


_SPLIT_CASES = {
    "lf": "y,a,b\n" + "\n".join(_rows(41, 1)) + "\n",
    "crlf": "y,a,b\r\n" + "\r\n".join(_rows(41, 2)) + "\r\n",
    "bom": "\ufeffy,a,b\n" + "\n".join(_rows(41, 3)) + "\n",
    "blank lines at the split": (
        "y,a,b\n" + "\n".join(_rows(20, 4)) + "\n\n\n\n" + "\n".join(_rows(20, 5)) + "\n"
    ),
    "no final newline": "y,a,b\n" + "\n".join(_rows(41, 6)),
    "quoted numbers": "y,a,b\n" + "\n".join(_rows(41, 7, quoted=True)) + "\n",
    "reordered columns": "b,z,a,y\n" + "\n".join(f"{r},9" for r in _rows(41, 8)) + "\n",
}


def _reference(path):
    """The raw covariates and the response of a y,a,b file, parsed row by
    row with csv and float."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        table = np.array(
            [[float(row[header.index(c)]) for c in ("a", "b", "y")] for row in reader if row]
        )
    return table[:, :2].copy(), table[:, 2].copy()


class TestSplitParse:
    """A body is parsed in ranges of about ``_RANGE_BYTES``, shared with
    forked workers from two whole ranges; the arrays must be those of a
    row-by-row parse bit for bit, and anything the ranges do not parse is
    parsed again row by row."""

    @pytest.fixture
    def row_parses(self, monkeypatch):
        """Every body spans ranges of a row or two and is parsed by forked
        workers on two usable CPUs; the row-by-row parses are counted."""
        monkeypatch.setattr(glmsub.datasets, "_RANGE_BYTES", 40)
        monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: 2)
        calls = []
        parse_rows = glmsub.datasets._parse_rows
        monkeypatch.setattr(
            glmsub.datasets, "_parse_rows", lambda *a: calls.append(1) or parse_rows(*a)
        )
        return calls

    @staticmethod
    def one_cpu(monkeypatch, path):
        with monkeypatch.context() as m:
            m.setattr(glmsub._workers, "_cpu_budget", lambda: 1)
            return load_csv(descriptor(path))

    def assert_same(self, monkeypatch, path, row_parses, forks, ranges=True):
        """Two CPUs (this process and one worker) and one CPU both give the
        reference arrays."""
        want = _reference(path)
        for got in (load_csv(descriptor(path)), self.one_cpu(monkeypatch, path)):
            for g, w in zip(got, want):
                assert g.flags.c_contiguous
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert len(forks) == 1
        assert row_parses == ([] if ranges else [1, 1])

    @pytest.mark.parametrize("name", list(_SPLIT_CASES))
    def test_halves_equal_the_one_pass_parse(
        self, tmp_path, monkeypatch, row_parses, forks, name
    ):
        path = tmp_path / "d.csv"
        path.write_bytes(_SPLIT_CASES[name].encode("utf-8"))
        assert os.path.getsize(path) > 20 * glmsub.datasets._RANGE_BYTES
        self.assert_same(monkeypatch, path, row_parses, forks)

    def test_quoted_multi_line_field_across_the_midpoint_falls_back(
        self, tmp_path, monkeypatch, row_parses, forks
    ):
        # Ten 10-byte rows, then a row whose quoted field holds the newline
        # that ends the first 100-byte range, then ten more rows.
        monkeypatch.setattr(glmsub.datasets, "_RANGE_BYTES", 100)
        row = "1,2.5,3.5\n"
        path = tmp_path / "d.csv"
        path.write_bytes(("y,a,b\n" + row * 10 + '1,"2.5\n",3.5\n' + row * 10).encode("utf-8"))
        self.assert_same(monkeypatch, path, row_parses, forks, ranges=False)
        raw, _ = load_csv(descriptor(path))
        assert raw.shape == (21, 2) and raw[10, 0] == 2.5

    def test_range_ending_inside_a_quoted_field_is_refused(self, tmp_path):
        # NumPy reads a quote left open at the end of its input as closed, so
        # only the quote count shows that bytes [6, 13) end inside a field.
        path = write_csv(tmp_path / "d.csv", 'y,a,b\n1,2,"3\n"\n')
        assert glmsub.datasets._parse_range(path, 6, 13, 3, [0, 1, 2], np.zeros((4, 3))) is None
        raw, y = load_csv(descriptor(path))
        assert raw.tolist() == [[2.0, 3.0]] and y.tolist() == [1.0]

    def test_bad_cell_in_the_upper_half_keeps_its_message(
        self, tmp_path, monkeypatch, row_parses, forks
    ):
        lines = _rows(40, 9)
        lines[30] = "0,oops,1.5"
        path = write_csv(tmp_path / "d.csv", "y,a,b\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as info:
            load_csv(descriptor(path))
        assert len(forks) == 1
        with pytest.raises(ValidationError) as want:
            self.one_cpu(monkeypatch, path)
        assert str(info.value) == str(want.value) == f"{path}: non-numeric value 'oops' at row 32, column 'a'"
        with pytest.raises(ChildProcessError):  # no worker is left
            os.waitpid(-1, os.WNOHANG)

    def test_refused_fork_gives_the_same_arrays(self, tmp_path, monkeypatch, row_parses):
        def refuse():
            raise OSError("Resource temporarily unavailable")

        path = write_csv(tmp_path / "d.csv", "y,a,b\n" + "\n".join(_rows(41, 10)) + "\n")
        monkeypatch.setattr(os, "fork", refuse)
        got = load_csv(descriptor(path))
        assert row_parses == []  # every task ran here, into its shared region
        with pytest.raises(ChildProcessError):  # no worker is left
            os.waitpid(-1, os.WNOHANG)
        want = _reference(path)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_repeated_requested_column_is_refused(self, tmp_path, row_parses, forks):
        path = write_csv(tmp_path / "d.csv", "y,a,a,b\n" + "\n".join(f"{r},1" for r in _rows(41, 11)) + "\n")
        with pytest.raises(ValidationError, match=r"column 'a' appears more than once in .*d\.csv header"):
            load_csv(descriptor(path))
        assert forks == []

    def test_small_bodies_stay_in_one_process(self, tmp_path, monkeypatch, row_parses, forks):
        path = write_csv(tmp_path / "d.csv", "y,a,b\n" + "\n".join(_rows(41, 12)) + "\n")
        # Two ranges, the second shorter than the first.
        monkeypatch.setattr(glmsub.datasets, "_RANGE_BYTES", path.stat().st_size // 2)
        got = load_csv(descriptor(path))
        assert forks == [] and row_parses == []
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, _reference(path)))

    def test_two_whole_ranges_fork_once(self, tmp_path, monkeypatch, row_parses, forks):
        body = "\n".join(_rows(41, 14)) + "\n"
        body += "\n" * (len(body) % 2)  # a blank last line makes it even
        monkeypatch.setattr(glmsub.datasets, "_RANGE_BYTES", len(body) // 2)
        # The body at exactly two ranges, then one byte shorter.
        for text, n_forks in ((body, 1), (body[:-1], 0)):
            forks.clear()
            path = write_csv(tmp_path / "d.csv", "y,a,b\n" + text)
            got = load_csv(descriptor(path))
            assert len(forks) == n_forks and row_parses == []
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, _reference(path)))

    @pytest.mark.parametrize("split", ["above", "below"])
    def test_quoted_header_stays_on_the_ranged_parse(
        self, tmp_path, monkeypatch, row_parses, forks, split
    ):
        # R's write.csv quotes every header field by default.
        body = "\n".join(_rows(41, 13)) + "\n"
        plain = write_csv(tmp_path / "plain.csv", "y,a,b\n" + body)
        quoted = write_csv(tmp_path / "quoted.csv", '"y","a","b"\n' + body)
        if split == "below":
            monkeypatch.setattr(glmsub.datasets, "_RANGE_BYTES", quoted.stat().st_size)
        got = load_csv(descriptor(quoted))
        assert len(forks) == (1 if split == "above" else 0)
        assert row_parses == []
        for g, w in zip(got, load_csv(descriptor(plain))):
            assert g.tobytes() == w.tobytes()

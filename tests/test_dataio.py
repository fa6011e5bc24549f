"""Tests for CSV ingestion and emission."""

import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eivbands import dataio
from eivbands.errors import InputError
from eivbands.lasso import Dataset


def write(tmp_path, text, name="data.csv"):
    # the bytes as given, so CR and CRLF line ends reach the reader
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def test_basic_parse(tmp_path):
    path = write(tmp_path, "y,z1,z2\n1.5,2.0,3.0\n-0.5,0.25,1e-3\n")
    data, names = dataio.read_dataset_csv(path)
    assert names == ["z1", "z2"]
    assert (data.n, data.p) == (2, 2)
    npt.assert_array_equal(data.y, [1.5, -0.5])
    npt.assert_array_equal(data.Z, [[2.0, 3.0], [0.25, 1e-3]])
    assert data.mask is None


def test_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet exports start with U+FEFF; it is not part of the "y" name
    path = write(tmp_path, "\ufeffy,z1,z2\n1.5,2.0,3.0\n-0.5,0.25,1e-3\n")
    data, names = dataio.read_dataset_csv(path)
    assert names == ["z1", "z2"]
    npt.assert_array_equal(data.y, [1.5, -0.5])


def test_response_column_position_is_free(tmp_path):
    path = write(tmp_path, "z1,y,z2\n2.0,1.5,3.0\n0.25,-0.5,4.0\n")
    data, names = dataio.read_dataset_csv(path)
    assert names == ["z1", "z2"]
    npt.assert_array_equal(data.y, [1.5, -0.5])
    npt.assert_array_equal(data.Z[:, 0], [2.0, 0.25])


def test_whitespace_is_trimmed(tmp_path):
    path = write(tmp_path, "y, z1 ,z2\n 1.0 ,2.0, 3.0\n4.0,5.0,6.0\n")
    data, names = dataio.read_dataset_csv(path)
    assert names == ["z1", "z2"]
    assert data.y[0] == 1.0


def test_missing_needs_opt_in(tmp_path):
    path = write(tmp_path, "y,z1,z2\n1.0,NA,3.0\n2.0,1.0,4.0\n")
    with pytest.raises(InputError, match="row 2.*'z1'.*missing"):
        dataio.read_dataset_csv(path)
    data, _ = dataio.read_dataset_csv(path, allow_missing=True)
    assert data.mask is not None
    assert not data.mask[0, 0]
    assert data.Z[0, 0] == 0.0
    assert data.mask.sum() == 3


def test_empty_field_counts_as_missing(tmp_path):
    path = write(tmp_path, "y,z1,z2\n1.0,,3.0\n2.0,1.0,4.0\n")
    data, _ = dataio.read_dataset_csv(path, allow_missing=True)
    assert not data.mask[0, 0]


def test_fully_observed_mar_file_still_carries_mask(tmp_path):
    path = write(tmp_path, "y,z1,z2\n1.0,2.0,3.0\n2.0,1.0,4.0\n")
    data, _ = dataio.read_dataset_csv(path, allow_missing=True)
    assert data.mask is not None
    assert data.mask.all()


def test_missing_response_always_rejected(tmp_path):
    path = write(tmp_path, "y,z1,z2\nNA,2.0,3.0\n2.0,1.0,4.0\n")
    with pytest.raises(InputError, match='row 2.*"y"'):
        dataio.read_dataset_csv(path, allow_missing=True)


def test_duplicate_headers_rejected(tmp_path):
    path = write(tmp_path, "y,z1,z1\n1.0,2.0,3.0\n2.0,1.0,4.0\n")
    with pytest.raises(InputError, match="duplicate header"):
        dataio.read_dataset_csv(path)


def test_empty_header_name_rejected(tmp_path):
    # a trailing comma on every line, as spreadsheet exports write, would
    # otherwise add an all-missing covariate under missing-at-random mode
    path = write(tmp_path, "y,z1,z2,\n1.0,2.0,3.0,\n2.0,1.0,4.0,\n")
    for allow_missing in (False, True):
        with pytest.raises(InputError, match="column 4 has an empty header"):
            dataio.read_dataset_csv(path, allow_missing=allow_missing)


def test_missing_response_column_rejected(tmp_path):
    path = write(tmp_path, "a,z1,z2\n1.0,2.0,3.0\n2.0,1.0,4.0\n")
    with pytest.raises(InputError, match='no column named "y"'):
        dataio.read_dataset_csv(path)


def test_no_response_mode_takes_all_columns(tmp_path):
    path = write(tmp_path, "a,z1,z2\n1.0,2.0,3.0\n2.0,1.0,4.0\n")
    data, names = dataio.read_dataset_csv(path, require_response=False)
    assert names == ["a", "z1", "z2"]
    assert data.p == 3
    npt.assert_array_equal(data.y, np.zeros(2))


def test_ragged_row_rejected_with_row_number(tmp_path):
    path = write(tmp_path, "y,z1,z2\n1.0,2.0,3.0\n2.0,1.0\n")
    with pytest.raises(InputError, match="row 3 has 2 fields, expected 3"):
        dataio.read_dataset_csv(path)


def test_non_numeric_rejected_with_location(tmp_path):
    path = write(tmp_path, "y,z1,z2\n1.0,2.0,3.0\n2.0,abc,4.0\n")
    with pytest.raises(InputError, match="row 3.*'z1'.*'abc'"):
        dataio.read_dataset_csv(path)


def test_non_finite_rejected(tmp_path):
    path = write(tmp_path, "y,z1,z2\n1.0,inf,3.0\n2.0,1.0,4.0\n")
    with pytest.raises(InputError, match="non-finite"):
        dataio.read_dataset_csv(path)
    # nan, -inf and an overflowing literal, in the response and a covariate
    for row, column, token, text in (
            (2, "z2", "nan", "y,z1,z2\n1.0,2.0,nan\n2.0,1.0,4.0\n"),
            (3, "y", "-inf", "y,z1,z2\n1.0,2.0,3.0\n-inf,1.0,4.0\n"),
            (3, "z1", "1e999", "y,z1,z2\n1.0,2.0,3.0\n2.0,1e999,4.0\n")):
        path = write(tmp_path, text)
        with pytest.raises(InputError) as exc:
            dataio.read_dataset_csv(path)
        assert str(exc.value) == (f"row {row}, column {column!r}: "
                                  f"non-finite value {token!r}")
    path = write(tmp_path, "0.25\ninf\n", name="noise.txt")
    with pytest.raises(InputError) as exc:
        dataio.read_noise_csv(path, 2)
    assert str(exc.value) == ("row 2, column 'noise variance': "
                              "non-finite value 'inf'")


def test_too_few_rows_rejected(tmp_path):
    path = write(tmp_path, "y,z1,z2\n1.0,2.0,3.0\n")
    with pytest.raises(InputError, match="2 data rows"):
        dataio.read_dataset_csv(path)


def test_too_few_columns_rejected(tmp_path):
    path = write(tmp_path, "y,z1\n1.0,2.0\n2.0,1.0\n")
    with pytest.raises(InputError, match="2 covariate columns"):
        dataio.read_dataset_csv(path)


def test_empty_file_rejected(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(InputError, match="empty"):
        dataio.read_dataset_csv(path)


def test_write_read_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    y = rng.normal(size=9)
    Z = rng.normal(size=(9, 4)) * np.pi
    data = Dataset(y=y, Z=Z)
    path = str(tmp_path / "round.csv")
    dataio.write_dataset_csv(path, data, ["a", "b", "c", "d"])
    back, names = dataio.read_dataset_csv(path)
    assert names == ["a", "b", "c", "d"]
    npt.assert_array_equal(back.y, y)
    npt.assert_array_equal(back.Z, Z)


def test_round_trip_preserves_mask(tmp_path):
    rng = np.random.default_rng(9)
    Z = rng.normal(size=(6, 3))
    mask = rng.uniform(size=(6, 3)) > 0.3
    Z = np.where(mask, Z, 0.0)
    data = Dataset(y=rng.normal(size=6), Z=Z, mask=mask)
    path = str(tmp_path / "mask.csv")
    dataio.write_dataset_csv(path, data)
    back, names = dataio.read_dataset_csv(path, allow_missing=True)
    assert names == ["z1", "z2", "z3"]
    npt.assert_array_equal(back.mask, mask)
    npt.assert_array_equal(back.Z, Z)


def test_write_rejects_wrong_name_count(tmp_path):
    # and names the reader would refuse or rename; no file is written
    data = Dataset(y=np.zeros(2), Z=np.zeros((2, 2)))
    path = tmp_path / "x.csv"
    for names, message in (
            (["a"], "1 column names for 2 columns"),
            (["y", "b"], r"duplicate header names \['y'\]"),
            (["a", "a"], r"duplicate header names \['a'\]"),
            (["", " b"], "column 2 has an empty header name"),
            ([" a", "b "], "starts or ends with whitespace")):
        with pytest.raises(InputError, match=message):
            dataio.write_dataset_csv(str(path), data, names)
        assert not path.exists()


@pytest.mark.parametrize("read", [
    pytest.param(dataio.read_dataset_csv, id="dataset"),
    pytest.param(lambda path: dataio.read_noise_csv(path, 2), id="noise"),
])
def test_non_utf8_file_rejected(tmp_path, read):
    # a spreadsheet's UTF-16 export starts with the bytes FF FE
    path = tmp_path / "utf16.csv"
    path.write_bytes("y,z1,z2\n1,2,3\n4,5,6\n".encode("utf-16"))
    with pytest.raises(InputError, match="not UTF-8 text") as exc:
        read(str(path))
    assert str(path) in str(exc.value)


def test_noise_file_parse(tmp_path):
    path = write(tmp_path, "0.25\n0.0\n1.5\n", name="gamma.txt")
    npt.assert_array_equal(dataio.read_noise_csv(path, 3), [0.25, 0.0, 1.5])


def test_noise_file_byte_order_mark_is_skipped(tmp_path):
    path = write(tmp_path, "\ufeff0.1\n0.25\n", name="gamma.txt")
    npt.assert_array_equal(dataio.read_noise_csv(path, 2), [0.1, 0.25])


def test_noise_file_length_mismatch(tmp_path):
    path = write(tmp_path, "0.25\n0.5\n", name="gamma.txt")
    with pytest.raises(InputError, match="2 noise variances for 3"):
        dataio.read_noise_csv(path, 3)


def test_noise_file_negative_value(tmp_path):
    path = write(tmp_path, "0.25\n-0.5\n", name="gamma.txt")
    with pytest.raises(InputError, match="line 2.*negative"):
        dataio.read_noise_csv(path, 2)


def test_noise_file_blank_line(tmp_path):
    path = write(tmp_path, "0.25\n\n0.5\n", name="gamma.txt")
    with pytest.raises(InputError, match="line 2 is blank"):
        dataio.read_noise_csv(path, 2)


def test_noise_file_non_numeric(tmp_path):
    path = write(tmp_path, "0.25\nhigh\n", name="gamma.txt")
    with pytest.raises(InputError, match="'high'"):
        dataio.read_noise_csv(path, 2)


def test_blank_body_line_rejected_with_row_number(tmp_path):
    # loadtxt skips blank lines; the reader must not
    path = write(tmp_path, "y,z1,z2\n1.0,2.0,3.0\n\n2.0,1.0,4.0\n")
    with pytest.raises(InputError, match="row 3 has 0 fields, expected 3"):
        dataio.read_dataset_csv(path)


def test_quoted_cells_follow_csv_rules(tmp_path):
    # a quoted cell may hold a line break, so a row can span two lines
    path = write(tmp_path, 'y,z1,z2\n"1.5\n",2.0," 3.0 "\n-0.5,0.25,1e-3\n')
    data, names = dataio.read_dataset_csv(path, require_response=False)
    assert names == ["y", "z1", "z2"]
    npt.assert_array_equal(data.Z, [[1.5, 2.0, 3.0], [-0.5, 0.25, 1e-3]])
    path = write(tmp_path, 'y,z1,z2\n"1.5\n",2.0,3.0\n')
    with pytest.raises(InputError, match="need at least 2 data rows, found 1"):
        dataio.read_dataset_csv(path)


def test_write_pins_text_of_masked_dataset(tmp_path):
    Z = np.array([[-0.0, 5e-324, 1e-300], [0.0, 2.5, -1e-300]])
    mask = np.array([[True, True, False], [False, True, True]])
    data = Dataset(y=np.array([1e-300, -0.0]), Z=Z, mask=mask)
    path = tmp_path / "pinned.csv"
    dataio.write_dataset_csv(str(path), data, ["a", "b,c", "d"])
    assert path.read_bytes() == (b'y,a,"b,c",d\r\n'
                                 b"1e-300,-0.0,5e-324,NA\r\n"
                                 b"-0.0,NA,2.5,-1e-300\r\n")


# Files whose cells, rows or line ends the one-pass parse (loadtxt) and the
# per-cell parse (csv and float) could read differently.
HEADER = "y,z1,z2\n"
AWKWARD = {
    "plain": HEADER + "1.5,2.0,3.0\n-0.5,0.25,1e-3\n",
    "no_final_newline": HEADER + "1.5,2.0,3.0\n-0.5,0.25,1e-3",
    "signed_zero_subnormal": HEADER + "-0.0,5e-324,1e-300\n0,-5e-324,1E+3\n",
    "blank_mid": HEADER + "1.5,2.0,3.0\n\n-0.5,0.25,1e-3\n",
    "blank_eof": HEADER + "1.5,2.0,3.0\n-0.5,0.25,1e-3\n\n",
    "blank_first": HEADER + "\n1.5,2.0,3.0\n-0.5,0.25,1e-3\n",
    "all_blank": HEADER + "\n\n\n",
    "whitespace_line": HEADER + "1.5,2.0,3.0\n  \n-0.5,0.25,1e-3\n",
    "hash_cell": HEADER + "#1.5,2.0,3.0\n-0.5,0.25,1e-3\n",
    "quoted": HEADER + '"1.5",2.0,"3.0"\n-0.5," 0.25 ",1e-3\n',
    "quoted_header": '"y","z1","z2"\n1.5,2.0,3.0\n-0.5,0.25,1e-3\n',
    "header_line_break": 'y,"z\n1",z2\n1.5,2.0,3.0\n-0.5,0.25,1e-3\n',
    "quoted_line_break": HEADER + '"1.5\n",2.0,3.0\n-0.5,0.25,1e-3\n',
    "quoted_comma": HEADER + '"1,5",2.0,3.0\n-0.5,0.25,1e-3\n',
    "padded": HEADER + " 1.5 ,\t3,2.0\n-0.5,0.25 , 1e-3\t\n",
    "unicode_space": HEADER + "\xa01.5 ,2.0,3.0\x1c\n-0.5,0.25,1e-3\n",
    "underscore": HEADER + "1_0,2.0,3.0\n-0.5,0.25,1e-3\n",
    "arabic_digit": HEADER + "1.5,\u0661,3.0\n-0.5,0.25,1e-3\n",
    "inf": HEADER + "1.5,inf,3.0\n-0.5,0.25,1e-3\n",
    "nan_response": HEADER + "1.5,2.0,3.0\nnan,0.25,1e-3\n",
    "overflow": HEADER + "1.5,2.0,3.0\n-0.5,1e999,1e-3\n",
    "na": HEADER + "1.5,NA,3.0\n-0.5,0.25,\n",
    "na_response": HEADER + "NA,2.0,3.0\n-0.5,0.25,1e-3\n",
    "non_numeric": HEADER + "1.5,2.0,3.0\n-0.5,abc,1e-3\n",
    "crlf": (HEADER + "1.5,2.0,3.0\n-0.5,0.25,1e-3\n").replace("\n", "\r\n"),
    "cr": (HEADER + "1.5,2.0,3.0\n-0.5,0.25,1e-3\n").replace("\n", "\r"),
    "bom": "\ufeff" + HEADER + "1.5,2.0,3.0\n-0.5,0.25,1e-3\n",
    "bom_crlf_quoted": ('\ufeff"y",z1,z2\r\n" 1.5 ",2.0,3.0\r\n'
                        "-0.5,0.25,1e-3\r\n"),
    "ragged_short": HEADER + "1.5,2.0,3.0\n-0.5,0.25\n",
    "ragged_long": HEADER + "1.5,2.0,3.0,4.0\n-0.5,0.25,1e-3,1.0\n",
    "one_row": HEADER + "1.5,2.0,3.0\n",
}
# the clean files the one-pass parse must read on its own
ONE_PASS = ("plain", "no_final_newline", "signed_zero_subnormal", "padded",
            "unicode_space", "crlf", "cr", "bom", "quoted_header")


def _outcome(path: str, **kwargs):
    """What a read gives: the arrays' bytes, names and mask, or the error."""
    try:
        data, names = dataio.read_dataset_csv(path, **kwargs)
    except InputError as exc:
        return str(exc)
    mask = None if data.mask is None else data.mask.tobytes()
    return data.y.tobytes(), data.Z.shape, data.Z.tobytes(), names, mask


def _per_cell_outcome(path: str, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_read_table", lambda lines, width: None)
        return _outcome(path, **kwargs)


@pytest.mark.parametrize("case", sorted(AWKWARD))
@pytest.mark.parametrize("allow_missing", [False, True])
@pytest.mark.parametrize("require_response", [True, False])
def test_one_pass_reader_equals_per_cell_parse(tmp_path, case, allow_missing,
                                               require_response):
    path = write(tmp_path, AWKWARD[case])
    kwargs = dict(allow_missing=allow_missing,
                  require_response=require_response)
    assert _outcome(path, **kwargs) == _per_cell_outcome(path, **kwargs)


@pytest.mark.parametrize("case", ONE_PASS)
def test_clean_files_skip_the_per_cell_parse(tmp_path, monkeypatch, case):
    path = write(tmp_path, AWKWARD[case])

    def per_cell(*args):
        raise AssertionError("per-cell parse ran")

    monkeypatch.setattr(dataio, "_read_cells", per_cell)
    data, names = dataio.read_dataset_csv(path, allow_missing=True)
    assert names == ["z1", "z2"]
    assert data.mask.all()


_CELLS = st.sampled_from(["1.5", " -2 ", "\t3", "-0.0", "5e-324", "1e-300",
                          "NA", "", "1_0", "\u0661", "inf", "nan", "1e999",
                          "#4", '"5"', "abc"])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@given(st.lists(st.lists(_CELLS, min_size=2, max_size=4), min_size=1,
                max_size=5),
       _LINE_ENDS, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_one_pass_reader_equals_per_cell_parse_on_mixed_files(
        rows, end, bom, allow_missing):
    text = ("\ufeff" if bom else "") + "y,z1,z2" + end + \
        "".join(",".join(row) + end for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp), text)
        assert _outcome(path, allow_missing=allow_missing) == \
            _per_cell_outcome(path, allow_missing=allow_missing)

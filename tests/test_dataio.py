"""Tests for CSV ingestion and emission."""

import numpy as np
import numpy.testing as npt
import pytest

from eivbands import dataio
from eivbands.errors import InputError
from eivbands.lasso import Dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
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
    data = Dataset(y=np.zeros(2), Z=np.zeros((2, 3)))
    with pytest.raises(InputError, match="3 columns"):
        dataio.write_dataset_csv(str(tmp_path / "x.csv"), data, ["a", "b"])


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

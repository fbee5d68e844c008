import numpy as np
import pytest

from lrpca import (FormatError, InvalidInput, read_matrix,
                   write_matrix)
from conftest import traced_peak


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        M = rng.standard_normal((13, 7))
        path = tmp_path / "m.lrpm"
        write_matrix(M, path)
        back = read_matrix(path)
        assert np.array_equal(M, back)
        assert back.dtype == np.float64

    def test_layout(self, tmp_path):
        path = tmp_path / "m.lrpm"
        write_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]), path)
        raw = path.read_bytes()
        assert raw[:4] == b"LRPM"
        assert int.from_bytes(raw[4:12], "little") == 2
        assert int.from_bytes(raw[12:20], "little") == 2
        assert len(raw) == 20 + 4 * 8
        assert np.frombuffer(raw[20:28], "<f8")[0] == 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.lrpm"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.lrpm"
        path.write_bytes(b"LRPM\x01\x00")
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "m.lrpm"
        write_matrix(rng.standard_normal((4, 4)), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_matrix(path)

    # The first product overflows what fh.read can take, the second is 128
    # GiB; a header is checked against the file's length before any read.
    @pytest.mark.parametrize("rows, cols", [(2**40, 2**40), (2**20, 2**14)],
                             ids=["overflow", "huge"])
    def test_forged_header_rejected_without_allocating(self, tmp_path, rows,
                                                       cols):
        path = tmp_path / "m.lrpm"
        path.write_bytes(b"LRPM" + rows.to_bytes(8, "little")
                         + cols.to_bytes(8, "little") + b"\x00" * 64)

        def read():
            with pytest.raises(FormatError, match="truncated payload"):
                read_matrix(path)
        assert traced_peak(read)[1] < 1 << 20

    def test_trailing_bytes_ignored(self, tmp_path):
        path = tmp_path / "m.lrpm"
        write_matrix([[1.0, 2.0]], path)
        path.write_bytes(path.read_bytes() + b"extra")
        assert np.array_equal(read_matrix(path), [[1.0, 2.0]])

    def test_empty_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.lrpm"
        path.write_bytes(b"LRPM" + (0).to_bytes(8, "little")
                         + (3).to_bytes(8, "little"))
        with pytest.raises(FormatError, match="empty"):
            read_matrix(path)

    def test_non_contiguous_input_written_row_major(self, rng, tmp_path):
        M = rng.standard_normal((9, 5)).T  # Fortran-ordered view
        path = tmp_path / "m.lrpm"
        write_matrix(M, path)
        assert np.array_equal(read_matrix(path), M)

    def test_integer_input_read_back_as_float64(self, tmp_path):
        path = tmp_path / "m.lrpm"
        write_matrix(np.arange(6).reshape(2, 3), path)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])

    # The input is checked before the file is opened, so a rejected matrix
    # leaves no file behind.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "m.lrpm"
        with pytest.raises(InvalidInput):
            write_matrix(np.array([[1.0, bad]]), path)
        assert not path.exists()

    def test_non_2d_rejected_before_writing(self, tmp_path):
        path = tmp_path / "m.lrpm"
        with pytest.raises(InvalidInput, match="must be 2-D"):
            write_matrix(np.ones(4), path)
        assert not path.exists()

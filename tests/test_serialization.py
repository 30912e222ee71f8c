import json
import os
import stat

import numpy as np
import pytest

from cmacg import ValidationError
import cmacg.serialization as ser


def random_draws(n, m, r, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m, r)) + 1j * rng.standard_normal((n, m, r))


# Reference encoders: one f"{x:.17g}" per cell, the layout the CSV files
# have always had.  The block codec must reproduce their bytes exactly.
def ref_cells(row):
    return [f"{x:.17g}" for value in row for x in (value.real, value.imag)]


def ref_matrix_to_csv(mat):
    return "".join(",".join(ref_cells(row)) + "\n" for row in np.asarray(mat, dtype=complex))


def ref_draws_to_csv(draws):
    return "".join(
        ",".join([str(index)] + ref_cells(row)) + "\n"
        for index, mat in enumerate(np.asarray(draws, dtype=complex))
        for row in mat
    )


def ref_values_to_csv(values):
    return "".join(f"{index},{float(v):.17g}\n" for index, v in enumerate(values))


SPECIAL = [-0.0, 5e-324, 1e300, -1e-300, 1.0, -3.0, 0.0, 2.0**53, 0.1, -2.5e-310]


def with_specials(values):
    """Random complex values with the special floats written into their first cells."""
    flat = values.reshape(-1)
    k = min(flat.size, len(SPECIAL))
    flat.real[:k] = SPECIAL[:k]
    flat.imag[:k] = SPECIAL[::-1][:k]
    return values


def block_rows(width):
    """Rows in one codec block for a CSV of the given width."""
    return ser._CSV_BLOCK_CELLS // width


def around_one_block(width):
    rows = block_rows(width)
    return [1, rows - 1, rows, rows + 1, 2 * rows + 1]


class TestMatrixCsv:
    def test_round_trip_is_exact(self):
        mat = random_draws(1, 3, 3)[0]
        parsed = ser.matrix_from_csv(ser.matrix_to_csv(mat))
        np.testing.assert_array_equal(parsed, mat)

    def test_rejects_odd_columns(self):
        with pytest.raises(ValidationError, match="even column count"):
            ser.matrix_from_csv("1.0,2.0,3.0\n")

    def test_rejects_ragged(self):
        with pytest.raises(ValidationError, match="ragged"):
            ser.matrix_from_csv("1.0,2.0\n1.0,2.0,3.0,4.0\n")

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError, match="not numeric"):
            ser.matrix_from_csv("1.0,abc\n")

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="no data rows"):
            ser.matrix_from_csv("\n\n")


class TestDrawsCsv:
    def test_round_trip_is_exact(self):
        draws = random_draws(5, 3, 2)
        parsed = ser.draws_from_csv(ser.draws_to_csv(draws))
        np.testing.assert_array_equal(parsed, draws)

    def test_layout(self):
        draws = np.array([[[1.0 + 2.0j, 3.0 - 4.0j]]])
        assert ser.draws_to_csv(draws) == "0,1,2,3,-4\n"

    def test_rejects_gapped_indices(self):
        text = "0,1,0\n2,1,0\n"
        with pytest.raises(ValidationError, match="draw_index"):
            ser.draws_from_csv(text)

    def test_rejects_fractional_index(self):
        with pytest.raises(ValidationError, match="not integral"):
            ser.draws_from_csv("0.5,1,0\n")

    def test_rejects_inconsistent_draw_heights(self):
        text = "0,1,0\n0,1,0\n1,1,0\n"
        with pytest.raises(ValidationError, match="inconsistent row counts"):
            ser.draws_from_csv(text)


class TestCsvGoldenBytes:
    @pytest.mark.parametrize("r", [1, 2])
    def test_draws_match_reference_and_round_trip(self, r):
        # m=1 puts one draw on each row, so n counts rows
        for n in around_one_block(2 * r + 1):
            draws = with_specials(random_draws(n, 1, r, seed=n))
            text = ser.draws_to_csv(draws)
            assert text == ref_draws_to_csv(draws)
            parsed = ser.draws_from_csv(text)
            np.testing.assert_array_equal(parsed.view(float), draws.view(float))

    def test_multi_row_draws_match_reference(self):
        draws = with_specials(random_draws(block_rows(5) // 3 + 1, 3, 2, seed=4))
        text = ser.draws_to_csv(draws)
        assert text == ref_draws_to_csv(draws)
        np.testing.assert_array_equal(ser.draws_from_csv(text), draws)

    def test_matrix_matches_reference_and_round_trips(self):
        for rows in around_one_block(4):
            mat = with_specials(random_draws(1, rows, 2, seed=rows)[0])
            text = ser.matrix_to_csv(mat)
            assert text == ref_matrix_to_csv(mat)
            np.testing.assert_array_equal(ser.matrix_from_csv(text).view(float), mat.view(float))

    def test_values_match_reference(self):
        for n in around_one_block(2):
            values = np.random.default_rng(n).standard_normal(n)
            values[: len(SPECIAL)] = SPECIAL[:n]
            assert ser.values_to_csv(values) == ref_values_to_csv(values)
        specials = [np.inf, -np.inf, np.nan, -0.0, 5e-324]
        assert ser.values_to_csv(specials) == ref_values_to_csv(specials)

    def test_param_checksum_pinned(self):
        mat = np.array(
            [[2.0, 0.5 - 0.25j, -0.0], [0.5 + 0.25j, 1.0, 1e-300j], [0.0, -1e-300j, 3.0]]
        )
        assert ser.matrix_to_csv(mat) == "2,0,0.5,-0.25,-0,0\n0.5,0.25,1,0,0,1e-300\n0,0,-0,-1e-300,3,0\n"
        assert (
            ser.param_checksum(mat)
            == "f549b476d76c884a94c3992ef0b32a336ce07767106ba62e2d55abb4a202f53d"
        )


class TestCsvReaderBlocks:
    WIDTH = 5  # draw_index plus r=2 (Re, Im) pairs

    def lines(self, n_blocks=2):
        draws = random_draws(n_blocks * block_rows(self.WIDTH) + 7, 1, 2, seed=8)
        return draws, ser.draws_to_csv(draws).splitlines()

    def test_blank_and_whitespace_lines_in_second_block_are_skipped(self):
        draws, lines = self.lines()
        at = block_rows(self.WIDTH) + 5
        lines[at:at] = ["", "  \t "]
        parsed = ser.draws_from_csv("\n".join(lines) + "\n")
        np.testing.assert_array_equal(parsed, draws)

    def test_non_numeric_line_number_counts_blank_lines(self):
        _, lines = self.lines()
        lines.insert(3, "")
        bad = block_rows(self.WIDTH) + 10
        cells = lines[bad].split(",")
        cells[2] = "abc"
        lines[bad] = ",".join(cells)
        with pytest.raises(
            ValidationError,
            match=f"draws file: line {bad + 1} is not numeric: "
            "could not convert string to float: 'abc'",
        ):
            ser.draws_from_csv("\n".join(lines))

    def test_non_numeric_is_reported_before_ragged(self):
        _, lines = self.lines()
        lines[2] = "0,1,2"
        bad = block_rows(self.WIDTH) + 3
        lines[bad] = "x,1"
        with pytest.raises(ValidationError, match=f"line {bad + 1} is not numeric"):
            ser.draws_from_csv("\n".join(lines))

    def test_ragged_and_non_numeric_line_reports_not_numeric(self):
        with pytest.raises(ValidationError, match="line 2 is not numeric"):
            ser.matrix_from_csv("1.0,2.0\n1.0,abc,3.0\n")

    def test_ragged_across_blocks(self):
        _, lines = self.lines()
        lines[-1] += ",0,0"
        with pytest.raises(ValidationError, match=r"ragged rows with widths \[5, 7\]"):
            ser.draws_from_csv("\n".join(lines))

    def test_cells_parse_as_float(self):
        parsed = ser.matrix_from_csv(" 1.5,1_0\nnan,\u0661\n")
        np.testing.assert_array_equal(parsed.view(float), [[1.5, 10.0], [np.nan, 1.0]])


class TestDrawsJson:
    def test_round_trip_is_exact(self):
        draws = random_draws(4, 2, 2, seed=1)
        parsed = ser.draws_from_json(ser.draws_to_json(draws))
        np.testing.assert_array_equal(parsed, draws)

    def test_rejects_non_draws_document(self):
        with pytest.raises(ValidationError):
            ser.draws_from_json('{"other": 1}')

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            ser.draws_from_json('{"draws": []}')


class TestChecksumAndSidecar:
    def test_checksum_stable(self):
        mat = random_draws(1, 2, 2, seed=2)[0]
        assert ser.param_checksum(mat) == ser.param_checksum(mat.copy())

    def test_checksum_distinguishes(self):
        mat = random_draws(1, 2, 2, seed=3)[0]
        assert ser.param_checksum(mat) != ser.param_checksum(mat + 1.0)

    def test_write_atomic_and_sidecar(self, tmp_path):
        target = str(tmp_path / "out.csv")
        ser.write_atomic(target, "1,2\n")
        assert open(target).read() == "1,2\n"
        side = ser.write_sidecar(target, {"seed": 0, "n": 1})
        assert side == target + ".meta.json"
        assert json.load(open(side)) == {"seed": 0, "n": 1}
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_write_atomic_mode_follows_umask(self, tmp_path, umask, mode):
        target = str(tmp_path / "out.csv")
        old = os.umask(umask)
        try:
            ser.write_atomic(target, "1,2\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(target).st_mode) == mode

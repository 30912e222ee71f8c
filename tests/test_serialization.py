import json
import os
import stat
from decimal import Decimal, localcontext

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
    values = np.asarray(values, dtype=float).tolist()
    return "".join(f"{index},{v:.17g}\n" for index, v in enumerate(values))


# Reference JSON encoder: one [value.real, value.imag] pair of numpy scalars
# per entry, the layout the JSON files have always had.
def ref_pairs(mat):
    return [[[value.real, value.imag] for value in row] for row in np.asarray(mat, dtype=complex)]


def ref_dump(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


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


# Inputs for the exact-digit encoder, whose window is 1e-4 <= |x| < 1e17.
# None holds a zero, subnormal, inf or nan, so that apart from the cells past
# a window edge its vectorized path runs alone.
def powers_of_ten():
    """Each power of ten from two decades below the window to two above, and its neighbours."""
    powers = 10.0 ** np.arange(-6, 19)
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    return np.concatenate([values, -values])


def exact_ties():
    """k / 2^18 for odd k: 18 significant digits ending in 5, each a tie at 17 digits."""
    values = np.arange(26215, 262144, 2) / 2.0**18
    assert values.min() > 0.1 and values.max() < 1.0
    return values


def rounding_carries():
    """Doubles whose 17-digit rounding carries into the digit before a 9.

    A carry all the way to the next power of ten would take a double within
    half a unit of the 17th digit below that power; there is none, so the
    largest double below each power is added as the nearest case.
    """
    rng = np.random.default_rng(11)
    candidates = rng.uniform(1.0, 10.0, 20000) * 10.0 ** rng.integers(-4, 17, 20000)
    carries = [
        x for x in candidates.tolist()
        if Decimal(x) < Decimal(f"{x:.17g}") and f"{x:.16e}".split("e")[0].endswith("0")
    ]
    assert len(carries) > 500
    exponents = np.arange(-3, 17)
    below_powers = np.nextafter(10.0 ** exponents, 0)
    assert all(Decimal(f"{x:.17g}") < Decimal(10) ** k
               for x, k in zip(below_powers.tolist(), exponents.tolist()))
    return np.concatenate([carries, below_powers])


def random_sweep():
    """10^6 values of random sign and mantissa, with decades from 3 below the window to 2 above."""
    rng = np.random.default_rng(12)
    n = 10**6
    values = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-7, 19, n)
    values[rng.random(n) < 0.5] *= -1
    return values


ENCODER_INPUTS = {
    case.__name__: case for case in (powers_of_ten, exact_ties, rounding_carries, random_sweep)
}


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

    @pytest.mark.parametrize("inputs", sorted(ENCODER_INPUTS))
    def test_values_across_the_encoder_window_match_reference(self, inputs):
        values = ENCODER_INPUTS[inputs]()
        assert ser.values_to_csv(values) == ref_values_to_csv(values)

    def test_special_values_inside_window_blocks(self):
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, np.inf, -np.inf,
                    np.nan, 1e-5, 1e17, 1e300]
        draws = random_draws(block_rows(5) + 3, 1, 2, seed=13)
        flat = draws.view(float).reshape(-1)
        at = np.random.default_rng(13).choice(flat.size, 3 * len(specials), replace=False)
        flat[at] = specials * 3
        assert ser.draws_to_csv(draws) == ref_draws_to_csv(draws)

    def test_index_column_values(self):
        index = np.array([0, 9, 10, 99999999, 10**8])
        cells = np.full((len(index), 2), -0.5)
        expected = "".join(f"{i},-0.5,-0.5\n" for i in index.tolist())
        assert ser._format_rows(cells, index) == expected

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


# Text at the edges of the CSV grammar.  numpy's C reader decodes the text
# first; each of these it must either decode exactly as the block parser
# does, or reject, so that the block parser decides it.
CSV_EDGE_INPUTS = {
    "blank lines": "1,2\n\n3,4\n\n",
    "whitespace-only line": "1,2\n \t \n3,4\n",
    "whitespace-only line, one column": "1\n  \n2\n",
    "underscore": "1_0,2\n",
    "arabic-indic digit": "\u0661,2\n",
    "fullwidth digit": "\uff11,2\n",
    "leading bom": "\ufeff1,2\n",
    "crlf": "1,2\r\n3,4\r\n",
    "lone cr": "1,2\r3,4\r",
    "form feed": "1,2\x0c3,4\n",
    "file separator": "1,2\x1c3,4\n",
    "next line": "1,2\x853,4\n",
    "line separator": "1,2\u20283,4\n",
    "-nan": "-nan,+nan\n",
    "infinity": "infinity,-Infinity\n",
    "overflow": "1e500,-1e500\n",
    "underflow": "1e-400,-2.4703282292062328e-324\n",
    "+1 and -0": "+1,-0\n",
    "1. and .5": "1.,.5\n",
    "tab padding": "\t1.5\t,2\n",
    "nbsp padding": "\xa01.5\xa0, 2\n",
    "trailing comma": "1,2,\n",
    "empty cell": ",1\n",
    "0x10": "0x10,1\n",
    "semicolon": "1;2,3\n",
    "quotes": '"1",2\n',
    "hash": "1#2,3\n",
    "inner space": "1 2,3\n",
    "nul": "1\x002,3\n",
    "nan payload": "nan(1),1\n",
    "bare exponent": "1e,2\n",
    "bare point": ".,2\n",
    "non-numeric": "1,abc\n",
    "ragged": "1,2\n3,4,5\n",
    "ragged and non-numeric": "1,2\n3,x,5\n",
    "one cell": "5",
    "empty": "",
    "newlines only": "\n\n",
    "whitespace only": "  \n\t\n",
}
# Of those, the ones the C reader must reject: they reach the block parser.
BLOCK_PARSER_INPUTS = [
    "whitespace-only line", "whitespace-only line, one column", "underscore",
    "arabic-indic digit", "non-numeric", "ragged", "ragged and non-numeric", "empty",
    "newlines only", "whitespace only",
]
BLOCK_PARSER = ser._parse_csv_blocks


def decoded(parse, text):
    """What a parse of the text gives: the array's shape and bytes, or the error message."""
    try:
        data = parse(text, "edge.csv")
    except ValidationError as exc:
        return str(exc)
    return data.shape, data.tobytes()


@pytest.fixture
def block_parser_calls(monkeypatch):
    """Texts that reach the block parser, which still decides them."""
    calls = []

    def spy(text, path_hint):
        calls.append(text)
        return BLOCK_PARSER(text, path_hint)

    monkeypatch.setattr(ser, "_parse_csv_blocks", spy)
    return calls


@pytest.fixture
def without_block_parser(monkeypatch):
    def refuse(text, path_hint):
        raise AssertionError("the block parser was reached")

    monkeypatch.setattr(ser, "_parse_csv_blocks", refuse)


def adversarial_cells(rng):
    """About 10^5 cells that float() reads, none of which the C reader may reject."""
    bits = np.frombuffer(rng.bytes(8 * 30000), np.float64)  # nan, inf and subnormals included
    precisions = rng.integers(1, 26, len(bits)).tolist()
    cells = [repr(x) for x in bits[:15000].tolist()]
    cells += [f"{x:.{p}g}" for x, p in zip(bits[15000:].tolist(), precisions)]
    # 15 to 40 significant digits, a point anywhere or nowhere, exponents -330 to 310
    digits = (rng.integers(0, 10, (40000, 40)) + ord("0")).astype(np.uint8).view("S40")
    for mantissa, length, point, exponent, sign in zip(
        digits.reshape(-1).astype(str).tolist(), rng.integers(15, 41, 40000).tolist(),
        rng.integers(0, 42, 40000).tolist(), rng.integers(-330, 311, 40000).tolist(),
        rng.choice(["", "-", "+"], 40000).tolist(),
    ):
        mantissa = mantissa[:length]
        if point <= length:
            mantissa = f"{mantissa[:point]}.{mantissa[point:]}"
        cells.append(f"{sign}{mantissa}e{exponent}")
    # exact midpoints between neighbouring doubles, and just above them
    lows = np.abs(rng.standard_normal(2500)) * 10.0 ** rng.integers(-320, 300, 2500)
    lows = lows[np.isfinite(lows) & (lows > 0)]
    with localcontext() as context:
        context.prec = 800
        for low, high in zip(lows.tolist(), np.nextafter(lows, np.inf).tolist()):
            midpoint = f"{(Decimal(low) + Decimal(high)) / 2:e}"
            cells += [midpoint, midpoint.replace("e", "1e")]
    specials = ["0", "-0", "+0.0", "0e-999", "-0.000e400", "5e-324", "-4.9406564584124654e-324",
                "2.4703282292062327e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
                "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
                "-1e309", "nan", "NaN", "-nan", "+NAN", "inf", "-inf", "+Inf", "infinity",
                "-Infinity", "INFINITY", " 1.5", "\t-2.5 ", "1."]
    cells += rng.choice(specials, 100000 - len(cells)).tolist()
    return rng.permutation(np.array(cells, dtype=object)).tolist()


class TestCsvCReader:
    @pytest.mark.parametrize("name", sorted(CSV_EDGE_INPUTS))
    def test_edge_input_decodes_as_the_block_parser_does(self, name, block_parser_calls):
        text = CSV_EDGE_INPUTS[name]
        assert decoded(ser._parse_csv_rows, text) == decoded(BLOCK_PARSER, text)
        if name in BLOCK_PARSER_INPUTS:
            assert block_parser_calls == [text]

    def test_adversarial_cells_decode_as_float(self, without_block_parser):
        cells = adversarial_cells(np.random.default_rng(2023))
        assert len(cells) >= 10**5
        expected = np.array([float(cell) for cell in cells]).reshape(-1, 4)
        rows = [",".join(row) for row in np.array(cells, dtype=object).reshape(-1, 4).tolist()]
        mat = ser.matrix_from_csv("\n".join(rows) + "\n")
        assert mat.view(float).tobytes() == expected.tobytes()
        draws = ser.draws_from_csv("".join(f"{i},{row}\n" for i, row in enumerate(rows)))
        assert draws.shape == (len(rows), 1, 2)
        assert draws.view(float).tobytes() == expected.tobytes()

    def test_written_files_skip_the_block_parser(self, without_block_parser):
        draws = with_specials(random_draws(block_rows(7) + 5, 3, 3, seed=21))
        draws[0, 0, 0] = complex(np.nan, -np.inf)
        np.testing.assert_array_equal(ser.draws_from_csv(ser.draws_to_csv(draws)), draws)
        mat = draws[1]
        assert ser.matrix_from_csv(ser.matrix_to_csv(mat)).tobytes() == mat.tobytes()
        values = np.append(draws.real.reshape(-1), [np.nan, np.inf, -np.inf, -0.0, 5e-324])
        parsed = ser._parse_csv_rows(ser.values_to_csv(values), "values.csv")
        np.testing.assert_array_equal(parsed, np.column_stack([np.arange(len(values)), values]))


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

    @pytest.mark.parametrize("draws", [[[[1, 0]]], [[[[1, 0, 0]]]]])
    def test_rejects_draws_not_of_pairs(self, draws):
        with pytest.raises(ValidationError, match="^frames.json: "):
            ser.draws_from_json(json.dumps({"draws": draws}), path_hint="frames.json")


class TestJsonGoldenBytes:
    @pytest.mark.parametrize("m, r", [(1, 1), (3, 2), (4, 3)])
    def test_draws_match_reference_and_round_trip(self, m, r):
        draws = with_specials(random_draws(7, m, r, seed=m + r))
        draws[-1, -1, -1] = complex(-0.0, 1.0)  # the sign of a zero survives the round trip
        text = ser.draws_to_json(draws)
        assert text == ref_dump({"draws": [ref_pairs(mat) for mat in draws]})
        assert ser.draws_from_json(text).tobytes() == draws.tobytes()

    def test_matrix_matches_reference(self):
        mat = with_specials(random_draws(1, 4, 3, seed=9)[0])
        mat[0, 0] = complex(np.nan, np.inf)
        mat[1, 1] = complex(-np.inf, -0.0)
        assert ser.matrix_to_json(mat) == ref_dump({"matrix": ref_pairs(mat)})

    def test_values_match_reference(self):
        values = np.array([-0.0, 5e-324, 1e300, np.nan, -2.5, 0.1])
        text = ser.values_to_json(values)
        assert text == ref_dump({"log_densities": [float(v) for v in values]})
        assert text == '{"log_densities":[-0.0,5e-324,1e+300,NaN,-2.5,0.1]}\n'

    def test_real_input_is_written_as_complex(self):
        assert ser.draws_to_json(np.ones((1, 1, 1))) == '{"draws":[[[[1.0,0.0]]]]}\n'


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

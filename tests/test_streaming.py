"""``sample`` and ``density`` stream in fixed-size chunks: the same bytes as one whole
batch, memory flat in n, and every fault in a later chunk read as in a whole file.
``density`` decodes a CSV of several pieces with a forked helper, or alone on one CPU, to
the same bytes and messages.  ``verify`` works through its sample a block at a time."""

import errno
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cmacg.cli as cli
import cmacg.distributions as dist
import cmacg.serialization as ser
import cmacg.verify as verify
from cmacg import _workers as workers
from cmacg import (
    CmacgParams, cmacg_log_density_batch, hermitian_part, make_rng, sample_cmacg_batch,
)
from conftest import assert_no_child_left, random_hpd

SHAPES = [(3, 1), (3, 2), (6, 3), (12, 4)]


def around(size):
    return [1, size - 1, size, size + 1, 2 * size + 3]


def write_param(tmp_path, m):
    path = tmp_path / "P.csv"
    path.write_text(ser.matrix_to_csv(random_hpd(np.random.default_rng(m), m)))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def outputs(tmp_path):
    return sorted(os.listdir(tmp_path))


@pytest.fixture(params=["forked", "serial"])
def decoders(request, monkeypatch):
    """``density`` with its forked helper, or alone as under a one-CPU affinity.  Each
    test's files are of several pieces, so after it the forked runs must have forked, the
    serial ones not, and no child may be left."""
    if request.param == "forked" and not workers.two_cpus():
        pytest.skip("the helper needs os.fork and two usable CPUs")
    if request.param == "serial":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield
    assert bool(forks) == (request.param == "forked")
    assert_no_child_left()


class TestSampleChunks:
    @pytest.mark.parametrize("m, r", SHAPES)
    def test_each_format_equals_the_whole_batch(self, tmp_path, m, r):
        # JSON and projections of wide draws encode slowly: beyond m = 3, one size only
        param = write_param(tmp_path, m)
        params = CmacgParams(ser.matrix_from_csv(open(param).read()), r)
        out, chunk = str(tmp_path / "out"), 2 * dist.block_draws(m, r)  # two blocks a chunk
        for n in around(chunk):
            whole = sample_cmacg_batch(params, n, make_rng(n))
            cases = [([], ser.draws_to_csv)]
            if m == 3 or n == chunk + 1:
                projections = hermitian_part(whole @ np.swapaxes(whole.conj(), 1, 2))
                cases += [(["--format", "json"], ser.draws_to_json),
                          (["--as-projection"], lambda _: ser.draws_to_csv(projections))]
            if m == 3:
                cases.append((["--as-projection", "--format", "json"],
                              lambda _: ser.draws_to_json(projections)))
            for flags, encode in cases:
                assert cli.main(["sample", "--param", param, "--r", str(r), "--n", str(n),
                                 "--seed", str(n), "--out", out, *flags]) == 0
                assert read_bytes(out) == encode(whole).encode("ascii"), (n, flags)


class TestDensityChunks:
    @pytest.mark.parametrize("m, r", SHAPES)
    def test_csv_and_json_equal_the_whole_batch(self, tmp_path, m, r):
        param = write_param(tmp_path, m)
        params = CmacgParams(ser.matrix_from_csv(open(param).read()), r)
        frames_csv, frames_json, out = (str(tmp_path / name)
                                        for name in ("frames.csv", "frames.json", "out"))
        size = dist.block_draws(m, r)
        for n in around(size):
            frames = sample_cmacg_batch(params, n, make_rng(n))
            values = cmacg_log_density_batch(params, frames)
            cases = [(frames_csv, ser.draws_to_csv, "csv", ser.values_to_csv)]
            if m == 3 or n == size + 1:  # as for sample
                cases.append((frames_json, ser.draws_to_json, "json", ser.values_to_json))
            for path, write, fmt, encode in cases:
                with open(path, "w") as handle:
                    handle.write(write(frames))
                assert cli.main(["density", "--param", param, "--input", path,
                                 "--format", fmt, "--out", out]) == 0
                assert read_bytes(out) == encode(values).encode("ascii"), (n, fmt)
                assert json.load(open(out + ".meta.json"))["n"] == n

    @pytest.mark.parametrize("piece_bytes", [64, 1000, 4096])
    def test_small_pieces_give_the_same_bytes(self, tmp_path, monkeypatch, decoders,
                                              piece_bytes):
        # pieces far shorter than a draw, and blank, CRLF and form-feed lines across them
        monkeypatch.setattr(ser, "READ_BYTES", piece_bytes)
        param = write_param(tmp_path, 3)
        params = CmacgParams(ser.matrix_from_csv(open(param).read()), 2)
        frames = sample_cmacg_batch(params, 300, make_rng(1))
        lines = ser.draws_to_csv(frames).splitlines()
        text = "".join(line + ("\r\n", "\n\n \t\n", "\x0c", "\n")[k % 4]
                       for k, line in enumerate(lines))
        path, out = str(tmp_path / "frames.csv"), str(tmp_path / "out")
        with open(path, "w", newline="") as handle:
            handle.write(text)
        assert cli.main(["density", "--param", param, "--input", path, "--out", out]) == 0
        expected = ser.values_to_csv(cmacg_log_density_batch(params, frames))
        assert read_bytes(out) == expected.encode("ascii")

    @pytest.mark.parametrize("piece_bytes, tail", [(1, "\n"), (40, "\n"), (1, ""), (4096, "")],
                             ids=["line-pieces", "lines-longer-than-a-piece",
                                  "line-pieces-no-final-line-feed", "no-final-line-feed"])
    def test_line_pieces_long_lines_and_an_open_last_line_give_the_same_bytes(
            self, tmp_path, monkeypatch, piece_bytes, tail):
        # a piece is READ_BYTES and the rest of its line: one line at 1 byte, and each
        # line of about 90 bytes runs past 40
        monkeypatch.setattr(ser, "READ_BYTES", piece_bytes)
        param = write_param(tmp_path, 3)
        params = CmacgParams(ser.matrix_from_csv(open(param).read()), 2)
        frames = sample_cmacg_batch(params, 300, make_rng(2))
        path, out = tmp_path / "frames.csv", str(tmp_path / "out")
        path.write_bytes((ser.draws_to_csv(frames)[:-1] + tail).encode("ascii"))
        assert cli.main(["density", "--param", param, "--input", str(path), "--out", out]) == 0
        expected = ser.values_to_csv(cmacg_log_density_batch(params, frames))
        assert read_bytes(out) == expected.encode("ascii")

    @pytest.mark.parametrize("bound, value", [("BLOCK_DRAWS", 4), ("BLOCK_BYTES", 4 * 16 * 2)])
    def test_batches_are_exact_and_the_last_is_never_one_column(self, monkeypatch, bound,
                                                                 value):
        # the blocks of the whole stream of 2 x 1 draws, whatever its pieces: full ones of
        # 4 draws, by either bound, then the rest, which is one draw only when the stream is
        size = 4
        monkeypatch.setattr(dist, bound, value)
        for count in range(1, 30):
            chunks = np.array_split(np.arange(2 * count).reshape(count, 2, 1),
                                    [3, 4, 11, 12, 12, 25])
            batches = [batch[:, 0, 0].tolist() for batch in cli._batches(chunks)]
            assert batches == [list(range(0, 2 * count, 2))[block]
                               for block in dist.blocks(count, 2, 1)]
            sizes = [len(batch) for batch in batches]
            assert all(s == size for s in sizes[:-1])
            assert 0 < sizes[-1] < size + 2 and (sizes[-1] > 1 or count == 1)


class TestBlockBytes:
    """``BLOCK_BYTES`` moves memory only: at (12, 4), where it bounds a block, ``sample``,
    ``density`` and ``verify`` write the same bytes with blocks of 512 draws and of 36,
    a budget of 38.1 draws rounded down to a multiple of 4."""

    def test_outputs_do_not_depend_on_the_budget(self, tmp_path, monkeypatch):
        param, runs = write_param(tmp_path, 12), []
        for budget, size in [(dist.BLOCK_BYTES, 512), (38 * 12 * 4 * 16 + 100, 36)]:
            monkeypatch.setattr(dist, "BLOCK_BYTES", budget)
            assert dist.block_draws(12, 4) == size
            draws, dens, report = (str(tmp_path / f"{size}-{name}")
                                   for name in ("draws.csv", "dens.csv", "report.json"))
            assert cli.main(["sample", "--param", param, "--r", "4", "--n", "1025",
                             "--seed", "2", "--out", draws]) == 0
            assert cli.main(["density", "--param", param, "--input", draws,
                             "--out", dens]) == 0
            # only the report's bytes matter here, not its verdicts
            assert cli.main(["verify", "--param", param, "--r", "4", "--n", "10000",
                             "--seed", "2", "--out", report]) in (0, 1)
            runs.append([read_bytes(path) for path in (draws, dens, report)])
        assert runs[0] == runs[1]


class TestReadPieces:
    @pytest.mark.parametrize("text", [
        "0,1,2\r\n0,3,4\r\n1,5,6\r\n1,7,8",
        "a" * 50 + "\n" + "b" * 7 + "\n\n",
        "١, x\n" * 9,
    ])
    def test_pieces_end_lines_and_join_to_the_file(self, tmp_path, monkeypatch, text):
        monkeypatch.setattr(ser, "READ_BYTES", 8)
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        pieces = list(ser._read_pieces(str(path)))
        assert "".join(pieces) == text
        assert all(piece.endswith("\n") for piece in pieces[:-1])

    def test_one_byte_pieces_are_the_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ser, "READ_BYTES", 1)
        text = "0,1,2\r\n0,3,4\n1,5,6\n1,7,8"
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("ascii"))
        assert list(ser._read_pieces(str(path))) == text.splitlines(keepends=True)

    def test_undecodable_byte_is_named_by_its_place_in_the_file(self, tmp_path, monkeypatch,
                                                                 capsys):
        monkeypatch.setattr(ser, "READ_BYTES", 64)
        param = write_param(tmp_path, 2)
        path = tmp_path / "frames.csv"
        body = ser.draws_to_csv(sample_cmacg_batch(CmacgParams(np.eye(2), 1), 40, make_rng(0)))
        for bad in (b"\xff", b"\xe2\x82"):
            path.write_bytes(body.encode() + bad + b",0,0\n")
            with pytest.raises(UnicodeDecodeError) as whole:
                path.read_text(encoding="utf-8")
            code = cli.main(["density", "--param", param, "--input", str(path),
                             "--out", str(tmp_path / "out")])
            assert code == 2
            assert capsys.readouterr().err == f"error: cannot read {path}: {whole.value}\n"


class TestCarriageReturns:
    """A piece ends at a CR or an LF, never between the two of a CRLF pair: a file whose
    lines end in lone CRs is read in pieces, and line numbers count as in a whole read."""

    def draws_file(self, tmp_path, newline, fault=False):
        frames = sample_cmacg_batch(CmacgParams(np.diag([3.0, 2.0, 1.0]), 2), 40, make_rng(5))
        lines = ser.draws_to_csv(frames).splitlines()
        if fault:
            lines[100] = lines[100].replace(",", ",abc", 1)
        path = tmp_path / "frames.csv"
        path.write_bytes("".join(line + newline for line in lines).encode("ascii"))
        return frames, path

    def density(self, tmp_path, path):
        param = tmp_path / "P.csv"
        param.write_text(ser.matrix_to_csv(np.diag([3.0, 2.0, 1.0])))
        return cli.main(["density", "--param", str(param), "--input", str(path),
                         "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_pieces_end_lines_and_give_the_same_bytes(self, tmp_path, monkeypatch, decoders,
                                                      newline):
        frames, path = self.draws_file(tmp_path, newline)
        expected = ser.values_to_csv(
            cmacg_log_density_batch(CmacgParams(np.diag([3.0, 2.0, 1.0]), 2), frames))
        text = path.read_bytes().decode("ascii")
        for piece_bytes in range(60, 100):  # every offset of a line end in some piece
            monkeypatch.setattr(ser, "READ_BYTES", piece_bytes)
            pieces = list(ser._read_pieces(str(path)))
            assert "".join(pieces) == text and len(pieces) > 1
            assert all(piece.endswith(newline) and not later.startswith("\n")
                       for piece, later in zip(pieces, pieces[1:]))
            assert self.density(tmp_path, path) == 0
            assert read_bytes(tmp_path / "out") == expected.encode("ascii")

    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_a_fault_names_the_line_of_a_whole_read(self, tmp_path, monkeypatch, capsys,
                                                     decoders, newline):
        _, path = self.draws_file(tmp_path, newline, fault=True)
        with pytest.raises(ValueError) as whole:
            ser.draws_from_csv(path.read_bytes().decode("ascii"), str(path))
        assert "line 101 " in str(whole.value)
        for piece_bytes in range(60, 100):
            monkeypatch.setattr(ser, "READ_BYTES", piece_bytes)
            assert self.density(tmp_path, path) == 2
            assert capsys.readouterr().err == f"error: {whole.value}\n"

    def test_a_crlf_pair_cut_at_the_piece_edge_stays_in_its_piece(self, tmp_path, monkeypatch):
        # the first READ_BYTES end on the first line's CR: its LF joins the piece
        _, path = self.draws_file(tmp_path, "\r\n")
        text = path.read_bytes().decode("ascii")
        first = text.index("\r")
        monkeypatch.setattr(ser, "READ_BYTES", first + 1)
        pieces = list(ser._read_pieces(str(path)))
        assert pieces[0] == text[:first + 2] and not pieces[1].startswith("\n")


class TestEndPiece:
    """An empty piece ends a draws file read in pieces: it returns the held draw, or
    raises the error that needs the whole file."""

    def test_end_returns_the_held_draw(self):
        draws = (np.arange(12.0) * (1 - 2j)).reshape(3, 2, 2)
        lines = ser.draws_to_csv(draws).splitlines(keepends=True)
        cursor = ser.CsvCursor()
        got = [ser.draws_from_csv("".join(lines[:3]), "f", cursor),
               ser.draws_from_csv("".join(lines[3:]), "f", cursor)]
        assert [len(part) for part in got] == [1, 1]  # draw 2 may go on
        end = ser.draws_from_csv("", "f", cursor)
        np.testing.assert_array_equal(end, draws[2:])
        np.testing.assert_array_equal(np.concatenate(got + [end]), ser.draws_from_csv(
            "".join(lines), "f"))

    @pytest.mark.parametrize("text", ["", "\n", " \t\r\n\n"], ids=["empty", "lf", "blank"])
    def test_blank_file_has_no_data_rows(self, tmp_path, text):
        path = tmp_path / "frames.csv"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data rows$"):
            list(ser.read_draws(str(path), "csv"))

    def test_end_lists_every_width_of_a_ragged_file(self, tmp_path, monkeypatch):
        # widths 5, 7 and 3, each in its own piece
        monkeypatch.setattr(ser, "READ_BYTES", 1)
        text = "0,1,2,3,4\n0,1,2,3,4\n1,1,2,3,4,5,6\n2,1,2\n"
        path = tmp_path / "frames.csv"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(ValueError) as whole:
            ser.draws_from_csv(text, str(path))
        assert str(whole.value) == f"{path}: ragged rows with widths [3, 5, 7]"
        with pytest.raises(ValueError) as pieces:
            list(ser.read_draws(str(path), "csv"))
        assert str(pieces.value) == str(whole.value)


def stack_lines(n):
    """The lines of a CSV of n draws of CMACG(diag(3, 2, 1)) at r = 2."""
    frames = sample_cmacg_batch(CmacgParams(np.diag([3.0, 2.0, 1.0]), 2), n, make_rng(3))
    return ser.draws_to_csv(frames).splitlines(keepends=True)


class TestLaterChunkFaults:
    N = 12000  # the last draws sit beyond 3 MiB: pieces and batches past the first
    LATE = 3 * 11000 + 1  # 0-based line of draw 11000's second row

    def cell_fault(self, lines):
        lines[self.LATE] = lines[self.LATE].replace(",", ",abc", 1)
        return f"line {self.LATE + 1} is not numeric: could not convert string to float: 'abc"

    def gap_fault(self, lines):
        for k in range(3 * 11000, len(lines)):
            index, rest = lines[k].split(",", 1)
            lines[k] = f"{int(index) + 1},{rest}"
        return "draw_index must run 0..n-1 in contiguous blocks"

    def manifold_fault(self, lines):
        index, _, rest = lines[self.LATE].split(",", 2)
        lines[self.LATE] = f"{index},1.5,{rest}"
        return "frame 11000 is not semi-unitary: residual "

    def ragged_fault(self, lines):
        lines[self.LATE] = lines[self.LATE].rstrip("\n") + ",0,0\n"
        return "ragged rows with widths [5, 7]"

    def height_fault(self, lines):
        del lines[self.LATE]
        return "draws have inconsistent row counts"

    def blank_lines_then_cell_fault(self, lines):
        lines[5:5] = ["\n", "  \t\n", "\r\n"]
        lines[self.LATE + 3] = lines[self.LATE + 3].replace(",", ",abc", 1)
        return f"line {self.LATE + 4} is not numeric: could not convert string to float: 'abc"

    FAULTS = ["cell_fault", "gap_fault", "manifold_fault", "ragged_fault", "height_fault",
              "blank_lines_then_cell_fault"]

    @pytest.fixture(scope="class")
    def stack(self):
        return stack_lines(self.N)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_whole_file_message_and_nothing_written(self, tmp_path, capsys, decoders, stack,
                                                    fault, existing):
        param = str(tmp_path / "P.csv")
        with open(param, "w") as handle:
            handle.write(ser.matrix_to_csv(np.diag([3.0, 2.0, 1.0])))
        lines = list(stack)
        message = getattr(self, fault)(lines)
        path, out = tmp_path / "frames.csv", tmp_path / "dens.csv"
        path.write_bytes("".join(lines).encode("ascii"))
        assert path.stat().st_size > 3 * ser.READ_BYTES
        if existing:
            out.write_bytes(b"old bytes\n")
        before = outputs(tmp_path)
        code = cli.main(["density", "--param", param, "--input", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        prefix = "error: " if fault == "manifold_fault" else f"error: {path}: "
        assert err.startswith(prefix + message), err
        assert outputs(tmp_path) == before
        if existing:
            assert out.read_bytes() == b"old bytes\n"
        if fault != "manifold_fault":  # the whole-text decoder reads the same fault alike
            with pytest.raises(ValueError) as whole:
                ser.draws_from_csv("".join(lines), str(path))
            assert err == f"error: {whole.value}\n"

    def test_dimension_mismatch_names_the_file(self, tmp_path, capsys, stack):
        # the file's shape of draw, not the size of the batch it was found in
        param = str(tmp_path / "P.csv")
        with open(param, "w") as handle:
            handle.write(ser.matrix_to_csv(np.eye(4)))
        path = tmp_path / "frames.csv"
        path.write_text("".join(stack))
        code = cli.main(["density", "--param", param, "--input", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: frames are 3x2 but the parameter matrix is 4x4\n")

    def test_later_chunk_fault_in_sample_leaves_existing_out(self, tmp_path, monkeypatch):
        calls = []

        def fail_on_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            return sample_cmacg_batch(*args)

        monkeypatch.setattr(cli, "sample_cmacg_batch", fail_on_third)
        out = tmp_path / "draws.csv"
        out.write_bytes(b"old bytes\n")
        code = cli.main(["sample", "--uniform", "--m", "3", "--r", "2",  # three chunks
                         "--n", str(3 * 2 * dist.block_draws(3, 2)), "--out", str(out)])
        assert code == 2
        assert out.read_bytes() == b"old bytes\n"
        assert outputs(tmp_path) == ["draws.csv"]


requires_helper = pytest.mark.skipif(not workers.two_cpus(),
                                     reason="the helper needs os.fork and two usable CPUs")


class TestDensityHelper:
    """A CSV input of several pieces is decoded on two processes where two CPUs are
    usable: the helper takes every other piece.  The bytes are those of a serial read on
    every path, and no helper outlives the command."""

    PIECE = 4096  # bytes: 300 draws make 19 pieces

    @pytest.fixture
    def density(self, tmp_path, monkeypatch):
        """``run(extra_lines=None)``: exit code, output bytes and sidecar of one ``density``
        run on 300 draws in pieces of ``PIECE`` bytes, and the bytes a whole read gives."""
        monkeypatch.setattr(ser, "READ_BYTES", self.PIECE)
        params = CmacgParams(np.diag([3.0, 2.0, 1.0]), 2)
        frames = sample_cmacg_batch(params, 300, make_rng(4))
        expected = ser.values_to_csv(cmacg_log_density_batch(params, frames)).encode("ascii")
        param, path, out = tmp_path / "P.csv", tmp_path / "frames.csv", tmp_path / "dens.csv"
        param.write_text(ser.matrix_to_csv(params.cov.mat))
        lines = ser.draws_to_csv(frames).splitlines(keepends=True)

        def run(fault=None):
            if fault is not None:  # a frame off the manifold, named by its place in the file
                index, _, rest = lines[3 * fault].split(",", 2)
                lines[3 * fault] = f"{index},1.5,{rest}"
            path.write_text("".join(lines))
            code = cli.main(["density", "--param", str(param), "--input", str(path),
                             "--out", str(out)])
            meta = out.parent / (out.name + ".meta.json")
            return (code, out.read_bytes() if out.exists() else None,
                    json.loads(meta.read_text()) if meta.exists() else None)

        return run, expected

    @requires_helper
    def test_sidecar_records_two_workers(self, density):
        run, expected = density
        code, data, meta = run()
        assert (code, data, meta["workers"]) == (0, expected, 2)
        assert_no_child_left()

    @requires_helper
    def test_killed_helper_gives_the_same_bytes(self, density, monkeypatch):
        # the helper kills itself as it starts its second piece, after sending the first
        parent, calls, decode = os.getpid(), [], ser._decode_piece

        def dies_on_second_piece(text, path_hint):
            if os.getpid() != parent:
                calls.append(1)
                if len(calls) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            return decode(text, path_hint)

        monkeypatch.setattr(ser, "_decode_piece", dies_on_second_piece)
        code, data, meta = run_and_reap(density[0])
        assert (code, data, meta["workers"]) == (0, density[1], 2)

    @pytest.mark.parametrize("call", ["fork", "pipe"])
    def test_failed_fork_decodes_alone(self, density, monkeypatch, call):
        def fails(*args):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, call, fails)
        code, data, meta = run_and_reap(density[0])
        assert (code, data, meta["workers"]) == (0, density[1], 1)

    def test_one_cpu_never_forks(self, density, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", no_fork)
        code, data, meta = density[0]()
        assert (code, data, meta["workers"]) == (0, density[1], 1)

    def test_one_piece_never_forks(self, density, monkeypatch):
        monkeypatch.setattr(ser, "READ_BYTES", 1 << 20)
        monkeypatch.setattr(os, "fork", no_fork)
        code, data, meta = density[0]()
        assert (code, data, meta["workers"]) == (0, density[1], 1)

    @requires_helper
    def test_off_manifold_frame_in_a_late_piece_leaves_no_child(self, density, monkeypatch,
                                                                  capsys):
        # batches of 16 draws: the frame's batch is evaluated while pieces are left to read
        monkeypatch.setattr(dist, "BLOCK_DRAWS", 16)
        code, data, meta = run_and_reap(density[0], fault=250)
        assert (code, data, meta) == (2, None, None)
        assert "frame 250 is not semi-unitary" in capsys.readouterr().err

    @requires_helper
    @pytest.mark.parametrize("where", ["decode", "density"])
    def test_interrupt_in_the_read_leaves_no_child(self, density, monkeypatch, tmp_path, where):
        # the second call in this process: a piece decoded here, or a batch of 16 draws
        # evaluated while the reader waits between pieces
        owner, name = (ser, "_decode_piece") if where == "decode" else (
            cli, "cmacg_log_density_batch")
        monkeypatch.setattr(dist, "BLOCK_DRAWS", 16)
        parent, calls, call = os.getpid(), [], getattr(owner, name)

        def interrupted(*args):
            if os.getpid() == parent:
                calls.append(1)
                if len(calls) == 2:
                    raise KeyboardInterrupt
            return call(*args)

        monkeypatch.setattr(owner, name, interrupted)
        with pytest.raises(KeyboardInterrupt) as interrupt:
            density[0]()
        assert_no_child_left()  # while the traceback keeps the command's frames alive
        assert outputs(tmp_path) == ["P.csv", "frames.csv"] and interrupt.traceback

    @requires_helper
    def test_the_helper_loads_no_harness(self, tmp_path):
        probe = (
            "import sys\n"
            "import cmacg.cli as cli, cmacg.serialization as ser\n"
            "ser.READ_BYTES = 4096\n"
            "assert cli.main(['sample', '--uniform', '--m', '3', '--r', '2', '--n', '300',"
            " '--out', 'f.csv']) == 0\n"
            "assert cli.main(['density', '--uniform', '--m', '3', '--input', 'f.csv',"
            " '--out', 'd.csv']) == 0\n"
            "assert 'cmacg._workers' in sys.modules and 'cmacg.verify' not in sys.modules\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(
            cli.__file__)), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "d.csv.meta.json").read_text())["workers"] == 2


def no_fork():
    raise AssertionError("forked")


def run_and_reap(run, **kwargs):
    result = run(**kwargs)
    assert_no_child_left()
    return result


class TestBoundedMemory:
    @staticmethod
    def peak(argv):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base

    def test_peak_is_flat_from_20k_to_200k_draws(self, tmp_path):
        param = write_param(tmp_path, 3)
        draws, dens = str(tmp_path / "draws.csv"), str(tmp_path / "dens.csv")

        def sample(n):
            return ["sample", "--param", param, "--r", "2", "--n", str(n), "--seed", "1",
                    "--out", draws]

        density = ["density", "--param", param, "--input", draws, "--out", dens]
        tracemalloc.start()
        try:
            cli.main(sample(100))  # first calls build caches; they are not per-run memory
            cli.main(density)
            small = self.peak(sample(20000)), self.peak(density)
            large = self.peak(sample(200000)), self.peak(density)
        finally:
            tracemalloc.stop()
        assert os.path.getsize(draws) > 40 * ser.READ_BYTES
        for command, low, high in zip(("sample", "density"), small, large):
            assert high <= 1.05 * low, (command, low, high)

    def test_peak_is_a_few_blocks_at_a_wide_shape(self, tmp_path):
        # at (24, 8) a block is 128 draws, BLOCK_BYTES of draw values, where 2048-draw
        # blocks are 16 times as large
        param = write_param(tmp_path, 24)
        draws, dens = str(tmp_path / "draws.csv"), str(tmp_path / "dens.csv")

        def sample(n):
            return ["sample", "--param", param, "--r", "8", "--n", str(n), "--seed", "1",
                    "--out", draws]

        density = ["density", "--param", param, "--input", draws, "--out", dens]
        tracemalloc.start()
        try:
            cli.main(sample(100))
            cli.main(density)
            peaks = self.peak(sample(4000)), self.peak(density)
        finally:
            tracemalloc.stop()
        assert os.path.getsize(draws) > 16 * ser.READ_BYTES
        for command, peak in zip(("sample", "density"), peaks):
            assert peak <= 16 * dist.BLOCK_BYTES, (command, peak)


class TestVerifyMemory:
    """Each check holds only the values its verdict needs, not its sample, and works through
    its draws a block at a time: its tracemalloc peak, counted in sample stacks, stays
    below one and a half, and past what it holds it is flat in n and, at a wide shape, a
    few blocks."""

    @staticmethod
    def peak(check, m, r, n):
        params = CmacgParams(np.diag(np.arange(m, 0, -1.0)), r)
        verify._run_check(check, params, 10000, 0, verify.DEFAULT_LEVEL)  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            verify._run_check(check, params, n, 0, verify.DEFAULT_LEVEL)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("check", verify.CHECK_NAMES)
    @pytest.mark.parametrize("m, r, n, bound", [(3, 2, 40000, 1.35), (12, 4, 20000, 0.35)],
                             ids=["3-2", "12-4"])
    def test_peak_in_sample_stacks(self, check, m, r, n, bound):
        assert self.peak(check, m, r, n) / (n * m * r * 16) <= bound

    @staticmethod
    def kept(check, r):
        """Bytes held per draw at m > r > 1: a float64 for each value kept, three laws' CDFs
        per direction in the exact-law checks and general_class's weight too, two per
        direction and the r column norms in normal_covariance, the density in normalization."""
        count = verify.DEFAULT_FUNCTIONALS
        return 8 * {"normalization": 1, "normal_covariance": 2 * count + r,
                    "general_class": 3 * count + 1}.get(check, 3 * count)

    @pytest.mark.parametrize("check", verify.CHECK_NAMES)
    def test_peak_past_what_is_held_is_flat_from_n_to_2n(self, check):
        m, r, n = 3, 2, 20000
        low, high = (self.peak(check, m, r, k) - k * self.kept(check, r) for k in (n, 2 * n))
        assert high <= low + dist.block_draws(m, r) * m * r * 16 / 2, (low, high)

    @pytest.mark.parametrize("check", verify.CHECK_NAMES)
    def test_peak_past_what_is_held_is_a_few_blocks_at_a_wide_shape(self, check):
        # at (24, 8) a block is 128 draws, BLOCK_BYTES of draw values, where 2048-draw
        # blocks are 16 times as large
        m, r, n = 24, 8, 10000
        peak = self.peak(check, m, r, n) - n * self.kept(check, r)
        assert peak <= 8 * dist.BLOCK_BYTES, peak

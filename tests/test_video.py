import time

import numpy as np
import pytest

from lrpca import (FormatError, FrameSequence, InvalidInput, ParamSchedule,
                   StopRule, background_subtract, frames_to_matrix,
                   moving_blob_scene, read_pgm, read_pgm_sequence, solve,
                   write_pgm)
from conftest import traced_peak


def sequence_of(frames):
    """The sequence of separate, equal-sized frame arrays."""
    F = np.stack(frames)
    return FrameSequence(F.reshape(len(F), -1).T, *F.shape[1:])


def minimal_pgm(tmp_path, name="f.pgm", payload=bytes([0, 255, 128, 64]),
                header=b"P5\n2 2\n255\n"):
    path = tmp_path / name
    path.write_bytes(header + payload)
    return path


class TestPgmDecode:
    def test_minimal_2x2(self, tmp_path):
        frame = read_pgm(minimal_pgm(tmp_path))
        np.testing.assert_allclose(frame * 255,
                                   [[0.0, 255.0], [128.0, 64.0]])

    def test_comments_and_whitespace(self, tmp_path):
        header = b"P5\n# a comment\n 2\t2 # inline\n255\n"
        frame = read_pgm(minimal_pgm(tmp_path, header=header))
        assert frame.shape == (2, 2)

    @pytest.mark.parametrize("header", [
        b"P5\r\n# a comment\r\n2 2\r\n255\n",
        b"# leading comment\nP5 2 2 255\n",
        b"P5\n#\n#x\n2\x0b2\x0c255\n",
    ], ids=["crlf", "leading_comment", "empty_comments_vt_ff"])
    def test_header_variants(self, tmp_path, header):
        frame = read_pgm(minimal_pgm(tmp_path, header=header))
        assert np.array_equal(frame * 255, [[0.0, 255.0], [128.0, 64.0]])

    def test_crlf_after_maxval_starts_payload(self, tmp_path):
        # One whitespace byte ends the header: after "255\r" the "\n" is
        # the first sample.
        path = minimal_pgm(tmp_path, header=b"P5\r\n2 2\r\n255\r\n",
                           payload=bytes([0, 255, 128]))
        assert np.array_equal(read_pgm(path) * 255, [[10.0, 0.0], [255.0, 128.0]])

    # A "#" inside a token belongs to it; one at a token's start opens a
    # comment that runs to the end of the line, or of the file.
    @pytest.mark.parametrize("header, message", [
        (b"P5\n2 2#x\n255\n", "malformed header"),
        (b"P5#\n2 2\n255\n", "not a binary PGM"),
        (b"P5\nx 2\n255\n", "malformed header"),
        (b"P5\n2 2\n# maxval missing", "truncated header"),
        (b"P5\n2 2", "truncated header"),
    ], ids=["hash_in_token", "hash_in_magic", "non_numeric", "comment_at_eof",
            "no_maxval"])
    def test_bad_header_rejected(self, tmp_path, header, message):
        path = minimal_pgm(tmp_path, header=header, payload=b"")
        with pytest.raises(FormatError, match=message):
            read_pgm(path)

    # A header is outside input: a negative size would fail in reshape
    # (a bare ValueError) and a zero size would give an empty frame.
    @pytest.mark.parametrize("size", [b"-2 -2", b"2 -2", b"0 5", b"5 0"],
                             ids=["both_negative", "height_negative",
                                  "width_zero", "height_zero"])
    def test_frame_size_below_one_rejected(self, tmp_path, size):
        path = minimal_pgm(tmp_path, header=b"P5\n" + size + b"\n255\n")
        with pytest.raises(FormatError, match="unsupported frame size"):
            read_pgm(path)

    def test_long_comment_run_rejected_quickly(self, tmp_path):
        path = minimal_pgm(tmp_path, header=b"#" * (1 << 20), payload=b"")
        t0 = time.perf_counter()
        with pytest.raises(FormatError, match="truncated header"):
            read_pgm(path)
        assert time.perf_counter() - t0 < 2.0

    def test_wide_maxval_rejected(self, tmp_path):
        path = minimal_pgm(tmp_path, header=b"P5\n2 2\n65535\n",
                           payload=bytes(8))
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_p2_rejected(self, tmp_path):
        path = minimal_pgm(tmp_path, header=b"P2\n2 2\n255\n")
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_samples_scaled_by_maxval(self, tmp_path):
        path = minimal_pgm(tmp_path, header=b"P5\n2 1\n15\n",
                           payload=bytes([15, 7]))
        assert np.array_equal(read_pgm(path), [[1.0, 7 / 15]])

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = minimal_pgm(tmp_path, header=b"P5\n2 1\n15\n",
                           payload=bytes([15, 200]))
        with pytest.raises(FormatError, match="maxval 15"):
            read_pgm(path)

    def test_truncated_pixels(self, tmp_path):
        path = minimal_pgm(tmp_path, payload=bytes([0, 255]))
        with pytest.raises(FormatError):
            read_pgm(path)


class TestPgmEncode:
    def test_write_read_round_trip_on_grid(self, tmp_path):
        frame = np.arange(12, dtype=np.float64).reshape(3, 4) * 20 / 255.0
        path = tmp_path / "f.pgm"
        write_pgm(frame, path)
        assert np.array_equal(read_pgm(path), frame)

    def test_clamping(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(np.array([[-0.5, 1.5]]), path)
        np.testing.assert_allclose(read_pgm(path), [[0.0, 1.0]])

    def test_strided_frames_write_their_values_and_stay_unchanged(
            self, tmp_path):
        # Column views of a frame matrix, a transposed and a stepped frame
        # are clamped, scaled and rounded in a copy of their own.
        M = np.random.default_rng(0).uniform(-0.2, 1.2, size=(12, 5))
        M[:6, 0] = (np.arange(6) + 0.5) / 255.0  # near rounding ties
        frames = [M[:, j].reshape(3, 4) for j in range(5)]
        frames += [M[:, 1].reshape(4, 3).T, M[::2, :]]
        for i, frame in enumerate(frames):
            before = frame.copy()
            path = tmp_path / f"{i}.pgm"
            write_pgm(frame, path)
            q = np.round(np.clip(before, 0.0, 1.0) * 255.0).astype(np.uint8)
            header = f"P5\n{q.shape[1]} {q.shape[0]}\n255\n".encode("ascii")
            assert path.read_bytes() == header + q.tobytes()
            assert np.array_equal(frame, before)


class TestSequences:
    def test_lexicographic_order(self, tmp_path):
        for name, level in (("b.pgm", 10), ("a.pgm", 20), ("c.pgm", 30)):
            write_pgm(np.full((2, 2), level / 255.0), tmp_path / name)
        seq = read_pgm_sequence(tmp_path)
        levels = [int(round(f[0, 0] * 255)) for f in seq.frames]
        assert levels == [20, 10, 30]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(InvalidInput):
            read_pgm_sequence(tmp_path)

    def test_directory_named_pgm_skipped(self, tmp_path):
        # A directory sub.pgm raised IsADirectoryError.
        (tmp_path / "sub.pgm").mkdir()
        with pytest.raises(InvalidInput, match="no PGM frames found"):
            read_pgm_sequence(tmp_path)
        write_pgm(np.full((2, 3), 0.5), tmp_path / "a.pgm")
        assert len(read_pgm_sequence(tmp_path)) == 1

    def test_missing_directory(self, tmp_path):
        with pytest.raises(InvalidInput, match="frames directory not found"):
            read_pgm_sequence(tmp_path / "missing")

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidInput, match="at least one frame"):
            FrameSequence(np.zeros((6, 0)), 2, 3)

    @pytest.mark.parametrize("shape, height, width", [
        ((5, 2), 2, 3), ((7, 2), 2, 3), ((6,), 2, 3), ((6, 2, 1), 2, 3),
    ], ids=["rows_short", "rows_long", "one_dim", "three_dim"])
    def test_matrix_not_holding_frames_rejected(self, shape, height, width):
        with pytest.raises(InvalidInput, match="does not hold"):
            FrameSequence(np.zeros(shape), height, width)

    @pytest.mark.parametrize("height, width", [
        (2.0, 3.0), (2, 3.0), (-2, -3), (0, 3), ("2", 3),
    ])
    def test_size_not_integer_rejected(self, height, width):
        # A float size was accepted and made .frames raise TypeError; a
        # string one was compared with 1 first and raised TypeError too.
        with pytest.raises(InvalidInput, match="must be >= 1 and an integer"):
            FrameSequence(np.zeros((6, 2)), height, width)

    def test_inconsistent_dims(self, tmp_path):
        write_pgm(np.zeros((2, 2)), tmp_path / "a.pgm")
        write_pgm(np.zeros((3, 3)), tmp_path / "b.pgm")
        with pytest.raises(InvalidInput):
            read_pgm_sequence(tmp_path)

    # (2, 3) against (3, 2): equal sizes, so equal columns, but other frames.
    @pytest.mark.parametrize("shapes", [
        [(2, 3), (2, 3), (3, 2)], [(3, 2), (2, 3)],
    ], ids=["last_transposed", "transposed"])
    def test_transposed_frame_rejected(self, tmp_path, shapes):
        for i, shape in enumerate(shapes):
            write_pgm(np.zeros(shape), tmp_path / f"{i}.pgm")
        with pytest.raises(InvalidInput, match="inconsistent frame dimensions"):
            read_pgm_sequence(tmp_path)

    def test_frames_view_the_frame_matrix(self, tmp_path):
        for i in range(3):
            write_pgm(np.full((2, 3), i / 4), tmp_path / f"{i}.pgm")
        seq = read_pgm_sequence(tmp_path)
        Y = frames_to_matrix(seq)
        assert frames_to_matrix(seq) is Y
        assert Y.shape == (6, 3) and Y.flags.c_contiguous
        for f in seq.frames:
            assert f.shape == (2, 3) and np.shares_memory(Y, f)

    @pytest.mark.parametrize("maxval", [255, 200, 15, 1])
    def test_frame_matrix_matches_stacked_frames(self, tmp_path, rng, maxval):
        for i in range(7):
            payload = rng.integers(0, maxval + 1, 5 * 4, dtype=np.uint8)
            minimal_pgm(tmp_path, f"{i:02d}.pgm", payload.tobytes(),
                        f"P5\n4 5\n{maxval}\n".encode())
        # The float32 quotient equals the float64 one rounded to float32:
        # with 53 >= 2 * 24 + 2, a double rounding of a quotient is exact.
        Y = frames_to_matrix(read_pgm_sequence(tmp_path))
        stacked = np.stack([read_pgm(tmp_path / f"{i:02d}.pgm").reshape(-1)
                            for i in range(7)], axis=1).astype(np.float32)
        assert Y.dtype == np.float32 and Y.tobytes() == stacked.tobytes()


class TestFrameMatrix:
    def test_single_frame_column(self):
        seq = sequence_of((np.array([[0.0, 1.0], [1.0, 0.0]]),))
        M = frames_to_matrix(seq)
        assert M.shape == (4, 1)
        np.testing.assert_allclose(M[:, 0], [0.0, 1.0, 1.0, 0.0])

    def test_identical_frames_rank_one(self, rng):
        f = rng.random((4, 5))
        M = frames_to_matrix(sequence_of((f, f, f)))
        s = np.linalg.svd(M, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_round_trip(self, rng):
        frames = tuple(rng.random((3, 4)) for _ in range(5))
        seq = sequence_of(frames)
        back = FrameSequence(frames_to_matrix(seq), 3, 4)
        for a, b in zip(seq.frames, back.frames):
            assert np.array_equal(a, b)

    def test_scene_frames_are_contiguous_views(self):
        seq, _ = moving_blob_scene(height=6, width=7, n_frames=4, blob=2)
        M = frames_to_matrix(seq)
        assert M.shape == (42, 4) and M.flags.f_contiguous
        for j, f in enumerate(seq.frames):
            assert f.shape == (6, 7) and f.flags.c_contiguous
            assert np.shares_memory(M, f)
            assert np.array_equal(f.reshape(-1), M[:, j])

    def test_wrapped_matrix_given_back_uncopied(self, rng):
        M = rng.random((12, 5))
        seq = FrameSequence(M, 3, 4)
        assert frames_to_matrix(seq) is M
        assert all(np.shares_memory(M, f) for f in seq.frames)

    def test_built_from_nested_list(self):
        seq = FrameSequence([[0.1], [0.2]], 1, 2)
        assert isinstance(seq.matrix, np.ndarray)
        assert np.array_equal(seq.frames[0], [[0.1, 0.2]])

    def test_nested_list_not_holding_frames_rejected(self):
        # A list had no .shape, so this raised a bare AttributeError.
        with pytest.raises(InvalidInput, match="does not hold"):
            FrameSequence([[0.1, 0.2]], 1, 2)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidInput):
            FrameSequence(rng.random((7, 2)), 2, 2)

    def test_equality_is_identity(self):
        # A generated __eq__ compared the matrices with == and raised.
        a, _ = moving_blob_scene(4, 5, 3, blob=2)
        b, _ = moving_blob_scene(4, 5, 3, blob=2)
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert np.array_equal(a.matrix, b.matrix)


class TestBackgroundSubtract:
    @staticmethod
    def geometric_schedule(peak, K=5, phi=0.65, eta=0.7):
        zetas = tuple(peak * 0.65 ** k for k in range(K + 1))
        return ParamSchedule(zetas=zetas, etas=(eta,) * K, beta=1.0, phi=phi)

    def test_static_scene_clean_foreground(self):
        frame = np.linspace(0.2, 0.8, 24).reshape(4, 6)
        seq = sequence_of((frame,) * 8)
        theta = self.geometric_schedule(1.0)
        bg, fg, trace = background_subtract(seq, 1, theta)
        for f in fg.frames:
            assert np.abs(f).max() <= 1e-6
        for f in bg.frames:
            np.testing.assert_allclose(f, frame, atol=1e-6)

    def test_moving_blob_isolated(self):
        seq, masks = moving_blob_scene(height=20, width=26, n_frames=30)
        theta = self.geometric_schedule(0.5)
        stop = StopRule("iterate_change", 1e-3, 80)
        bg, fg, trace = background_subtract(seq, 2, theta, stop=stop)
        tp = fp = fn = 0
        for f, mask in zip(fg.frames, masks):
            detected = f > 0.1
            tp += int((detected & mask).sum())
            fp += int((detected & ~mask).sum())
            fn += int((~detected & mask).sum())
        precision = tp / max(tp + fp, 1)
        recall = tp / max(tp + fn, 1)
        assert precision >= 0.9
        assert recall >= 0.9

    def test_rank_two_tall_clip(self):
        # A 120 x 160, 60-frame clip whose background has rank 1, so at rank
        # 2 the init's sigma_2 and sigma_3 are close; an init SVD that pursues
        # an accuracy target there raised ConvergenceFailure instead.
        seq, masks = moving_blob_scene(height=120, width=160, n_frames=60,
                                       blob=5, amplitude=0.85877,
                                       phase=(97, 64))
        theta = ParamSchedule(zetas=tuple(0.425 * 0.65 ** k for k in range(11)),
                              etas=(0.65,) * 10, beta=1.0, phi=0.65)
        stop = StopRule("iterate_change", 1e-3, 100)
        bg, fg, trace = background_subtract(seq, 2, theta, stop=stop)
        detected = np.stack(fg.frames) > 0.1
        masks = np.stack(masks)
        tp = int((detected & masks).sum())
        f1 = 2 * tp / (2 * tp + int((detected & ~masks).sum())
                       + int((~detected & masks).sum()))
        assert f1 >= 0.9

    def test_rank_exceeds_frames(self):
        seq = sequence_of((np.zeros((2, 2)), np.ones((2, 2)) * 0.5))
        with pytest.raises(InvalidInput, match=r"rank 3 exceeds min\(shape\)=2"):
            background_subtract(seq, 3, self.geometric_schedule(1.0))

    def test_rank_not_integer_rejected(self):
        # A string rank raised a bare TypeError from a comparison.
        seq = sequence_of((np.zeros((2, 2)), np.ones((2, 2)) * 0.5))
        with pytest.raises(InvalidInput, match="rank must be >= 1"):
            background_subtract(seq, "2", self.geometric_schedule(1.0))

    def test_holds_frame_matrix_and_solve_buffers(self):
        # Besides Y, the solve's C-ordered copy of the scene's F-ordered
        # matrix, background_subtract holds what its iterate_change solve
        # holds: one S, which every pass overwrites, the slab scratch and
        # the returned X.  The clamps write into the solve's own X and S,
        # whose columns the returned frames view.
        seq, _ = moving_blob_scene(height=120, width=160, n_frames=60,
                                   blob=5, amplitude=0.85877, phase=(97, 64))
        theta = ParamSchedule(zetas=tuple(0.425 * 0.65 ** k for k in range(11)),
                              etas=(0.65,) * 10, beta=1.0, phi=0.65)
        Y = np.ascontiguousarray(frames_to_matrix(seq))
        (_, _, trace), peak = traced_peak(
            lambda: background_subtract(seq, 1, theta))
        assert trace.iterations > 1
        assert peak < Y.nbytes + 2.1 * Y.nbytes

    def test_read_and_solve_hold_the_video_once(self, tmp_path):
        # The frames read from disk are the columns of the solve's float32
        # Y, so reading plus solving holds Y, the one float32 S of the
        # iterate_change stop, the slab scratch and the returned X; the
        # peak comes when S is clamped into the float64 foreground beside
        # the float64 background: Y + S + 2 float64 videos, about 3.0
        # float64 videos.  A second copy of the video would add another.
        seq, _ = moving_blob_scene(height=120, width=160, n_frames=60,
                                   blob=5, amplitude=0.85877, phase=(97, 64))
        for t, frame in enumerate(seq.frames):
            write_pgm(frame, tmp_path / f"{t:05d}.pgm")
        theta = ParamSchedule(zetas=tuple(0.425 * 0.65 ** k for k in range(11)),
                              etas=(0.65,) * 10, beta=1.0, phi=0.65)

        def read_and_solve():
            read = read_pgm_sequence(tmp_path)
            return read, background_subtract(read, 1, theta)

        (read, (_, _, trace)), peak = traced_peak(read_and_solve)
        Y = frames_to_matrix(read)
        assert trace.iterations > 1
        assert peak < 3.1 * Y.size * 8

    def test_float32_read_gives_float64_frames(self, tmp_path):
        # Frames read from disk are solved in float32, but the background
        # and foreground come back float64, so a foreground frame written
        # as PGM and read back is its own 8-bit quantization exactly; with
        # float32 frames, that comparison fails at 254 of the 256 levels.
        # They are clamped into F-ordered matrices, so each frame that
        # write_pgm copies is contiguous.
        seq, _ = moving_blob_scene(height=24, width=32, n_frames=40)
        for t, frame in enumerate(seq.frames):
            write_pgm(frame, tmp_path / f"{t:05d}.pgm")
        read = read_pgm_sequence(tmp_path)
        assert read.matrix.dtype == np.float32
        theta = self.geometric_schedule(0.5)
        stop = StopRule("iterate_change", 1e-3, 100)
        bg, fg, trace = background_subtract(read, 1, theta, stop=stop)
        assert bg.matrix.dtype == fg.matrix.dtype == np.float64
        assert trace.iterations > 1
        X, S, _ = solve(read.matrix, 1, theta, stop=stop)
        assert X.dtype == S.dtype == np.float32
        for out, M in ((bg, X), (fg, np.abs(S))):
            assert out.matrix.flags.f_contiguous
            assert all(f.flags.c_contiguous for f in out.frames)
            assert np.array_equal(out.matrix, np.clip(M, 0.0, 1.0))
        F = np.stack(fg.frames)
        assert F.max() > 0.5  # the blob is in the foreground
        for t in (0, len(F) - 1):
            path = tmp_path / f"fg_{t}.pgm"
            write_pgm(fg.frames[t], path)
            assert np.array_equal(read_pgm(path), np.round(F[t] * 255.0) / 255.0)

    def test_scene_and_c_ordered_copy_give_identical_outputs(self):
        # The solve copies the scene's F-ordered matrix into C order, so it
        # reads the same Y as on a C-ordered copy of that matrix.
        seq, _ = moving_blob_scene(height=16, width=20, n_frames=20)
        c_seq = FrameSequence(np.ascontiguousarray(seq.matrix), 16, 20)
        theta = self.geometric_schedule(0.5)
        out, c_out = (background_subtract(s, 2, theta) for s in (seq, c_seq))
        for a, b in zip(out[:2], c_out[:2]):
            assert a.matrix.tobytes() == b.matrix.tobytes()
        assert out[2].residuals == c_out[2].residuals

    def test_reconstruction_residual(self):
        seq, _ = moving_blob_scene(height=16, width=20, n_frames=20)
        theta = self.geometric_schedule(0.5)
        stop = StopRule("iterate_change", 1e-3, 80)
        bg, fg, trace = background_subtract(seq, 2, theta, stop=stop)
        assert trace.residuals[-1] <= 1e-3

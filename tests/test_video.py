import time

import numpy as np
import pytest

from lrpca import (FormatError, FrameSequence, InvalidInput, ParamSchedule,
                   StopRule, background_subtract, frames_to_matrix,
                   matrix_to_frames, moving_blob_scene, read_pgm,
                   read_pgm_sequence, spectral_init, write_pgm)
from conftest import traced_peak


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

    def test_missing_directory(self, tmp_path):
        with pytest.raises(InvalidInput, match="frames directory not found"):
            read_pgm_sequence(tmp_path / "missing")

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidInput, match="at least one frame"):
            FrameSequence(())

    def test_inconsistent_dims(self, tmp_path):
        write_pgm(np.zeros((2, 2)), tmp_path / "a.pgm")
        write_pgm(np.zeros((3, 3)), tmp_path / "b.pgm")
        with pytest.raises(InvalidInput):
            read_pgm_sequence(tmp_path)


class TestFrameMatrix:
    def test_single_frame_column(self):
        seq = FrameSequence((np.array([[0.0, 1.0], [1.0, 0.0]]),))
        M = frames_to_matrix(seq)
        assert M.shape == (4, 1)
        np.testing.assert_allclose(M[:, 0], [0.0, 1.0, 1.0, 0.0])

    def test_identical_frames_rank_one(self, rng):
        f = rng.random((4, 5))
        M = frames_to_matrix(FrameSequence((f, f, f)))
        s = np.linalg.svd(M, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_round_trip(self, rng):
        frames = tuple(rng.random((3, 4)) for _ in range(5))
        seq = FrameSequence(frames)
        back = matrix_to_frames(frames_to_matrix(seq), 3, 4)
        for a, b in zip(seq.frames, back.frames):
            assert np.array_equal(a, b)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidInput):
            matrix_to_frames(rng.random((7, 2)), 2, 2)


class TestBackgroundSubtract:
    @staticmethod
    def geometric_schedule(peak, K=5, phi=0.65, eta=0.7):
        zetas = tuple(peak * 0.65 ** k for k in range(K + 1))
        return ParamSchedule(zetas=zetas, etas=(eta,) * K, beta=1.0, phi=phi)

    def test_static_scene_clean_foreground(self):
        frame = np.linspace(0.2, 0.8, 24).reshape(4, 6)
        seq = FrameSequence(tuple(frame.copy() for _ in range(8)))
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
        seq = FrameSequence((np.zeros((2, 2)), np.ones((2, 2)) * 0.5))
        with pytest.raises(InvalidInput, match="exceeds frame count"):
            background_subtract(seq, 3, self.geometric_schedule(1.0))

    def test_holds_frame_matrix_and_solve_buffers(self):
        # Besides the frame matrix Y, background_subtract holds what its
        # iterate_change solve holds: the clamps write into the solve's own
        # X and S, whose columns the returned frames view.
        seq, _ = moving_blob_scene(height=120, width=160, n_frames=60,
                                   blob=5, amplitude=0.85877, phase=(97, 64))
        theta = ParamSchedule(zetas=tuple(0.425 * 0.65 ** k for k in range(11)),
                              etas=(0.65,) * 10, beta=1.0, phi=0.65)
        Y = frames_to_matrix(seq)
        _, init_peak = traced_peak(lambda: spectral_init(Y, 1, theta.zeta0))
        (_, _, trace), peak = traced_peak(
            lambda: background_subtract(seq, 1, theta))
        assert trace.iterations > 1
        assert peak < Y.nbytes + max(2.5 * Y.nbytes, init_peak + 0.1 * Y.nbytes)

    def test_reconstruction_residual(self):
        seq, _ = moving_blob_scene(height=16, width=20, n_frames=20)
        theta = self.geometric_schedule(0.5)
        stop = StopRule("iterate_change", 1e-3, 80)
        bg, fg, trace = background_subtract(seq, 2, theta, stop=stop)
        assert trace.residuals[-1] <= 1e-3

import numpy as np
import pytest

from lrpca import (FormatError, InvalidInput, ParamSchedule, read_schedule,
                   rescale_schedule, write_schedule)


def make_schedule(K=10, beta=0.8, phi=0.6):
    zetas = tuple(0.5 ** k for k in range(K + 1))
    etas = tuple(0.5 + 0.01 * k for k in range(K))
    return ParamSchedule(zetas=zetas, etas=etas, beta=beta, phi=phi)


class TestScheduleAt:
    def test_stored_lookup(self):
        theta = make_schedule()
        zeta, eta = theta.at(3)
        assert zeta == theta.zetas[3]
        assert eta == theta.etas[2]

    def test_geometric_tail(self):
        theta = make_schedule()
        K = theta.K
        zeta, eta = theta.at(K + 2)
        assert zeta == pytest.approx(theta.phi ** 2 * theta.zetas[K])
        assert eta == pytest.approx(theta.beta ** 2 * theta.etas[K - 1])

    def test_unit_tail_is_constant(self):
        theta = make_schedule(beta=1.0, phi=1.0)
        for k in (11, 20, 50):
            zeta, eta = theta.at(k)
            assert zeta == theta.zetas[-1]
            assert eta == theta.etas[-1]

    def test_tail_ratio_exact(self):
        theta = make_schedule(beta=0.7, phi=0.9)
        K = theta.K
        for j in range(2, 6):
            _, eta_hi = theta.at(K + j)
            _, eta_lo = theta.at(K + j - 1)
            assert eta_hi / eta_lo == pytest.approx(theta.beta, rel=1e-15)
            z_hi, _ = theta.at(K + j)
            z_lo, _ = theta.at(K + j - 1)
            assert z_hi / z_lo == pytest.approx(theta.phi, rel=1e-15)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            make_schedule().at(0)

    # int(k) read 1.5, 2.9 and "2" as layers 1, 2 and 2.
    @pytest.mark.parametrize("k", [1.5, 2.9, "2", 0])
    def test_index_not_a_count_rejected(self, k):
        with pytest.raises(InvalidInput,
                           match="iteration index must be >= 1 and an integer"):
            make_schedule().at(k)
        assert make_schedule().at(np.int64(2)) == make_schedule().at(2)

    def test_no_tail_without_layers(self):
        # A K = 0 schedule has only zeta_0, so no zeta_K and eta_K to decay.
        with pytest.raises(InvalidInput, match="no tail anchor"):
            make_schedule(K=0).at(1)


class TestRescale:
    def test_n_up_shrinks_thresholds(self):
        theta = make_schedule()
        out = rescale_schedule(theta, 1000, 5, 3000, 5)
        assert np.allclose(out.zetas, np.array(theta.zetas) / 3)
        assert out.etas == theta.etas
        assert (out.beta, out.phi) == (theta.beta, theta.phi)

    def test_identity(self):
        theta = make_schedule()
        assert rescale_schedule(theta, 1000, 5, 1000, 5) == theta

    def test_r_up_grows_thresholds(self):
        theta = make_schedule()
        out = rescale_schedule(theta, 1000, 5, 1000, 15)
        assert np.allclose(out.zetas, np.array(theta.zetas) * 3)

    def test_multiplicative_composition(self):
        theta = make_schedule()
        via_mid = rescale_schedule(rescale_schedule(theta, 800, 4, 1600, 8),
                                   1600, 8, 400, 2)
        direct = rescale_schedule(theta, 800, 4, 400, 2)
        assert via_mid.zetas == direct.zetas


HEADER = "kind,k,value\n"


def write_text(tmp_path, text):
    path = tmp_path / "schedule.csv"
    path.write_text(text)
    return path


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        theta = make_schedule(beta=0.73456789012345678, phi=0.91234567890123456)
        path = tmp_path / "schedule.csv"
        write_schedule(theta, path)
        assert read_schedule(path) == theta

    def test_golden_bytes(self, tmp_path):
        # 17 significant digits, LF endings, zetas, etas, then beta and phi.
        theta = ParamSchedule(zetas=(1 / 3, 0.1 + 0.2, 1e-5 / 3),
                              etas=(0.65, 2 / 3), beta=0.7 + 0.1, phi=1.0)
        path = tmp_path / "schedule.csv"
        write_schedule(theta, path)
        assert path.read_bytes() == (
            b"kind,k,value\n"
            b"zeta,0,0.33333333333333331\n"
            b"zeta,1,0.30000000000000004\n"
            b"zeta,2,3.3333333333333337e-06\n"
            b"eta,1,0.65000000000000002\n"
            b"eta,2,0.66666666666666663\n"
            b"beta,0,0.79999999999999993\n"
            b"phi,0,1\n")

    def test_cardinality(self, tmp_path):
        path = tmp_path / "schedule.csv"
        write_schedule(make_schedule(K=10), path)
        kinds = [ln.split(",")[0] for ln in path.read_text().splitlines()[1:]]
        assert kinds.count("zeta") == 11
        assert kinds.count("eta") == 10
        assert kinds.count("beta") == 1
        assert kinds.count("phi") == 1

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="zeta rows must cover"):
            read_schedule(write_text(tmp_path, HEADER))

    @pytest.mark.parametrize("line", ["zeta,0,not-a-number", "zeta,0",
                                      "zeta,0,1.0,2.0", "zeta,x,1.0"],
                             ids=["value", "short", "long", "index"])
    def test_malformed_line_rejected(self, tmp_path, line):
        with pytest.raises(FormatError, match="malformed line"):
            read_schedule(write_text(tmp_path, HEADER + line + "\n"))

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="unknown schedule kind 'gamma'"):
            read_schedule(write_text(tmp_path, HEADER + "gamma,0,1.0\n"))

    def test_gap_in_indices_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="zeta rows must cover"):
            read_schedule(write_text(tmp_path,
                                     HEADER + "zeta,0,1.0\nzeta,2,0.5\n"))

    def test_gap_in_eta_indices_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="eta rows must cover"):
            read_schedule(write_text(tmp_path, HEADER + "zeta,0,1.0\n"
                                     "zeta,1,0.5\nzeta,2,0.2\neta,2,0.5\n"))

    @pytest.mark.parametrize("eta", [-3.0, 0.0])
    def test_nonpositive_eta_rejected(self, tmp_path, eta):
        with pytest.raises(FormatError, match="step sizes"):
            read_schedule(write_text(tmp_path, HEADER + "zeta,0,1.0\n"
                                     f"zeta,1,0.5\neta,1,{eta}\n"))

    def test_file_round_trip(self, tmp_path):
        theta = make_schedule()
        path = tmp_path / "schedule.csv"
        write_schedule(theta, path)
        assert read_schedule(path) == theta
        text = path.read_text()
        assert text.startswith("kind,k,value\n")
        assert text.endswith("\n")

    # A repeated row would silently replace the earlier one.
    @pytest.mark.parametrize("repeat", ["zeta,1,9.0", "eta,1,0.2", "beta,0,0.2"],
                             ids=["zeta", "eta", "beta"])
    def test_repeated_row_rejected(self, tmp_path, repeat):
        path = tmp_path / "schedule.csv"
        path.write_text("kind,k,value\nzeta,0,1.0\nzeta,1,0.5\nzeta,2,0.25\n"
                        "eta,1,0.7\neta,2,0.7\nbeta,0,0.9\nphi,0,0.5\n"
                        f"{repeat}\n")
        kind, k, _ = repeat.split(",")
        with pytest.raises(FormatError,
                           match=f"repeated schedule row '{kind}' at k = {k}"):
            read_schedule(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError):
            read_schedule(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_schedule(path)

    def test_not_utf8_rejected(self, tmp_path):
        # A byte that is not UTF-8 raised UnicodeDecodeError.
        path = tmp_path / "schedule.csv"
        path.write_bytes(b"kind,k,value\nzeta,0,1.0\xff\n")
        with pytest.raises(FormatError, match="not UTF-8 text"):
            read_schedule(path)


class TestValidation:
    def test_negative_zeta_rejected(self):
        with pytest.raises(ValueError):
            ParamSchedule(zetas=(-1.0, 0.5), etas=(0.5,))

    @pytest.mark.parametrize("eta", [-3.0, 0.0, float("nan"), float("inf")])
    def test_nonpositive_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="step sizes"):
            ParamSchedule(zetas=(1.0, 0.5), etas=(eta,))

    # zetas and etas are sequences; a scalar fails where it enters.
    @pytest.mark.parametrize("kw, match", [
        ({"zetas": 0.5, "etas": ()}, "zetas must be a tuple"),
        ({"zetas": (1.0, 0.5), "etas": 0.5}, "etas must be a tuple"),
    ], ids=["zetas", "etas"])
    def test_scalar_sequence_rejected(self, kw, match):
        with pytest.raises(InvalidInput, match=match):
            ParamSchedule(**kw)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParamSchedule(zetas=(1.0, 0.5), etas=(0.5, 0.4))

    def test_nonpositive_tail_rejected(self):
        with pytest.raises(ValueError):
            ParamSchedule(zetas=(1.0,), etas=(), beta=0.0)

    @pytest.mark.parametrize("field, value", [
        ("zetas", (float("nan"), 1.0)), ("zetas", (1.0, float("nan"))),
        ("beta", float("nan")), ("phi", float("nan")),
        ("beta", float("inf")), ("phi", float("inf")),
    ])
    def test_non_finite_values_rejected(self, field, value):
        kw = dict(zetas=(1.0, 0.5), etas=(0.5,), beta=0.8, phi=0.6)
        kw[field] = value
        with pytest.raises(ValueError):
            ParamSchedule(**kw)

    @pytest.mark.parametrize("kind, k", [("zeta", 0), ("zeta", 1),
                                         ("beta", 0), ("phi", 0)])
    def test_read_rejects_nan(self, tmp_path, kind, k):
        records = {("zeta", 0): 1.0, ("zeta", 1): 0.5, ("eta", 1): 0.5,
                   ("beta", 0): 0.8, ("phi", 0): 0.6}
        records[(kind, k)] = "nan"
        text = HEADER + "".join(f"{kd},{i},{v}\n" for (kd, i), v in records.items())
        with pytest.raises(FormatError):
            read_schedule(write_text(tmp_path, text))

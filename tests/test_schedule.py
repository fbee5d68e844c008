import numpy as np
import pytest

from lrpca import (ParamSchedule, ParseError, export_schedule, import_schedule,
                   read_schedule, rescale_schedule, write_schedule)


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


class TestSerialization:
    def test_round_trip_exact(self):
        theta = make_schedule(beta=0.73456789012345678, phi=0.91234567890123456)
        assert import_schedule(export_schedule(theta)) == theta

    def test_cardinality(self):
        records = export_schedule(make_schedule(K=10))
        kinds = [r[0] for r in records]
        assert kinds.count("zeta") == 11
        assert kinds.count("eta") == 10
        assert kinds.count("beta") == 1
        assert kinds.count("phi") == 1

    def test_empty_records_rejected(self):
        with pytest.raises(ParseError):
            import_schedule([])

    def test_malformed_record_rejected(self):
        with pytest.raises(ParseError):
            import_schedule([("zeta", 0, "not-a-number")])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            import_schedule([("gamma", 0, 1.0)])

    def test_gap_in_indices_rejected(self):
        with pytest.raises(ParseError):
            import_schedule([("zeta", 0, 1.0), ("zeta", 2, 0.5)])

    @pytest.mark.parametrize("eta", [-3.0, 0.0])
    def test_nonpositive_eta_rejected(self, eta):
        with pytest.raises(ParseError, match="step sizes"):
            import_schedule([("zeta", 0, 1.0), ("zeta", 1, 0.5),
                             ("eta", 1, eta)])

    def test_file_round_trip(self, tmp_path):
        theta = make_schedule()
        path = tmp_path / "schedule.csv"
        write_schedule(theta, path)
        assert read_schedule(path) == theta
        text = path.read_text()
        assert text.startswith("kind,k,value\n")
        assert text.endswith("\n")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError):
            read_schedule(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_schedule(path)


class TestValidation:
    def test_negative_zeta_rejected(self):
        with pytest.raises(ValueError):
            ParamSchedule(zetas=(-1.0, 0.5), etas=(0.5,))

    @pytest.mark.parametrize("eta", [-3.0, 0.0, float("nan"), float("inf")])
    def test_nonpositive_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="step sizes"):
            ParamSchedule(zetas=(1.0, 0.5), etas=(eta,))

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
    def test_import_rejects_nan(self, kind, k):
        records = {("zeta", 0): 1.0, ("zeta", 1): 0.5, ("eta", 1): 0.5,
                   ("beta", 0): 0.8, ("phi", 0): 0.6}
        records[(kind, k)] = "nan"
        with pytest.raises(ParseError):
            import_schedule([(kd, i, v) for (kd, i), v in records.items()])

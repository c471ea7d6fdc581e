import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zerokit

from zerokit.cli import EXIT_FAIL, EXIT_MISSING, EXIT_OK, EXIT_USAGE, main
from zerokit.constants import density_exponent_for
from zerokit.dirichlet.zerocache import CACHE_HEADER, read_zero_cache


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses the constants Infinity, -Infinity and NaN, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestConstants:
    def test_derive_default_passes(self, capsys):
        code, out, _ = run(capsys, "constants", "derive")
        assert code == EXIT_OK
        assert "A_lower" in out and "FAIL" not in out

    def test_derive_off_reference_fails(self, capsys):
        code, out, _ = run(capsys, "constants", "derive", "--alpha", "0.5")
        assert code == EXIT_FAIL
        assert "FAIL" in out
        assert "k_hi_coeff" in out

    def test_derive_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "constants", "derive", "--json")
        assert code == EXIT_OK
        rows = strict_json(out)
        assert {r["name"] for r in rows} >= {"A_lower", "k_hi_coeff", "y_coeff"}
        again = json.loads(json.dumps(rows))
        assert again == rows

    def test_derive_has_no_epsilon(self, capsys):
        # The report's rows hold at fixed epsilons, so the flag is gone: argparse refuses it.
        with pytest.raises(SystemExit) as info:
            main(["constants", "derive", "--epsilon", "0.2"])
        assert info.value.code == EXIT_USAGE
        assert "unrecognized arguments: --epsilon 0.2" in capsys.readouterr().err

    def test_optimize(self, capsys):
        code, out, _ = run(capsys, "constants", "optimize-alpha", "--json")
        assert code == EXIT_OK
        payload = strict_json(out)
        assert 0.13 <= payload["argmin"] <= 0.17


class TestBounds:
    def test_density_near_one(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "density", "--sigma", "0.999", "--nk", "1", "--dk", "1", "--q", "3", "--t", "1", "--json"
        )
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["exponent"] == 74.0
        assert payload["bound"] == pytest.approx(3.0**0.074)
        assert "heuristic" in payload["note"]

    def test_repulsion(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds",
            "repulsion",
            "--kind",
            "quadratic",
            "--beta1",
            "0.999999",
            "--nq",
            "5",
            "--t",
            "1",
            "--c",
            "1",
            "--json",
        )
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["bound"] == pytest.approx(0.95168, abs=1e-5)
        assert payload["vacuous"] is False

    def test_repulsion_vacuous(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "repulsion", "--kind", "trivial", "--beta1", "0.1", "--nq", "5", "--c", "1", "--json"
        )
        payload = strict_json(out)
        assert payload["vacuous"] is True and payload["bound"] == 1.0

    def test_density_exponent_on_both_sides_of_the_threshold(self, capsys, tmp_path):
        assert density_exponent_for(1.0 - 1e-3) == 74.0
        assert density_exponent_for(0.9989) == 81.0
        code, out, _ = run(capsys, "bounds", "density", "--sigma", "0.6", "--json")
        assert code == EXIT_OK
        assert strict_json(out)["exponent"] == 81.0
        argv = ["verify", "--suite", "density", "--qmax", "2", "--height", "5", "--scan-missing", "--json"]
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == EXIT_OK
        rows = {r["name"]: r for r in strict_json(out)}
        for q in (1, 2):
            assert rows[f"density.q{q}.sigma0.999"]["context"]["exponent"] == 74.0
            assert rows[f"density.q{q}.sigma0.8"]["context"]["exponent"] == 81.0

    def test_density_overflow_prints_a_null_bound(self, capsys):
        # log_bound is a finite 55952.8, so the bound e^55952.8 overflows
        # float64: JSON has no inf, so --json prints null; the table keeps inf
        argv = ("bounds", "density", "--sigma", "0.5", "--q", "1e300", "--t", "1e300")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["bound"] is None and payload["overflow"] is True
        assert payload["log_bound"] == pytest.approx(55952.8, abs=0.1)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert "bound = inf" in out.splitlines()

    def test_a_non_finite_value_is_never_printed_as_json(self, capsys, monkeypatch):
        monkeypatch.setattr(zerokit.constants, "optimize_alpha", lambda: (math.nan, math.inf))
        code, out, err = run(capsys, "constants", "optimize-alpha", "--json")
        assert code == EXIT_USAGE
        assert out == "" and "JSON" in err
        code, out, _ = run(capsys, "constants", "optimize-alpha")
        assert code == EXIT_OK and "nan" in out

    def test_usage_error_on_bad_parameter(self, capsys):
        code, _, err = run(capsys, "bounds", "density", "--sigma", "0.2", "--json")
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("repulsion", "--kind", "quadratic", "--beta1", "0.5", "--t", "nan"), "T"),
            (("repulsion", "--kind", "quadratic", "--beta1", "0.5", "--c", "nan"), "c"),
            (("repulsion", "--kind", "quadratic", "--beta1", "0.5", "--nq", "nan"), "Nq"),
            (("density", "--sigma", "0.9", "--dk", "nan"), "D_K"),
            (("density", "--sigma", "0.9", "--leading", "nan"), "leading_constant"),
            (("density", "--sigma", "0.9", "--leading", "inf"), "leading_constant"),
            (("density", "--sigma", "0.9", "--exponent", "nan"), "exponent"),
            (("density", "--sigma", "0.9", "--implied-nk", "nan"), "implied_nk_constant"),
            (("density", "--sigma", "0.9", "--q", "inf"), "Q"),
            # beyond float64: an integer, and a log bound or log argument that overflows
            (("density", "--sigma", "0.6", "--nk", str(10**400)), "n_K"),
            (("repulsion", "--kind", "quadratic", "--beta1", "0.5", "--nk", str(10**400)), "n_K"),
            (("density", "--sigma", "1", "--nk", "10", "--implied-nk", "1e308"), "log_bound"),
            (("density", "--sigma", "0.6", "--nk", "10", "--implied-nk", "1e308"), "log_bound"),
            (("repulsion", "--kind", "quadratic", "--beta1", "0.999999", "--c", "1e308"), "log_argument"),
            (("repulsion", "--kind", "quadratic", "--beta1", "0.999999", "--c", "1e308", "--json"), "log_argument"),
        ],
    )
    def test_non_finite_input_is_a_usage_error(self, capsys, argv, name):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"error: {name} must be finite" in err


class TestZerosAndVerify:
    def test_scan_and_rescan(self, capsys, tmp_path):
        code, out, _ = run(capsys, "zeros", "scan", "--q", "4", "--height", "10", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK
        assert "q4.e1: 2 zeros" in out
        code, out, _ = run(capsys, "zeros", "scan", "--q", "4", "--height", "10", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK
        assert "cached, skipped" in out

    def test_scan_zeta_first_window(self, capsys, tmp_path):
        code, out, _ = run(capsys, "zeros", "scan", "--q", "1", "--height", "15", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK
        assert "q1.e-: 2 zeros" in out  # one conjugate pair

    def test_scan_zeta_to_the_desk_height(self, capsys, tmp_path):
        # The largest q = 1 term table (shift N about 324): every zero below
        # the desk height is certified, and sampled ordinates match mpmath.
        import mpmath as mp

        code, out, _ = run(capsys, "zeros", "scan", "--q", "1", "--height", "1000", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK and "q1.e-: 1298 zeros to height 1000.0" in out
        (zs,) = read_zero_cache(tmp_path, 1).values()
        assert zs.certified and zs.complete_to_height == 1000.0 and len(zs.zeros) == 1298
        assert all(z.beta == 0.5 and z.certified_radius == 1e-9 for z in zs.zeros)
        positive = [z.gamma for z in zs.zeros if z.gamma > 0.0]
        assert len(positive) == 649
        with mp.workdps(15):
            for k in (1, 163, 325, 487, 649):
                assert abs(positive[k - 1] - float(mp.zetazero(k).imag)) <= 1e-9, k

    def test_scan_modulus_range(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "zeros", "scan", "--qmin", "3", "--qmax", "5", "--height", "8", "--cache-dir", str(tmp_path)
        )
        assert code == EXIT_OK
        assert (tmp_path / "zeros_q0003.csv").exists()
        assert (tmp_path / "zeros_q0005.csv").exists()

    def test_guard_refuses_large_modulus(self, capsys, tmp_path):
        code, _, err = run(capsys, "zeros", "scan", "--q", "500", "--height", "5", "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "--unsafe" in err

    def test_guard_refuses_a_tall_scan_before_the_cache(self, capsys, tmp_path, monkeypatch):
        import zerokit.dirichlet.zerocache as cmod

        cache = tmp_path / "cache"
        argv = ["zeros", "scan", "--q", "3", "--height", "1000.5", "--cache-dir", str(cache)]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE and "height 1000.5 exceeds the desk-scale guard" in err
        assert not cache.exists()
        requests = []
        monkeypatch.setattr(cmod.ZeroLibrary, "ensure", lambda self, q, h: requests.append((q, h)) or {})
        assert run(capsys, *argv, "--unsafe")[0] == EXIT_OK
        assert requests == [(3, 1000.5)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeros", "scan", "--q", "3", "--height", "1e10"],
            ["verify", "--suite", "density", "--qmax", "1", "--height", "1e10", "--scan-missing"],
        ],
    )
    def test_unsafe_keeps_the_exact_lattice_limit(self, capsys, tmp_path, argv):
        # Past MAX_HEIGHT the lattice's nodes are not exact floats, and the
        # engine refuses to scan: the CLI refuses first, --unsafe or not,
        # before the cache directory is made.
        cache = tmp_path / "cache"
        code, out, err = run(capsys, *argv, "--unsafe", "--cache-dir", str(cache))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and "exact-lattice limit" in err
        assert not cache.exists()

    @pytest.mark.parametrize("height", ["-1", "0", "nan", "inf"])
    def test_bad_height_is_refused_before_the_cache(self, capsys, tmp_path, height):
        cache = tmp_path / "cache"
        code, _, err = run(capsys, "zeros", "scan", "--q", "3", "--height", height, "--cache-dir", str(cache))
        assert code == EXIT_USAGE and "scan height must be finite and positive" in err
        assert not cache.exists()

    def test_unsafe_lifts_the_height_guard_of_verify(self, capsys, tmp_path, monkeypatch):
        import zerokit.dirichlet.zerocache as cmod
        from zerokit.dirichlet.characters import primitive_inducer
        from zerokit.dirichlet.zeros import ZeroSet

        heights = []
        monkeypatch.setattr(cmod.ZeroLibrary, "ensure", lambda self, q, h: heights.append(h))
        monkeypatch.setattr(cmod.ZeroLibrary, "get", lambda self, chi, h: ZeroSet(primitive_inducer(chi), (), (), (), h))
        argv = ["verify", "--suite", "density", "--qmax", "1", "--height", "1500", "--scan-missing"]
        code, _, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE and "desk-scale guard" in err
        assert heights == []
        code, _, _ = run(capsys, *argv, "--unsafe", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK
        assert heights == [1501.0]

    def test_verify_guard_checks_only_the_zero_data_read(self, capsys, tmp_path):
        # selberg reads no zeros, so a height beyond the desk guard is harmless;
        # density reads q <= 1 to 1500 + 1, which the guard refuses.
        argv = ["verify", "--qmax", "1", "--height", "1500", "--cache-dir", str(tmp_path / "cache")]
        code, out, err = run(capsys, *argv, "--suite", "selberg")
        assert code == EXIT_OK and err == ""
        assert "selberg" in out
        code, _, err = run(capsys, *argv, "--suite", "density")
        assert code == EXIT_USAGE and "height 1501.0 exceeds the desk-scale guard" in err

    def test_unknown_cache_key_is_a_usage_error(self, capsys, tmp_path):
        assert run(capsys, "zeros", "scan", "--q", "5", "--height", "8", "--cache-dir", str(tmp_path))[0] == EXIT_OK
        path = tmp_path / "zeros_q0005.csv"
        header, first, *rest = path.read_text().splitlines()
        fields = first.split(",")
        fields[1] = "9"
        path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        code, _, err = run(capsys, "zeros", "scan", "--q", "5", "--height", "8", "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert "zeros_q0005.csv" in err and "'9'" in err

    @pytest.mark.parametrize("cut", [1, 2, 3, 4, 12, 30])
    def test_cut_off_last_row_is_a_usage_error(self, capsys, tmp_path, cut):
        # Drop the last `cut` bytes: the newline, then into the height, radius
        # and ordinate fields of the last row.
        assert run(capsys, "zeros", "scan", "--q", "5", "--height", "8.5", "--cache-dir", str(tmp_path))[0] == EXIT_OK
        path = tmp_path / "zeros_q0005.csv"
        text = path.read_text()
        assert cut <= len(text.splitlines()[-1])
        path.write_text(text[:-cut])
        with pytest.raises(ValueError, match="zeros_q0005.csv"):
            read_zero_cache(tmp_path, 5)
        code, _, err = run(capsys, "zeros", "scan", "--q", "5", "--height", "8.5", "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "zeros_q0005.csv" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (5, None, "not enough values to unpack"),
            (2, "0.5x", "could not convert string to float: '0.5x'"),
            (2, "1.5", "0 < beta < 1"),
        ],
    )
    def test_corrupt_row_names_its_file_and_line(self, capsys, tmp_path, field, value, message):
        # The first zero row loses its last field, or gets a beta that does
        # not parse or lies off the strip.
        assert run(capsys, "zeros", "scan", "--q", "5", "--height", "8", "--cache-dir", str(tmp_path))[0] == EXIT_OK
        path = tmp_path / "zeros_q0005.csv"
        header, first, *rest = path.read_text().splitlines()
        fields = first.split(",")
        if value is None:
            del fields[field]
        else:
            fields[field] = value
        path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        code, _, err = run(capsys, "zeros", "scan", "--q", "5", "--height", "8", "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "zeros_q0005.csv, line 2: " in err and message in err

    def test_cache_complete_to_inf_exits_two(self, capsys, tmp_path):
        # q5.e1 claims completeness to inf and has lost its second row: the
        # reload must refuse the file, not skip q5.e1 as cached and mirror it.
        assert run(capsys, "zeros", "scan", "--q", "5", "--height", "8", "--cache-dir", str(tmp_path))[0] == EXIT_OK
        path = tmp_path / "zeros_q0005.csv"
        header, *rows = path.read_text().splitlines()
        mine = [row for row in rows if row.split(",")[1] == "1"]
        assert len(mine) >= 2
        rows = [row.rsplit(",", 1)[0] + ",inf" if row in mine else row for row in rows if row != mine[1]]
        path.write_text("\n".join([header, *rows]) + "\n")
        code, out, err = run(capsys, "zeros", "scan", "--q", "5", "--height", "500", "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "zeros_q0005.csv, line 2: complete_to_height inf" in err

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["5,1,0.5,6.18,1e-09,8.0", "5,1,0.5,7.5,1e-09,500.0"], "line 3: complete_to_height 500.0 differs from 8.0"),
            (["5,1,,7.5,1e-09,8.0"], "line 2: a row with no beta has gamma '7.5'"),
        ],
        ids=["mixed-heights", "gamma-without-beta"],
    )
    def test_inconsistent_character_rows_exit_two(self, capsys, tmp_path, rows, message):
        # Rows of q5.e1 that disagree on its height, or a "no zeros" row
        # that holds an ordinate, make the file corrupt: the scan refuses it
        # before it skips q5.e1 as cached.
        (tmp_path / "zeros_q0005.csv").write_text("\n".join([CACHE_HEADER, *rows]) + "\n")
        code, out, err = run(capsys, "zeros", "scan", "--q", "5", "--height", "8", "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and f"zeros_q0005.csv, {message}" in err

    def test_height_below_the_grid_step_scans_a_short_grid(self, capsys, tmp_path, monkeypatch):
        # The grid is the lattice however small the height, so the grid to
        # the highest count edge, 0.55, has about 0.5 / GRID_STEP rows; the
        # check runs before anything is evaluated.
        import zerokit.dirichlet.zeros as zmod

        bank = zmod.ModulusEngine._bank

        def bounded(engine, cols, c, d):
            # the lattice's grid: its baby steps d climb the critical line
            assert np.all(d.imag == 0.0) or len(c) * len(d) <= 0.5 / zmod.GRID_STEP + zmod.NODES + 3
            return bank(engine, cols, c, d)

        monkeypatch.setattr(zmod.ModulusEngine, "_bank", bounded)
        code, out, err = run(capsys, "zeros", "scan", "--q", "3", "--height", "1e-9", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK, err
        assert out.splitlines() == ["q3.e1: 0 zeros to height 1e-09"]

    def test_scan_near_zeros_of_two_characters_is_certified(self, capsys, tmp_path):
        # -51.089999 lies 1.1e-5 from a zero of q5.e1 and of q5.e3: the count
        # edge must move clear of both.
        code, out, err = run(capsys, "zeros", "scan", "--q", "5", "--height", "51.089999", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK, err
        assert out.splitlines() == [
            "q5.e1: 45 zeros to height 51.089999",
            "q5.e2: 44 zeros to height 51.089999",
            "q5.e3: 45 zeros to height 51.089999",
        ]

    def test_uncertified_count_exits_one(self, capsys, tmp_path, monkeypatch):
        import zerokit.dirichlet.zeros as zmod

        def unsettled(engine, t_eff):
            raise zmod.CountCertificationError("phase step on a horizontal edge exceeds one radian")

        monkeypatch.setattr(zmod.ModulusEngine, "_counts", unsettled)
        code, _, err = run(capsys, "zeros", "scan", "--q", "5", "--height", "10", "--cache-dir", str(tmp_path))
        assert code == EXIT_FAIL
        assert err.startswith("error:") and "one radian" in err

    def test_empty_modulus_range_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "zeros", "scan", "--qmin", "5", "--qmax", "3", "--height", "5", "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "--qmin 5" in err

    def test_verify_without_moduli_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--qmax", "0", "--scan-missing", "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "--qmax" in err

    @pytest.mark.parametrize("height", ["-5", "0", "nan", "inf"])
    def test_verify_height_not_finite_positive_is_a_usage_error(self, capsys, tmp_path, height):
        code, _, err = run(capsys, "verify", "--height", height, "--scan-missing", "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and f"got {float(height)}" in err

    @pytest.mark.parametrize("height", ["inf", "nan", "0", "-3"])
    def test_scan_height_not_finite_positive_is_a_usage_error(self, capsys, tmp_path, height):
        code, _, err = run(capsys, "zeros", "scan", "--q", "3", "--height", height, "--unsafe", "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "finite and positive" in err

    def test_circle_suite_without_samples_is_a_usage_error(self, capsys, tmp_path):
        argv = ["verify", "--suite", "circle", "--samples", "0", "--qmax", "2", "--height", "5", "--scan-missing"]
        code, _, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "samples" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "circle", "--qmax", "7", "--height", "5", "--samples", "0"],
            ["--suite", "hadamard", "--k", "1"],
            ["--k", "1"],
            ["--suite", "density", "--height", "0.5"],
            ["--height", "0.5"],
        ],
    )
    def test_bad_suite_arguments_exit_before_any_scan(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, "verify", *argv, "--scan-missing", "--cache-dir", str(tmp_path / "cache"))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and argv[-2] in err
        assert not (tmp_path / "cache").exists()

    def test_hadamard_at_a_high_order_prints_its_rows(self, capsys, tmp_path):
        # At k = 200 the contour's rounding error, divided by radius^(k+1),
        # dwarfs the tolerance: the order is refused before any row prints,
        # rather than reported as a failure of the zero data.
        argv = ["verify", "--suite", "hadamard", "--k", "200", "--scan-missing", "--cache-dir", str(tmp_path)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: order k = 200 is too high at (1.5+0j)") and "exceeds the tolerance 0.0001" in err
        assert "Traceback" not in err

    def test_hadamard_beyond_float_range_is_a_usage_error(self, capsys, tmp_path):
        # At k = 600 the contour's radius^(k+1) underflows and the derivative
        # side would be inf, and k = 10^400 is no float64 at all: the order
        # is refused.
        for k in ("600", str(10**400)):
            argv = ["verify", "--suite", "hadamard", "--k", k, "--scan-missing", "--cache-dir", str(tmp_path)]
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE
            assert out == ""
            assert err.startswith("error:") and f"order k = {k} is out of float64 range" in err

    def test_verify_missing_data_exit_code(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--suite", "density", "--qmax", "3", "--height", "10", "--cache-dir", str(tmp_path))
        assert code == EXIT_MISSING
        assert out == ""
        first, second = err.splitlines()
        assert first.startswith("missing zero data: no zero data for q1.e-")
        assert second == "re-run with --scan-missing to populate the cache"

    @pytest.mark.parametrize("suite", ["largesieve", "selberg", "detector"])
    def test_zero_free_suites_need_no_cache(self, capsys, tmp_path, suite):
        # --samples and --k belong to the circle and hadamard suites alone,
        # and a --height below 1 is refused by the density suite alone.
        argv = ["verify", "--suite", suite, "--samples", "0", "--k", "1", "--height", "0.5", "--scan-missing"]
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path / "cache"))
        assert code == EXIT_OK
        assert f"{suite}." in out
        assert not (tmp_path / "cache").exists()
        code, _, _ = run(capsys, "verify", "--suite", suite, "--cache-dir", str(tmp_path / "cache"))
        assert code == EXIT_OK

    def test_circle_suite_takes_a_height_below_one(self, capsys, tmp_path):
        argv = ["verify", "--suite", "circle", "--qmax", "3", "--height", "0.5", "--scan-missing", "--json"]
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == EXIT_OK, err
        assert all(r["name"].startswith("circle.") and r["pass"] for r in strict_json(out))

    def test_scan_missing_scans_only_what_the_suites_read(self, capsys, tmp_path):
        argv = ["verify", "--suite", "hadamard", "--qmax", "10", "--height", "30", "--scan-missing"]
        code, _, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["zeros_q0001.csv", "zeros_q0004.csv"]

    def test_verify_refuses_an_uncertified_zero_set(self, capsys, tmp_path, monkeypatch):
        import zerokit.dirichlet.zeros as zmod

        true_counts = zmod.ModulusEngine._counts

        def miscounted(engine, t_eff):
            return [n + 2 * (engine.modulus == 5) for n in true_counts(engine, t_eff)]

        monkeypatch.setattr(zmod.ModulusEngine, "_counts", miscounted)
        argv = ["verify", "--suite", "density", "--qmax", "5", "--height", "10", "--scan-missing"]
        with pytest.warns(UserWarning, match="winding count"):
            code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == EXIT_FAIL
        assert out == ""
        assert err.startswith("error:") and "q5." in err and "not certified" in err

    def test_verify_detector_with_scan(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "detector",
            "--qmax",
            "1",
            "--height",
            "10",
            "--scan-missing",
            "--cache-dir",
            str(tmp_path),
            "--json",
        )
        assert code == EXIT_OK
        rows = strict_json(out)
        assert rows and all(r["pass"] for r in rows)
        assert all(set(r) == {"name", "lhs", "rhs", "direction", "margin", "pass", "context"} for r in rows)

    def test_env_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPLICIT_ZERO_CACHE", str(tmp_path))
        code, out, _ = run(capsys, "zeros", "scan", "--q", "4", "--height", "8")
        assert code == EXIT_OK
        assert (tmp_path / "zeros_q0004.csv").exists()

    def test_config_file_provides_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("EXPLICIT_ZERO_CACHE", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cache_dir = {tmp_path / 'from_config'}\n")
        code, out, _ = run(capsys, "--config", str(cfg), "zeros", "scan", "--q", "4", "--height", "8")
        assert code == EXIT_OK
        assert (tmp_path / "from_config" / "zeros_q0004.csv").exists()

    def test_flag_overrides_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("EXPLICIT_ZERO_CACHE", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cache_dir = {tmp_path / 'from_config'}\n")
        code, _, _ = run(
            capsys, "--config", str(cfg), "zeros", "scan", "--q", "4", "--height", "8", "--cache-dir", str(tmp_path / "flag")
        )
        assert code == EXIT_OK
        assert (tmp_path / "flag" / "zeros_q0004.csv").exists()
        assert not (tmp_path / "from_config").exists()

    @pytest.mark.parametrize("source", ["config key cache_dir", "EXPLICIT_ZERO_CACHE", "--cache-dir"])
    def test_empty_cache_dir_is_a_usage_error(self, capsys, tmp_path, monkeypatch, source):
        # An empty cache directory would put the cache files in the working
        # directory: refused from each source before anything is written.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("EXPLICIT_ZERO_CACHE", raising=False)
        argv = ["zeros", "scan", "--q", "3", "--height", "5"]
        if source == "config key cache_dir":
            (tmp_path / "run.cfg").write_text("cache_dir =\n")
            argv = ["--config", "run.cfg"] + argv
        elif source == "EXPLICIT_ZERO_CACHE":
            monkeypatch.setenv("EXPLICIT_ZERO_CACHE", "")
        else:
            argv += ["--cache-dir", ""]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:") and source in err
        assert {p.name for p in tmp_path.iterdir()} <= {"run.cfg"}

    @pytest.mark.parametrize("line", ["qmax = 3", "q_max = 2", "height = 5", "tolerance.density = 1e-3"])
    def test_unknown_config_key_is_a_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        key = line.split("=")[0].strip()
        code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", "density", "--json")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and key in err

    def test_missing_config_file_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "--config", str(tmp_path / "absent.cfg"), "constants", "optimize-alpha")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "absent.cfg" in err

    def test_unwritable_report_file_is_a_usage_error(self, capsys, tmp_path):
        report = tmp_path / "absent" / "r.json"
        code, _, err = run(capsys, "verify", "--suite", "selberg", "--report-file", str(report), "--cache-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "r.json" in err

    def test_cache_dir_below_a_file_is_a_usage_error(self, capsys, tmp_path):
        (tmp_path / "afile").write_text("")
        code, _, err = run(capsys, "zeros", "scan", "--q", "3", "--height", "5", "--cache-dir", str(tmp_path / "afile" / "sub"))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "afile" in err

    def test_bad_cache_dir_fails_before_any_scan(self, capsys, tmp_path, monkeypatch):
        import zerokit.dirichlet.zerocache as cmod

        def no_scan(*args, **kwargs):
            raise AssertionError("the zero engine ran before the cache directory was checked")

        monkeypatch.setattr(cmod, "ModulusEngine", no_scan)
        monkeypatch.setattr(cmod, "scan_zeros", no_scan)
        (tmp_path / "afile").write_text("")
        bad = str(tmp_path / "afile" / "sub")
        code, out, err = run(capsys, "zeros", "scan", "--q", "7", "--height", "40", "--cache-dir", bad)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:") and "afile" in err

    @pytest.mark.parametrize("value", ["xml", "JSON", ""])
    def test_unknown_output_format_is_a_usage_error(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output_format = {value}\n")
        code, out, err = run(capsys, "--config", str(cfg), "constants", "optimize-alpha")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and repr(value) in err

    def test_output_format_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("output_format = json\n")
        code, out, _ = run(capsys, "--config", str(cfg), "constants", "optimize-alpha")
        assert code == EXIT_OK
        assert 0.13 <= strict_json(out)["argmin"] <= 0.17

    def test_tolerance_override_from_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("EXPLICIT_ZERO_CACHE", raising=False)
        cfg = tmp_path / "run.cfg"
        # an absurdly tight explicit-formula tolerance must flip the verdict
        cfg.write_text("tolerance.explicit_formula = 1e-9\n")
        code, out, _ = run(
            capsys,
            "--config",
            str(cfg),
            "verify",
            "--suite",
            "explicit_formula",
            "--qmax",
            "1",
            "--height",
            "10",
            "--scan-missing",
            "--cache-dir",
            str(tmp_path / "cache"),
        )
        assert code == EXIT_FAIL
        assert "FAIL" in out

    @pytest.mark.parametrize("key", ["tolerance.hadamard", "tolerance.explicit_formula"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "abc"])
    def test_tolerance_not_finite_and_positive_is_a_usage_error(self, capsys, tmp_path, key, value):
        # inf once passed every row of a suite whose order is refused for its
        # rounding; nan, 0 and -1 once failed every row; abc was refused
        # without naming its key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        cache = tmp_path / "cache"
        suite = key.removeprefix("tolerance.")
        code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", suite, "--scan-missing", "--cache-dir", str(cache))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and key in err
        assert not cache.exists()


def test_one_parser_per_process(capsys, tmp_path, monkeypatch):
    # Two commands in one process build the parser once, and print what two
    # fresh processes print.
    import argparse

    import zerokit.cli as cli

    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def commands(cache):
        return [
            ["zeros", "scan", "--q", "3", "--height", "10", "--cache-dir", cache],
            ["verify", "--suite", "circle", "--qmax", "3", "--height", "10", "--scan-missing", "--cache-dir", cache],
        ]

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        scan, verify = commands("here")
        monkeypatch.chdir(tmp_path)
        first = run(capsys, *scan)
        parsers = len(built)
        second = run(capsys, *verify)
    finally:
        cli.build_parser.cache_clear()
    assert parsers > 0 and len(built) == parsers
    assert first[0] == second[0] == EXIT_OK

    src = str(Path(zerokit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, (_, out, _) in zip(commands("fresh"), (first, second)):
        done = subprocess.run(
            [sys.executable, "-m", "zerokit.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == out


def test_runtime_never_imports_scipy(tmp_path):
    # scipy is a test-only dependency: a scan and the whole verify suite, run
    # in one fresh process, leave no scipy module behind, imported at start-up
    # or lazily.
    script = f"""
import sys
from zerokit.cli import main
cache = {str(tmp_path / "cache")!r}
scan = main(["zeros", "scan", "--q", "5", "--height", "20", "--cache-dir", cache])
checks = main(["verify", "--suite", "all", "--qmax", "3", "--height", "10", "--scan-missing", "--cache-dir", cache])
print(scan, checks)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    src = str(Path(zerokit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    *_, codes, modules = done.stdout.splitlines()
    assert codes == f"{EXIT_OK} {EXIT_OK}"
    assert "selberg." in done.stdout
    assert modules == "[]"

"""CLI dispatch, serialization and exit codes; the CLI keeps no state on disk."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mocktrace
from mocktrace import modfun, poincare, series
from mocktrace.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    dispatch,
)


def _fresh_python(args, **env_overrides):
    """(exit code, stdout, stderr) of `python args` in a new interpreter that finds this mocktrace."""
    env = dict(os.environ, **env_overrides)
    src = str(Path(mocktrace.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _fresh_process(argv, **env_overrides):
    """(exit code, stdout, stderr) of `python -m mocktrace.cli argv` in a new interpreter."""
    return _fresh_python(["-m", "mocktrace.cli", *argv], **env_overrides)


def _jm_lines(out: str, m: int, N: int) -> list[float]:
    """The coefficients printed by `jm coeffs`, after checking the header line."""
    header, *body = out.splitlines()
    assert header == f"# jm m={m} N={N} version=1"
    return [float(line) for line in body]


class TestJmCoeffsCommand:
    def test_output_and_cache_file(self, tmp_path, monkeypatch, capsys):
        # the output is the exact expansion, and no cache file is written
        monkeypatch.setenv("HOME", str(tmp_path))
        assert dispatch(["jm", "coeffs", "--m", "1", "--n", "6"]) == EXIT_OK
        coeffs = _jm_lines(capsys.readouterr().out, 1, 6)
        assert len(coeffs) == 8
        assert coeffs[0] == 1.0
        assert coeffs[2] == 196884.0
        assert list(tmp_path.iterdir()) == []

    def test_deepest_advertised_expansion(self, capsys):
        # m = 2, N = 64 needs j_1 through q^65 inside the Faber recursion
        assert dispatch(["jm", "coeffs", "--m", "2", "--n", "64"]) == EXIT_OK
        coeffs = _jm_lines(capsys.readouterr().out, 2, 64)
        assert len(coeffs) == 67
        assert coeffs[3] == 42987520.0  # c_2(1) = 2 c(2)

    def test_idempotent_across_cache_deletion(self, capsys):
        # the only cache left is modfun's in-process memo; emptying it
        # must not change a byte
        dispatch(["jm", "coeffs", "--m", "3", "--n", "8"])
        first = capsys.readouterr().out
        modfun._jm_floats.cache_clear()
        dispatch(["jm", "coeffs", "--m", "3", "--n", "8"])
        second = capsys.readouterr().out
        assert first == second


class TestStateless:
    def test_fresh_process_writes_no_files(self, tmp_path):
        home, cache = tmp_path / "home", tmp_path / "cache"
        home.mkdir()
        cache.mkdir()
        env = {"HOME": str(home), "MOCKTRACE_CACHE": str(cache)}
        runs = [
            (["jm", "coeffs", "--m", "2", "--n", "16"], EXIT_OK),
            (["trace", "--d", "-7", "--D", "1", "--m", "1"], EXIT_OK),
            (["--no-cache", "jm", "coeffs", "--m", "2", "--n", "16"], EXIT_USAGE),
            (["trace", "--d", "4", "--D", "1", "--m", "1", "--n", "4"], EXIT_USAGE),
        ]
        for argv, code in runs:
            rc, _, err = _fresh_process(argv, **env)
            assert rc == code, (argv, err)
        assert list(home.iterdir()) == []
        assert list(cache.iterdir()) == []


class TestTraceCommand:
    def test_reference_trace_json(self, capsys):
        assert dispatch(["trace", "--d", "1", "--D", "1", "--m", "1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(-16.0284504, abs=1e-3)
        assert payload["method"] == "cusp_cycle"
        assert json.loads(json.dumps(payload)) == payload

    def test_cm_trace(self, capsys):
        assert dispatch(["trace", "--d", "-3", "--D", "1", "--m", "1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(-248.0, abs=1e-6)

    def test_domain_error_exit_code(self, capsys):
        assert dispatch(["trace", "--d", "0", "--D", "1", "--m", "1"]) == EXIT_DOMAIN
        assert "error" in capsys.readouterr().err

    def test_cm_overflow_is_a_domain_error(self, capsys):
        # refused in the user's terms, not "0.0 to a negative or complex power"
        assert dispatch(["trace", "--d", "-60000", "--D", "1", "--m", "1"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: trace_negative(d=-60000, D=1, m=1): j_m overflows a double at the CM points, "
            "pi m sqrt|dD| = 769.53 > ln(DBL_MAX) = 709.78\n"
        )


class TestQformsCommand:
    def test_disc_four_lists_two_forms(self, capsys):
        assert dispatch(["qforms", "list", "--disc", "4"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        forms = [json.loads(line) for line in lines]
        assert forms == [{"a": 0, "b": 2, "c": 0}, {"a": 1, "b": 2, "c": 0}]

    def test_negative_disc_includes_stab_order(self, capsys):
        assert dispatch(["qforms", "list", "--disc", "-4"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["stab_order"] == 2


class TestVerifyCommands:
    def test_values_pass(self, capsys):
        assert dispatch(["verify", "values"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_symmetry_pass_small(self, capsys):
        assert dispatch(["verify", "symmetry", "--cmax", "15"]) == EXIT_OK

    def test_kloosterman_pass_small(self, capsys):
        assert dispatch(["verify", "kloosterman", "--cmax", "8"]) == EXIT_OK

    def test_prop1_small_bound(self, capsys):
        args = ["verify", "prop1", "--d", "1", "--D", "1", "--m", "0", "--s", "2",
                "--bound", "80", "--cmax", "2000"]
        assert dispatch(args + ["--tol", "0.01"]) == EXIT_OK
        capsys.readouterr()
        assert dispatch(args + ["--tol", "1e-9"]) == EXIT_VERIFY

    @pytest.mark.parametrize("d, D", [("-3", "-3"), ("-4", "-4")])
    def test_prop1_negative_pair_is_a_domain_error(self, d, D, capsys):
        # dD is a positive square, but the identity is stated for d, D > 0
        assert dispatch(["verify", "prop1", "--d", d, "--D", D, "--m", "0", "--s", "2"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: prop1_lhs needs d, D > 0, got d={d}, D={D}\n"

    def test_prop1_unresolved_ray_is_a_domain_error(self, capsys):
        # at m = 6 the coset terms cancel beyond double precision
        args = ["verify", "prop1", "--d", "4", "--D", "1", "--m", "6", "--s", "2", "--bound", "100"]
        assert dispatch(args) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "m=6" in captured.err

    def test_prop1_cancelling_class_sum_is_a_domain_error(self, capsys):
        # every ray resolves, but the classes cancel below the summed error
        args = ["verify", "prop1", "--d", "25", "--D", "1", "--m", "2", "--s", "2", "--bound", "100"]
        assert dispatch(args) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the class sum at m=2, s=2.0, bound=100")

    @pytest.mark.parametrize("d, D", [("5", "1"), ("-3", "1")])
    def test_thm2_outside_square_pairs_is_a_domain_error(self, d, D, capsys):
        assert dispatch(["verify", "thm2", "--d", d, "--D", D, "--m", "1"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verify thm2 needs d, D > 0 and d·D a square, got d={d}, D={D}\n"

    @pytest.mark.parametrize(
        "argv",
        [["verify", "thm2", "--d", "4", "--D", "1", "--m", "2"], ["coeff", "--d", "4", "--D", "4"]],
        ids=["thm2", "coeff"],
    )
    def test_coefficient_without_spectral_route_is_a_domain_error(self, argv, capsys):
        # both need a(4, 4), and neither of its arguments is fundamental
        assert dispatch(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a(4, 4) has no spectral route: one argument must be 1 or a fundamental"
            " discriminant\n"
        )


class TestTableCommand:
    def test_skips_bad_residues_and_routes(self, capsys):
        args = ["table", "--D", "1", "--m", "1", "--d-min", "1", "--d-max", "9"]
        assert dispatch(args) == EXIT_OK
        out = capsys.readouterr().out
        rows = out.strip().splitlines()
        assert rows[0].startswith("d,D,m,")
        body = [r.split(",") for r in rows[1:]]
        assert len(body) == 9
        methods = {r[0]: r[4] for r in body}
        assert methods["2"] == "skipped"
        assert methods["5"] == "closed_cycle"
        assert methods["4"] == "cusp_cycle"

    def test_failed_d_leaves_a_row_and_the_range_goes_on(self, capsys):
        # the closed-cycle quadrature fails its imaginary-residue check at d = 29,
        # 37, 40, 41, 44 and 45; the squares and nonsquares between still run
        args = ["table", "--D", "1", "--m", "1", "--d-min", "25", "--d-max", "45"]
        assert dispatch(args) == EXIT_DOMAIN
        captured = capsys.readouterr()
        header, *body = csv.reader(io.StringIO(captured.out))
        assert header == ["d", "D", "m", "value", "method", "err_estimate", "params"]
        rows = {int(r[0]): r for r in body}
        assert sorted(rows) == list(range(25, 46))
        failed = {d: r for d, r in rows.items() if r[4] == "failed"}
        assert 29 in failed
        errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert len(errors) == len(failed)
        for (d, r), line in zip(sorted(failed.items()), errors):
            assert r[1:4] == ["1", "1", ""] and r[5] == ""
            message = json.loads(r[6])["error"]
            assert line == f"error: {message}" and f"({d},1,1)" in message
        for d, method in ((32, "closed_cycle"), (33, "closed_cycle"), (36, "cusp_cycle")):
            assert rows[d][4] == method and math.isfinite(float(rows[d][3]))

    def test_warm_cache_byte_identical(self, capsys):
        args = ["table", "--D", "1", "--m", "1", "--d-min", "4", "--d-max", "5"]
        assert dispatch(args) == EXIT_OK
        first = capsys.readouterr().out
        assert dispatch(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second


class TestCoeffCommand:
    def test_huge_fundamental_part_is_a_domain_error(self, capsys):
        assert dispatch(["coeff", "--d", "1000005", "--D", "1", "--cmax", "100"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d = 1000005 has fundamental part d0 = 1000005 > 1000000, " \
                               "L_d0's limit\n"


class TestCmaxCeiling:
    @pytest.mark.parametrize(
        "argv",
        [
            ["coeff", "--d", "1", "--D", "1", "--cmax", "250000"],
            ["verify", "prop1", "--cmax", "202500"],
            ["verify", "kloosterman", "--cmax", "300000"],
            ["verify", "symmetry", "--cmax", "202500"],
        ],
    )
    def test_oversize_cmax_is_a_usage_error(self, argv, capsys):
        assert dispatch(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--cmax" in err
        assert "at most 202499" in err

    def test_non_integer_cmax(self, capsys):
        assert dispatch(["coeff", "--d", "1", "--D", "1", "--cmax", "lots"]) == EXIT_USAGE
        assert "invalid int value: 'lots'" in capsys.readouterr().err


class TestDeltaGrid:
    def test_grid_is_fixed(self, capsys):
        # coeff sums on series.DELTA_GRID; --cmax replaces every delta's c_max
        argv = ["coeff", "--d", "1", "--D", "1"]
        assert dispatch(argv + ["--deltas", "0.2", "0.1", "0.05"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --deltas" in captured.err
        assert dispatch(argv + ["--cmax", "1000"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["deltas"] == [0.2, 0.1, 0.05]
        assert out["c_max"] == 1000


class TestCmaxFloor:
    # the series complete their tails from c = 100 on, so the commands
    # that sum one refuse a smaller --cmax at parse time, as they refuse
    # one past the ceiling; verify kloosterman / symmetry need one modulus
    @pytest.mark.parametrize(
        "argv",
        [
            ["coeff", "--d", "1", "--D", "1", "--cmax", "50"],
            ["verify", "prop1", "--d", "1", "--D", "1", "--m", "1", "--s", "2.0", "--cmax", "50"],
            ["coeff", "--d", "1", "--D", "1", "--cmax", "99"],
            ["verify", "prop1", "--cmax", "0"],
            ["verify", "kloosterman", "--cmax", "0"],
            ["verify", "symmetry", "--cmax", "-3"],
        ],
    )
    def test_small_cmax_is_a_usage_error(self, argv, capsys):
        floor = 1 if argv[1] in ("kloosterman", "symmetry") else series.C_MAX_FLOOR
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --cmax: must be at least {floor}, got {argv[-1]}" in captured.err


class TestMRange:
    # --m is j_m's index, refused past M_MAX at parse time; the lower bound of
    # trace and table stays each regime's own
    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--d", "5", "--D", "1", "--m", "11"],
            ["table", "--D", "1", "--m", "11", "--d-min", "-5", "--d-max", "5"],
            ["jm", "coeffs", "--m", "11", "--n", "8"],
            ["verify", "thm2", "--d", "1", "--D", "1", "--m", "11"],
        ],
    )
    def test_m_past_the_ceiling_is_a_usage_error(self, argv, capsys):
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: argument --m: must be at most {modfun.M_MAX}, got 11"]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["jm", "coeffs", "--m", "-1", "--n", "8"], "--m: must be at least 0, got -1"),
            (["jm", "coeffs", "--m", "2", "--n", "0"], "--n: must be at least 1, got 0"),
            (["jm", "coeffs", "--m", "2", "--n", "65"], f"--n: must be at most {modfun.N_MAX}, got 65"),
            (["verify", "thm2", "--d", "1", "--D", "1", "--m", "0"], "--m: must be at least 1, got 0"),
            (["verify", "prop1", "--m", "-1"], "--m: must be at least 0, got -1"),
        ],
    )
    def test_other_indices_out_of_range_are_usage_errors(self, argv, error, capsys):
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: argument {error}"]

    def test_table_m_zero_keeps_the_regime_floors(self, capsys):
        # j_0 = 1 has closed-cycle traces, while the CM regime needs m >= 1
        args = ["table", "--D", "1", "--m", "0", "--d-min", "-4", "--d-max", "5"]
        assert dispatch(args) == EXIT_DOMAIN
        header, *body = csv.reader(io.StringIO(capsys.readouterr().out))
        methods = {int(r[0]): r[4] for r in body}
        assert methods[-4] == methods[-3] == "failed"
        assert methods[5] == "closed_cycle"


class TestVerifyFlags:
    # --tol and --bound must be positive: a zero tolerance is not the
    # default, and a zero bound has no coset box
    THM2 = ["verify", "thm2", "--d", "1", "--D", "1", "--m", "1"]

    @pytest.mark.parametrize(
        "argv, flag, shown",
        [
            ([*THM2, "--tol", "0"], "--tol", "0.0"),
            ([*THM2, "--tol", "-1"], "--tol", "-1.0"),
            (["verify", "prop1", "--tol", "0"], "--tol", "0.0"),
            (["verify", "prop1", "--tol", "nan"], "--tol", "nan"),
            (["verify", "prop1", "--bound", "0"], "--bound", "0"),
            (["verify", "prop1", "--bound", "-300"], "--bound", "-300"),
        ],
    )
    def test_non_positive_is_a_usage_error(self, argv, flag, shown, capsys):
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be a positive finite number, got {shown}" in captured.err

    def test_bound_above_ceiling_is_a_usage_error(self, capsys):
        # the coset box's memory grows as bound^2; 6000 would need about 5 GB
        assert dispatch(["verify", "prop1", "--bound", "6000"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = poincare.BOUND_LIMIT
        assert f"argument --bound: must be at most {limit}, got 6000" in captured.err


class TestWarnings:
    def test_main_prints_warnings_without_source_location(self):
        # (1, 1, 3) exhausts quad's subdivisions; the warning reaches the
        # user as its message alone
        rc, out, err = _fresh_process(["trace", "--d", "1", "--D", "1", "--m", "3"])
        assert rc == EXIT_OK
        assert json.loads(out)["method"] == "cusp_cycle"
        assert err.startswith("warning: The maximum number of subdivisions")
        assert ".py" not in err and "IntegrationWarning" not in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert dispatch(["bogus"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert dispatch(["trace", "--d", "1", "--D", "1", "--m", "1", "--zzz"]) == EXIT_USAGE


class TestImportBoundary:
    # only the geodesic quadrature imports scipy.integrate, on first use; the
    # spectral side integrates its Bessel tail itself, so it never loads it
    def test_prop1_leaves_scipy_integrate_unloaded(self):
        code = (
            "import sys\n"
            "from mocktrace import cli\n"
            "assert 'scipy.integrate' not in sys.modules, 'imported'\n"
            "assert cli.dispatch(['verify', 'prop1', '--m', '1', '--bound', '60']) == 0\n"
            "assert 'scipy.integrate' not in sys.modules, 'dispatched'\n"
        )
        rc, _, err = _fresh_python(["-c", code])
        assert rc == 0, err

    def test_commands_without_special_functions_load_no_scipy(self):
        # arith imports scipy.special inside the three functions that use it,
        # so a CM trace, the coefficient list, the class list and the value
        # checks run without any part of scipy
        code = (
            "import contextlib, io, sys\n"
            "from mocktrace import cli\n"
            "for argv in (['trace', '--d', '-7', '--D', '1', '--m', '1'],\n"
            "             ['jm', 'coeffs', '--m', '1', '--n', '8'],\n"
            "             ['qforms', 'list', '--disc', '5'], ['verify', 'values']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.dispatch(argv) == 0, argv\n"
            "    assert not [k for k in sys.modules if k.split('.')[0] == 'scipy'], argv\n"
        )
        rc, _, err = _fresh_python(["-c", code])
        assert rc == 0, err


class TestParserReuse:
    # the parser is built once per process; reusing it must not change
    # anything a later command prints or returns
    SEQUENCE = [
        (["trace", "--d", "-7", "--D", "1", "--m", "2"], EXIT_OK),
        (["trace", "--d", "-7", "--D", "1"], EXIT_USAGE),
        (["--format", "csv", "trace", "--d", "5", "--D", "1", "--m", "1"], EXIT_USAGE),
        (["jm", "coeffs", "--m", "2", "--n", "8"], EXIT_OK),
    ]

    def test_same_bytes_as_fresh_processes(self, capsys):
        for argv, code in self.SEQUENCE:
            want = _fresh_process(argv)
            assert want[0] == code, want
            for _ in range(2):
                rc = dispatch(argv)
                captured = capsys.readouterr()
                assert (rc, captured.out, captured.err) == want, argv

import contextlib
import decimal
import io
import json
import math
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arakelov.cli import main
from arakelov.fekete import MAX_POINTS
from arakelov.polynomials import (PrimitivePolynomial, discriminant,
                                  normalize_coefficients)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestHeightCommand:
    def test_point_one(self, capsys):
        code, out = run_cli(capsys, "height", "--poly", "x-1")
        assert code == 0
        assert "h_arakelov = 0.3465735903" in out

    def test_point_zero(self, capsys):
        code, out = run_cli(capsys, "height", "--point", "0")
        assert code == 0
        assert "h_arakelov = 0.0000000000" in out

    def test_json_report(self, capsys):
        code, out = run_cli(capsys, "height", "--poly", "x^2-2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["crosscheck_residual"] < 1e-9
        assert payload["unit"] == "nats"
        assert [e["place"] for e in payload["locals"]] == ["inf", 2]

    def test_bits_flag(self, capsys):
        code, out = run_cli(capsys, "height", "--poly", "x-1", "--bits",
                            "--format", "json")
        assert json.loads(out)["h_arakelov"] == pytest.approx(0.5, abs=1e-12)

    def test_coeffs_input(self, capsys):
        code, out = run_cli(capsys, "height", "--coeffs", "[-2, 0, 1]",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["h_arakelov"] == pytest.approx(0.5493061443, abs=1e-9)

    def test_parse_error_exits_2(self, capsys):
        assert main(["height", "--poly", "x^^2"]) == 2

    def test_not_squarefree_exits_2(self, capsys):
        assert main(["height", "--poly", "x^2+2x+1"]) == 2


# degree 8 with c_k = 10^400 + 7k + 3: the discriminant keeps a 5582-digit
# unfactored cofactor, past the 4300 digits that str(int) will print
HUGE_COEFFS = [10**400 + 7 * k + 3 for k in range(9)]


class TestHugeCofactor:
    def run(self, capsys, fmt):
        code, out = run_cli(capsys, "height", "--coeffs", json.dumps(HUGE_COEFFS),
                            "--format", fmt)
        assert code == 0
        return out

    def cofactor_entry(self, capsys):
        report = json.loads(self.run(capsys, "json"))
        assert "discriminant-partially-factored" in report["flags"]
        entry = report["locals"][-1]
        assert entry["method"] == "unfactored-cofactor"
        return report, entry

    def test_json_renders_the_exact_decimal(self, capsys):
        report, entry = self.cofactor_entry(capsys)
        digits = entry["place"]
        assert isinstance(digits, str) and digits.isdigit() and len(digits) > 4300
        cofactor = int(decimal.Decimal(digits))
        coeffs, _ = normalize_coefficients(HUGE_COEFFS)
        rest, rem = divmod(abs(discriminant(PrimitivePolynomial(coeffs))), cofactor)
        assert rem == 0
        for p in [e["place"] for e in report["locals"][1:-1]]:
            while rest % p == 0:
                rest //= p
        assert rest == 1
        assert entry["value"] == pytest.approx(math.log(cofactor) / 56, rel=1e-12)

    def test_csv_row(self, capsys):
        _, entry = self.cofactor_entry(capsys)
        assert f"\nlocal_{entry['place']}," in self.run(capsys, "csv")

    def test_text_line(self, capsys):
        _, entry = self.cofactor_entry(capsys)
        assert f"\nlocal {entry['place']}: " in self.run(capsys, "text")

    def test_lowered_digit_limit(self, capsys):
        # coefficients near 10^60 leave an 838-digit cofactor, printable only
        # under the default limit
        coeffs = json.dumps([10**60 + 7 * k + 3 for k in range(9)])
        default = json.loads(run_cli(capsys, "height", "--coeffs", coeffs,
                                     "--format", "json")[1])["locals"][-1]["place"]
        assert isinstance(default, int) and len(str(default)) == 838
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out = run_cli(capsys, "height", "--coeffs", coeffs, "--format", "json")
            assert code == 0
            assert int(decimal.Decimal(json.loads(out)["locals"][-1]["place"])) == default
        finally:
            sys.set_int_max_str_digits(previous)


class TestOtherCommands:
    def test_local(self, capsys):
        code, out = run_cli(capsys, "local", "--poly", "x^2-2", "--place", "2",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0397207708, abs=1e-9)

    def test_local_archimedean(self, capsys):
        code, out = run_cli(capsys, "local", "--poly", "x^2-2", "--place", "inf",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["place"] == "inf"
        assert payload["value"] == pytest.approx(0.0588915178, abs=1e-9)

    def test_height_point_infinity(self, capsys):
        code, out = run_cli(capsys, "height", "--point", "inf", "--format", "json")
        assert code == 0
        assert json.loads(out)["h_arakelov"] == 0.0

    def test_verify_corpus_size_override(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "heights",
                            "--corpus-size", "200")
        assert code == 0
        assert "200 polynomials" in out

    def test_measure_energy(self, capsys):
        code, out = run_cli(capsys, "measure", "--sphere", "--energy",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-6)

    def test_measure_interval(self, capsys):
        code, out = run_cli(capsys, "measure", "--interval", "2", "--energy")
        assert code == 0
        assert "0.8047189562" in out

    def test_measure_wide_interval(self, capsys):
        code, out = run_cli(capsys, "measure", "--interval", "16", "--energy")
        assert code == 0
        assert "0.6950965008" in out  # log(2 sqrt(257) / 16)

    def test_measure_density_grid(self, capsys):
        code, out = run_cli(capsys, "measure", "--interval", "1",
                            "--density-grid", "5", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 6

    @pytest.mark.parametrize("argv, column, n", [
        (["--interval", "1", "--density-grid", "7"], "density", 7),
        (["--sphere", "--potential-grid", "5"], "potential", 5),
    ])
    def test_measure_grid_json(self, capsys, argv, column, n):
        code, out = run_cli(capsys, "measure", *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == n
        assert all(set(row) == {"x", column} for row in rows)

    def test_fekete(self, capsys):
        code, out = run_cli(capsys, "fekete", "--real-line", "--n", "8",
                            "--seed", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["energy"] == pytest.approx(0.3960841032, abs=1e-6)

    def test_fekete_budget_exhaustion_exits_4(self, capsys):
        code, out = run_cli(capsys, "fekete", "--sphere", "--n", "24",
                            "--budget", "2", "--restarts", "1")
        assert code == 4
        assert "converged: False" in out

    def test_bounds(self, capsys):
        code, out = run_cli(capsys, "bounds", "--places", "inf,2")
        assert code == 0
        assert "0.5776226505" in out

    def test_bounds_interval(self, capsys):
        code, out = run_cli(capsys, "bounds", "--places", "inf,2", "--r", "2",
                            "--format", "json")
        assert json.loads(out)["bound"] == pytest.approx(0.633409, abs=5e-7)

    def test_bounds_r_without_infinity_exits_2(self, capsys):
        assert main(["bounds", "--places", "2", "--r", "2"]) == 2

    def test_pairs_csv(self, capsys):
        code, out = run_cli(capsys, "pairs", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,bound"
        assert len(lines) == 83

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["bounds", "--places", "inf", "--format", "json",
                     "--output", str(path)])
        assert code == 0
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["bound"] == pytest.approx(0.3465735903, abs=1e-9)


    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        assert main(["bounds", "--places", "inf", "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
        assert not path.exists()


class TestInputFaults:
    @pytest.mark.parametrize("coeffs", ["[1.7, 0, 1]", "[true, 1]"])
    def test_non_integer_coeffs_exit_2(self, capsys, coeffs):
        assert main(["height", "--coeffs", coeffs]) == 2
        assert "is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [["--sphere"], ["--interval", "1"]])
    def test_huge_potential_argument_no_traceback(self, capsys, target):
        code = main(["measure", *target, "--potential-at", "1e200"])
        assert code in (0, 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_roots_near_zero_certify(self, capsys):
        code = main(["height", "--poly",
                     "10000000000000000000000000000000000000000x^2 - 1",
                     "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["h_arakelov"] == pytest.approx(20 * math.log(10), abs=1e-9)
        assert report["crosscheck_residual"] <= 1e-9


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(r=st.floats(0.05, 200.0),
       action=st.sampled_from(["--energy", "--mass", "--potential-at"]),
       u=st.floats(-2.0, 2.0))
def test_measure_interval_converges_or_refuses(r, action, u):
    argv = ["measure", "--interval", repr(r)]
    argv += [f"--potential-at={u * r!r}"] if action == "--potential-at" else [action]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _strict_json(text):
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=reject)


class TestWideIntervals:
    def test_fekete_converges_to_equal_spacing(self, capsys):
        for r, n in (("1e10", 8), ("1e16", 4)):
            code, out = run_cli(capsys, "fekete", "--interval", r, "--n", str(n),
                                "--format", "json")
            assert code == 0
            payload = _strict_json(out)
            assert payload["converged"] is True
            assert abs(payload["energy"] - (math.log(2) - math.log(n) / (n - 1))) <= 1e-9
            assert payload["analytic_limit"] == math.log(2)

    def test_density_past_the_overflow_of_r_squared(self, capsys):
        for r in ("1e200", "1.7e308"):
            code, out = run_cli(capsys, "measure", "--interval", r,
                                "--density-grid", "3", "--format", "json")
            assert code == 0
            middle = _strict_json(out)[1]
            assert middle["x"] == 0.0
            assert middle["density"] == pytest.approx(1 / math.pi, rel=1e-15)

    @pytest.mark.parametrize("argv, want", [
        (["fekete", "--interval", "1e-320", "--n", "4"], 3),  # subnormal half-width
        (["fekete", "--interval", "inf", "--n", "4"], 2),
        (["bounds", "--places", "inf", "--r", "inf"], 2),
        (["bounds", "--places", "inf", "--r", "nan"], 2),
        # the density 1/(pi r) at x = 0 is beyond double range
        (["measure", "--interval", "1e-320", "--density-grid", "3"], 3),
        # subnormal radii are refused before any numpy work
        (["measure", "--interval", "1e-310", "--energy"], 3),
        (["fekete", "--interval", "1e-310", "--n", "4"], 3),
        (["fekete", "--real-line", "--n", "4", "--restarts", "0"], 2),
        (["fekete", "--real-line", "--n", "4", "--restarts", "-1"], 2),
        (["fekete", "--real-line", "--table", "2,3", "--restarts", "0"], 2),
        # more points than the pair arrays are allowed to hold
        (["fekete", "--sphere", "--n", str(MAX_POINTS + 1)], 3),
        (["fekete", "--real-line", "--table", f"4,{MAX_POINTS + 1}"], 3),
        # a NaN point or tolerance is refused before any quadrature or root work
        (["measure", "--sphere", "--potential-at", "nan"], 2),
        (["measure", "--sphere", "--potential-at", "1+nanj"], 2),
        (["measure", "--real-line", "--potential-at", "nan"], 2),
        (["measure", "--interval", "2", "--potential-at", "nan"], 2),
        (["measure", "--real-line", "--energy", "--tol", "0"], 2),
        (["measure", "--real-line", "--energy", "--tol", "-1"], 2),
        (["measure", "--real-line", "--energy", "--tol", "nan"], 2),
        (["height", "--poly", "x^2 - 2", "--tol", "nan"], 2),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refusals_exit_without_traceback(self, capsys, argv, want):
        code = main([*argv, "--format", "json"])
        captured = capsys.readouterr()
        assert code == want
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("target", [["--sphere"], ["--real-line"], ["--interval", "2"]],
                             ids=" ".join)
    def test_nan_point_names_the_point(self, capsys, target):
        assert main(["measure", *target, "--potential-at", "nan"]) == 2
        assert capsys.readouterr().err == "error: (nan+0j) is not a point of P^1\n"

    def test_bound_at_huge_radius_is_strict_json(self, capsys):
        code, out = run_cli(capsys, "bounds", "--places", "inf,2", "--r", "1e200",
                            "--format", "json")
        assert code == 0
        assert _strict_json(out)["bound"] == pytest.approx(0.5776226505, abs=1e-9)


class TestBudgets:
    def test_unfactorable_discriminant_is_flagged_not_hung(self):
        # the discriminant is a 317-bit composite the factoring budget cannot split
        cmd = [sys.executable, "-m", "arakelov", "height", "--poly",
               "x^30 + 5x^17 - 13x^11 + 29x^4 - 37x + 47", "--format", "json"]
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert "discriminant-partially-factored" in report["flags"]
        assert [e["method"] for e in report["locals"]] == ["numeric-roots",
                                                           "unfactored-cofactor"]
        assert elapsed <= 10.0


    def test_degree_400_certifies(self):
        # Newton-polygon starts: this ran past 40 s from the Cauchy circle
        cmd = [sys.executable, "-m", "arakelov", "height", "--poly", "x^400 - 2",
               "--format", "json"]
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["h_weil"] == pytest.approx(math.log(2) / 400, abs=1e-12)
        assert elapsed <= 10.0

    def test_root_beyond_absolute_reach_refuses(self):
        # roots near +-1e150: no double centre is within 1e-12 of them
        cmd = [sys.executable, "-m", "arakelov", "height", "--poly",
               f"x^2 - {10 ** 300 + 3}"]
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert done.returncode == 3
        assert "modulus at least 1e+150" in done.stderr
        assert "Traceback" not in done.stderr
        assert elapsed <= 10.0

    @pytest.mark.parametrize("r", ["120", "150", "200"])
    def test_wide_interval_energy(self, capsys, r):
        # the measure is uniform in the arc chart, so the cross-check converges at any r
        code, out = run_cli(capsys, "measure", "--interval", r, "--energy",
                            "--format", "json")
        assert code == 0
        radius = float(r)
        closed = math.log(2 * math.sqrt(1 + radius * radius) / radius)
        assert json.loads(out)["value"] == pytest.approx(closed, abs=1e-9)


@st.composite
def _coefficient_lists(draw):
    degree = draw(st.integers(1, 60))
    bound = 10 ** draw(st.integers(0, 400))
    return draw(st.lists(st.integers(-bound, bound), min_size=degree + 1,
                         max_size=degree + 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(coeffs=_coefficient_lists(),
       command=st.sampled_from([["height"], ["local", "--place", "inf"],
                                ["local", "--place", "2"], ["local", "--place", "7"]]))
def test_height_and_local_exit_within_contract(coeffs, command):
    argv = [command[0], "--coeffs", json.dumps(coeffs), *command[1:]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


class TestVerifyCommand:
    def test_bounds_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "bounds")
        assert code == 0
        assert out.count("PASS") == 2
        assert "all checks passed" in out

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    def test_repeated_runs_byte_identical(self):
        cmd = [sys.executable, "-m", "arakelov", "verify", "--suite", "bounds",
               "--seed", "0"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout


# command, first csv line, start of the first text line, exit code
FORMAT_CASES = [
    (["height", "--poly", "x^2 - 2"], "field,value", "h_arakelov = ", 0),
    (["local", "--poly", "x^2 - 2", "--place", "2"],
     "place,value,method,error_bound", "local 2: ", 0),
    (["measure", "--interval", "1", "--mass"],
     "set,action,value,est_error,evaluations", "mass of interval:1 = ", 0),
    (["measure", "--interval", "1", "--density-grid", "5"], "x,density", "x,density", 0),
    (["measure", "--real-line", "--potential-grid", "3"],
     "x,potential", "x,potential", 0),
    (["fekete", "--real-line", "--n", "8", "--seed", "1"],
     "n,energy,iterations,converged", "energy = ", 0),
    (["fekete", "--sphere", "--n", "24", "--budget", "2", "--restarts", "1"],
     "n,energy,iterations,converged", "energy = ", 4),
    (["fekete", "--real-line", "--table", "4,8"],
     "n,energy,limit,gap", "n,energy,limit,gap", 0),
    (["bounds", "--places", "inf,2"], "term,value", "bound = ", 0),
    (["pairs"], "p,q,bound", "82 prime pairs beat the elementary bound", 0),
    (["verify", "--suite", "bounds"], "PASS bounds.worked-examples: bounds print as "
     "0.577623/0.633409/0.402359 (want 0.577623/0.633409/0.402359), "
     "equidistribution integral = 0.481212", "PASS bounds.worked-examples: ", 0),
]


class TestFormatMatrix:
    @pytest.mark.parametrize("argv, header, prefix, expected", FORMAT_CASES,
                             ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_every_command_in_every_format(self, capsys, argv, header, prefix,
                                           expected, fmt):
        code, out = run_cli(capsys, *argv, "--format", fmt)
        assert code == expected
        assert out.endswith("\n")
        if fmt == "json":
            json.loads(out)
        elif fmt == "csv":
            assert out.splitlines()[0] == header
        else:
            assert out.splitlines()[0].startswith(prefix)

    @pytest.mark.parametrize("argv", [
        ["height"],
        ["height", "--poly", "x - 1", "--point", "0"],
        ["local", "--place", "2"],
        ["local", "--poly", "x^2 - 2", "--coeffs", "[-2, 0, 1]", "--place", "2"],
        ["measure", "--sphere"],
        ["measure", "--sphere", "--energy", "--mass"],
        ["measure", "--sphere", "--potential-at", "1", "--density-grid", "3"],
        ["fekete", "--sphere"],
        ["fekete", "--sphere", "--n", "4", "--table", "4,8"],
    ], ids=" ".join)
    def test_one_of_groups_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--places", "inf", "--tol", "1"],
        ["bounds", "--places", "inf,2", "--seed", "3"],
        ["height", "--poly", "x - 1", "--seed", "1"],
        ["fekete", "--real-line", "--n", "4", "--tol", "1e-3"],
        ["pairs", "--digits", "4"],
        ["verify", "--suite", "bounds", "--tol", "1"],
    ], ids=" ".join)
    def test_option_the_command_ignores_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

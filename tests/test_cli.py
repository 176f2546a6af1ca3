"""Command-line behaviour: formats, determinism, exit codes."""

import csv
import io
import json
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import linial.cli
from conftest import ALL_TYPES
from linial.cli import main
from linial.ehrhart import decompose_ehrhart
from linial.rootsystems import catalog


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_md(capsys):
    code, out, err = run_cli(capsys, "table", "A2", "--n-list", "1,2,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "| n | characteristic polynomial | real part | exact |"
    assert "| 1 | t^2 - 3t + 3 | 3/2 | yes |" in lines
    assert "| 3 | t^2 - 9t + 24 | 9/2 | yes |" in lines


def test_table_is_deterministic(capsys):
    a = run_cli(capsys, "table", "F4", "--n-list", "1,2,5", "--format", "json")
    b = run_cli(capsys, "table", "F4", "--n-list", "1,2,5", "--format", "json")
    assert a == b


def test_table_rejects_jobs_flag(capsys):
    # table runs serially; --jobs is a usage error that names the flag
    with pytest.raises(SystemExit) as exc:
        main(["table", "B3", "--n-list", "1,2,3,4", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_table_json_schema(capsys):
    code, out, _ = run_cli(capsys, "table", "E6", "--n-list", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert doc["type"] == "E6" and row["n"] == 1
    # descending integer coefficients as strings
    assert row["coeffs"] == ["1", "-36", "630", "-6480", "40185", "-140076", "211992"]
    assert row["real_part"] == "6"
    assert row["exact"] == "yes"
    assert row["max_deviation"] < 1e-8


def test_table_csv_parses(capsys):
    code, out, _ = run_cli(capsys, "table", "G2", "--n-list", "1,2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "coeffs", "real_part", "max_deviation", "exact"]
    assert len(rows) == 3


def test_table_n_zero_repeated_root_certified(capsys):
    # t^ell has a repeated root: the Sturm count runs on its squarefree part t
    code, out, _ = run_cli(capsys, "table", "A2", "--n-list", "0")
    assert code == 0
    assert "| 0 | t^2 | 0 | yes |" in out


def test_bad_type_is_an_error(capsys):
    code, _, err = run_cli(capsys, "table", "H3")
    assert code == 2
    assert "error" in err


def test_rank_above_catalogue_is_an_error(capsys):
    # the catalogue stops at rank 8; a larger rank is refused before any work
    code, out, err = run_cli(capsys, "table", "A9", "--n-list", "1")
    assert code == 2
    assert out == ""
    assert "rank 9" in err


def test_bad_n_list(capsys):
    code, _, err = run_cli(capsys, "table", "A2", "--n-list", "1,x")
    assert code == 2


def test_negative_n(capsys):
    code, _, err = run_cli(capsys, "verify", "A2", "-5")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "A2", "-1"],
        ["verify", "B3", "-1", "--mode", "formula"],
        ["verify", "B3", "-1", "--mode", "oracle"],
        ["verify", "B3", "-1", "--mode", "both"],
        ["verify", "B2", "-1", "--mode", "oracle", "--q-max", "0"],
    ],
    ids=["roots", "formula", "oracle", "both", "oracle-q-max-0"],
)
def test_negative_n_message(capsys, argv):
    # the library rejects n < 0 on every path, before any modulus check
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: n must be >= 0\n")


def test_verify_formula_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "G2", "3", "--mode", "formula")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["main"] is True
    assert doc["checks"]["corollary1"] is True
    assert "rad" not in doc["checks"]  # eta = gcd(4, 6) / gcd(4, 6) = 1: nothing to check
    assert doc["period"] == 2
    code, out, _ = run_cli(capsys, "verify", "F4", "3", "--mode", "formula")
    assert code == 0
    assert json.loads(out)["checks"]["rad"] is True  # eta = gcd(4, 12) / gcd(4, 6) = 2


def test_verify_gcd_prime_key_only_when_coprime(capsys):
    _, out, _ = run_cli(capsys, "verify", "G2", "3", "--mode", "formula")
    doc = json.loads(out)
    assert "gcd_prime" not in doc["checks"]  # gcd(4, 6) = 2
    code, out, _ = run_cli(capsys, "verify", "G2", "4", "--mode", "formula")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["gcd_prime"] is True  # gcd(5, 6) = 1
    assert doc["period"] == 1


def test_verify_oracle_reports_first_failure(capsys, monkeypatch):
    # A2 n=2 sweeps q = 4..8; a count that is off by one at q = 6 must be
    # reported, which only happens if every q is compared with the formula,
    # and the sweep stops there: q = 7 and 8 are never counted
    real = linial.cli.oracle_count
    moduli = []

    def off_at_6(info, a, b, q):
        moduli.append(q)
        return real(info, a, b, q) + (q == 6)

    monkeypatch.setattr(linial.cli, "oracle_count", off_at_6)
    code, out, _ = run_cli(capsys, "verify", "A2", "2", "--mode", "both", "--q-max", "8")
    assert code == 1
    assert moduli == [4, 5, 6]
    doc = json.loads(out)
    assert doc["oracle_moduli"] == [4, 8]
    assert doc["checks"]["oracle"] is False
    assert doc["checks"]["main"] is True
    failure = doc["first_failure"]
    assert failure["check"] == "oracle" and failure["q"] == 6
    assert failure["count"] == int(failure["formula"]) + 1


def test_verify_reports_first_failing_formula_check(capsys, monkeypatch):
    # a formula check that fails is named, with n, as the first failure
    monkeypatch.setattr(linial.cli, "verify_corollary1", lambda info, n: False)
    code, out, _ = run_cli(capsys, "verify", "B3", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"]["main"] is True
    assert doc["checks"]["corollary1"] is False
    assert doc["first_failure"] == {"check": "corollary1", "n": 3}


def test_verify_readme_oracle_example_passes(capsys):
    # the README's example: B2 n=1 sweeps q = n(h-1) = 3 .. 9
    code, out, err = run_cli(capsys, "verify", "B2", "1", "--mode", "both", "--q-max", "9")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["oracle_moduli"] == [3, 9]
    assert all(doc["checks"].values()) and doc["checks"]["oracle"] is True
    assert "first_failure" not in doc


@pytest.mark.parametrize("mode", ["oracle", "both"])
def test_verify_oracle_rejects_q_max_below_bound(capsys, mode):
    # B2 n=2 agrees from q = 6 on, so --q-max 5 leaves no modulus to check
    code, out, err = run_cli(capsys, "verify", "B2", "2", "--mode", mode, "--q-max", "5")
    assert code == 2
    assert out == ""
    assert "agreement bound n(h-1) = 6" in err


def test_verify_oracle_point_budget(capsys):
    # E8 n=1 needs q >= 29, i.e. at least 29^8 points: refused before counting
    code, out, err = run_cli(capsys, "verify", "E8", "1", "--mode", "oracle", "--q-max", "29")
    assert code == 2
    assert out == ""
    assert "1000000000 points" in err
    # the budget counts the whole sweep: each modulus alone fits, the sum does not
    code, _, err = run_cli(capsys, "verify", "A2", "1", "--mode", "oracle", "--q-max", "2000")
    assert code == 2 and "points" in err


def test_verify_oracle_valid_regime_passes(capsys):
    # A1 with n = 1: the agreement regime starts at q = n(h-1) = 1,
    # so every modulus in the sweep matches and the exit code is clean
    code, out, _ = run_cli(capsys, "verify", "A1", "1", "--mode", "oracle", "--q-max", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["oracle"] is True
    assert "first_failure" not in doc


@pytest.mark.parametrize("mode", ["oracle", "both"])
def test_verify_oracle_rejects_empty_modulus_range(capsys, mode):
    # --q-max 0 would check no modulus at all and report a vacuous pass
    code, out, err = run_cli(capsys, "verify", "B2", "1", "--mode", mode, "--q-max", "0")
    assert code == 2
    assert out == ""
    assert "--q-max must be >= 1" in err


def test_verify_rejects_jobs_flag(capsys):
    # the oracle sweep runs serially; --jobs is a usage error that names the flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "B2", "1", "--mode", "both", "--q-max", "6", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_ehrhart_markdown_and_exit(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "G2", "--q-max", "8")
    assert code == 0
    assert "| 6 | 7 | 7 | yes |" in out


@pytest.mark.parametrize("label", ALL_TYPES)
def test_ehrhart_default_range_passes_the_interpolation_nodes(capsys, label):
    # ehrhart_quasi interpolates L at q = 0 .. rho(l+2) - 1; the default
    # range goes one period further, so each residue is checked off the nodes
    info = catalog(label)
    code, out, _ = run_cli(capsys, "ehrhart", label, "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["all_match"] is True
    assert doc["rows"][-1]["q"] == info.period_rho * (info.rank + 3) - 1
    assert doc["rows"][-1]["q"] > info.period_rho * (info.rank + 2) - 1


def test_ehrhart_json(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "A2", "--q-max", "3", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["all_match"] is True
    assert doc["rows"][3] == {"q": 3, "count": 10, "formula": "10", "match": True}


def test_ehrhart_rejects_negative_q_max(capsys):
    # --q-max -1 would compare no dilation at all and report a vacuous match
    code, out, err = run_cli(capsys, "ehrhart", "G2", "--q-max", "-1", "--format", "json")
    assert code == 2
    assert out == ""
    assert "--q-max must be >= 0" in err


def test_ehrhart_rejects_q_max_above_cap(capsys, monkeypatch):
    # --q-max 300000000 used to run until killed; it must be refused before
    # any count or evaluation starts
    def no_work(*args):
        raise AssertionError("ehrhart started work on a refused --q-max")

    monkeypatch.setattr(linial.cli, "denumerant_count", no_work)
    monkeypatch.setattr(linial.cli, "ehrhart_quasi", no_work)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "ehrhart", "A1", "--q-max", "300000000")
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert out == ""
    assert f"<= {linial.cli._EHRHART_Q_MAX}" in err


def test_ehrhart_q_max_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(linial.cli, "_EHRHART_Q_MAX", 5)
    code, out, _ = run_cli(capsys, "ehrhart", "G2", "--q-max", "5", "--format", "json")
    assert code == 0
    assert [row["q"] for row in json.loads(out)["rows"]] == list(range(6))
    code, out, err = run_cli(capsys, "ehrhart", "G2", "--q-max", "6")
    assert code == 2 and out == "" and "<= 5" in err


def test_formula_commands_do_not_import_numpy():
    # numpy is only for the mod-q oracle; dataclasses (which pulls in
    # inspect, ast, dis and tokenize) is not imported at all, and a bare
    # interpreter loads neither
    script = (
        "import sys\n"
        "assert 'numpy' not in sys.modules and 'dataclasses' not in sys.modules\n"
        "import contextlib, io, linial.cli\n"
        "from linial.cli import main\n"
        "assert 'numpy' not in sys.modules, 'numpy'\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['ehrhart', 'G2']), main(['decompose', 'F4']),\n"
        "             main(['verify', 'B3', '2', '--mode', 'formula']),\n"
        "             main(['table', 'E8', '--n-list', '1,2']), main(['roots', 'E6', '1'])]\n"
        "assert codes == [0, 0, 0, 0, 0], codes\n"
        "assert 'numpy' not in sys.modules, 'numpy'\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "F4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [p["mark"] for p in doc["parts"]] == [1, 2, 3, 4]
    assert [p["degree"] for p in doc["parts"]] == [4, 2, 0, 0]
    assert doc["resum_ok"] is True
    # the constituents as exact "p/q" strings, lowest degree first, per slot
    for p, (d, piece) in zip(doc["parts"], decompose_ehrhart(catalog("F4"))):
        assert (p["mark"], p["period"]) == (d, piece.period)
        got = [[Fraction(c) for c in cs] for cs in p["constituents"]]
        assert got == [list(c.coeffs) for c in piece.constituents]
    assert any("/" in c for p in doc["parts"] for cs in p["constituents"] for c in cs)


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "E6", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["target_real_part"] == "6"
    assert len(doc["roots"]) == 6
    assert all(abs(r["re"] - 6.0) < 1e-8 for r in doc["roots"])
    assert doc["within_tol"] and doc["symmetry_exact"] and doc["sturm_exact"]


def test_roots_strict_tolerance_still_passes(capsys):
    # roots of the exactly centred polynomial: here about 1e-30 off the
    # line, well inside the strict tolerance
    code, out, _ = run_cli(capsys, "roots", "F4", "2", "--tol", "1e-13")
    assert code == 0


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_roots_rejects_vacuous_or_invalid_tol(capsys, tol):
    # --tol inf would pass any deviation and print a non-JSON "tol": inf;
    # nan and negative values would fail every root: usage errors, not checks
    code, out, err = run_cli(capsys, "roots", "F4", "2", "--tol", tol, "--format", "json")
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_roots_zero_tol_is_valid(capsys):
    code, out, err = run_cli(capsys, "roots", "A2", "1", "--tol", "0", "--format", "json")
    assert err == ""
    doc = json.loads(out)
    assert doc["tol"] == 0
    assert code == (0 if doc["within_tol"] else 1)


def test_roots_large_n_passes_the_default_tol(capsys):
    # at E8 n = 10^23 the centred roots are ~10^23 in size and their real
    # parts ~10^-8 from rounding: the relative deviation stays near 1e-32
    code, out, _ = run_cli(capsys, "roots", "E8", str(10**23), "--format", "json")
    doc = json.loads(out)
    assert doc["max_deviation"] < 1e-20
    assert doc["within_tol"] and doc["symmetry_exact"] and doc["sturm_exact"]
    assert code == 0


@pytest.mark.parametrize(
    "cmd", [["roots", "E8"], ["table", "E8", "--n-list"]], ids=["roots", "table"]
)
def test_numeric_path_beyond_float_range_is_an_error(capsys, cmd):
    code, out, err = run_cli(capsys, *cmd, str(10**40))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "float range" in err


def test_verify_beyond_float_range_stays_exact(capsys):
    code, out, _ = run_cli(capsys, "verify", "E8", str(10**40))
    assert code == 0
    assert all(json.loads(out)["checks"].values())


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "linial.cli", "table", "A2", "--n-list", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "t^2 - 3t + 3" in proc.stdout


# A float as the CLI prints it: %.17g, so "0" and "18" rather than "0.0" and "18.0".
_FLOAT = r"(-?(?:inf|nan|[0-9][0-9.e+-]*))"
# Where the float fields sit in each output format: JSON keys, the two float
# columns of ``roots`` md/csv, the tail lines of ``roots`` and the
# max_deviation column of ``table`` csv.
_FLOAT_FIELDS = [
    rf'^ *"(?:max_deviation|re|im|tol)": {_FLOAT},?$',
    rf"^\| {_FLOAT} \| {_FLOAT} \|$",
    rf"^{_FLOAT},{_FLOAT}$",
    rf"^max_deviation,{_FLOAT}$",
    rf"^max deviation: {_FLOAT}$",
    rf"^within tol {_FLOAT}: (?:yes|no)$",
    rf"^[0-9]+,[-0-9 ]+,[-0-9/]+,{_FLOAT},(?:yes|no)$",
]


def _mask_floats(out: str) -> str:
    """``out`` with each float field replaced by ``<f>``, after checking that
    it is printed as format(x, ".17g") of its own value; the float values come
    from the numeric root finder, so only their formatting is pinned."""
    lines = []
    for line in out.split("\n"):
        for pattern in _FLOAT_FIELDS:
            m = re.match(pattern, line)
            if m:
                for i in range(m.lastindex, 0, -1):
                    text = m.group(i)
                    assert text == format(float(text), ".17g"), line
                    line = line[: m.start(i)] + "<f>" + line[m.end(i) :]
                break
        lines.append(line)
    return "\n".join(lines)


def _pinned_outputs() -> list:
    """(argv, exit code, stdout with masked floats) from ``cli_bytes.txt``:
    blocks that start with a ``$ <argv>`` line and an ``exit <code>`` line."""
    text = (pathlib.Path(__file__).parent / "cli_bytes.txt").read_text()
    cases = []
    for block in text.split("$ ")[1:]:
        argv, code, out = block.split("\n", 2)
        cases.append((argv.split(), int(code.removeprefix("exit ")), out))
    return cases


def test_output_bytes_pinned(capsys):
    cases = _pinned_outputs()
    assert len(cases) == 20
    for argv, want_code, want_out in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (want_code, ""), argv
        assert _mask_floats(out) == want_out, argv

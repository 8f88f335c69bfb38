import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassercop.cli import main


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "wassercop", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def running_pair(tmp_path):
    f = tmp_path / "F.json"
    g = tmp_path / "G.json"
    f.write_text(json.dumps({"kind": "empirical", "atoms": [[0, "0.5"], [1, "0.5"]]}))
    g.write_text(json.dumps({"kind": "empirical", "atoms": [[0, "0.25"], [2, "0.75"]]}))
    return str(f), str(g)


@pytest.fixture
def point_masses(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"kind": "point_mass", "location": 0}))
    b.write_text(json.dumps({"kind": "point_mass", "location": 3}))
    return str(a), str(b)


@pytest.fixture
def copula_csv(tmp_path):
    c = tmp_path / "C.csv"
    c.write_text("0.25,0.25\n0.75,0.75\n")
    return str(c)


class TestCompute:
    def test_w1_running_example(self, running_pair):
        f, g = running_pair
        r = run_cli("compute", "--p", "1", f, g)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["value"] == pytest.approx(1.0, abs=1e-12)

    def test_self_distance_zero(self, running_pair):
        f, _ = running_pair
        r = run_cli("compute", "--p", "2", f, f)
        assert json.loads(r.stdout)["value"] == 0.0

    def test_csv_ingestion(self, tmp_path, running_pair):
        _, g = running_pair
        f = tmp_path / "F.csv"
        f.write_text("x,w\n0,0.5\n1,0.5\n")
        r = run_cli("compute", "--p", "2", str(f), g)
        assert json.loads(r.stdout)["power_value"] == pytest.approx(1.5, abs=1e-12)

    def test_shared_copula_route(self, tmp_path, copula_csv):
        u1 = tmp_path / "u1.json"
        u2 = tmp_path / "u2.json"
        u1.write_text(json.dumps({"kind": "uniform", "a": 0, "b": 1}))
        u2.write_text(json.dumps({"kind": "uniform", "a": 0, "b": 2}))
        r = run_cli(
            "compute", "--p", "2", "--copula", copula_csv,
            "--margins-f", str(u1), str(u1), "--margins-g", str(u2), str(u2),
        )
        out = json.loads(r.stdout)
        assert out["method"] == "SharedCopulaSum"
        assert out["power_value"] == pytest.approx(2.0 / 3.0, abs=1e-7)

    def test_methods_agree(self, running_pair):
        f, g = running_pair
        values = set()
        for method in ("quantile", "cdf", "via-m"):
            r = run_cli("compute", "--p", "1", "--method", method, f, g)
            values.add(round(json.loads(r.stdout)["value"], 10))
        assert values == {1.0}

    def test_deterministic_output(self, running_pair):
        f, g = running_pair
        a = run_cli("compute", "--p", "2", f, g)
        b = run_cli("compute", "--p", "2", f, g)
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("method, p", [("quantile", "2"), ("via-m", "2"), ("cdf", "1")])
    def test_point_masses_exact(self, point_masses, method, p, capsys):
        # a point mass is a one-atom law, so every route is an exact sum
        assert main(["compute", *point_masses, "--p", p, "--method", method]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 3.0
        assert out["error_estimate"] == 0.0

    def test_parse_failure_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        r = run_cli("compute", "--p", "1", str(bad), str(bad))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error" in r.stderr

    def test_missing_file_exit_2(self):
        r = run_cli("compute", "--p", "1", "nope1.json", "nope2.json")
        assert r.returncode == 2

    def test_overflowing_cost_exit_4(self, running_pair, tmp_path):
        far = tmp_path / "far.json"
        far.write_text(json.dumps({"kind": "empirical", "atoms": [[1e200, "1"]]}))
        r = run_cli("compute", "--p", "3", str(far), running_pair[0])
        assert r.returncode == 4
        assert r.stdout == ""
        assert "overflows a float at p = 3" in r.stderr

    def test_uniform_of_infinite_width_exit_2(self, running_pair, tmp_path, capsys):
        # b - a = inf: rejected when the file is read, not turned into W_1 = 0
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"kind": "uniform", "a": -1e308, "b": 1e308}))
        assert main(["compute", "--p", "1", "--method", "cdf", str(wide), running_pair[0]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sum("error:" in line for line in captured.err.splitlines()) == 1


class TestGridArguments:
    """In process through cli.main: a bad grid size is a usage error (exit 2),
    and a tolerance that quadrature cannot reach a numeric failure (exit 4)."""

    @pytest.fixture
    def uniform_pair(self, tmp_path):
        a = tmp_path / "A.json"
        b = tmp_path / "B.json"
        a.write_text(json.dumps({"kind": "uniform", "a": 0, "b": 1}))
        b.write_text(json.dumps({"kind": "uniform", "a": 0, "b": 2}))
        return str(a), str(b)

    @pytest.mark.parametrize("n", ["0", "1", "-3", "ten"])
    def test_grid_n_below_two_exit_2(self, uniform_pair, n, capsys):
        assert main(["compute", *uniform_pair, "--p", "2", "--grid-n", n]) == 2
        assert main(["sample", *uniform_pair, "--grid-n", n]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("method", ["quantile", "via-m", "cdf"])
    def test_unreachable_tolerance_exit_4(self, tmp_path, method, capsys):
        # a pair with no closed form, so every method runs quad, which cannot
        # reach 1e-300: one typed error line, not an IntegrationWarning
        a = tmp_path / "N.json"
        b = tmp_path / "U.json"
        a.write_text(json.dumps({"kind": "normal", "mean": 0.3, "stddev": 0.7}))
        b.write_text(json.dumps({"kind": "uniform", "a": 0, "b": 2}))
        p = "1" if method == "cdf" else "2"
        argv = ["compute", str(a), str(b), "--p", p, "--grid-tol", "1e-300", "--method", method]
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: quadrature failed on the cell") and len(err.splitlines()) == 1


class TestOrderArguments:
    """In process through cli.main: --p and --q must be finite and >= 1 (exit 2)."""

    @pytest.mark.parametrize("order", ["nan", "inf", "-inf", "0.5"])
    def test_bad_order_exit_2(self, running_pair, order, capsys):
        f, g = running_pair
        assert main(["compute", f, g, "--p", order]) == 2
        assert main(["oracle", f, g, "--p", order]) == 2
        assert main(["bounds", "--p", order, "--q", "2", "--margins-f", f, "--margins-g", g]) == 2
        assert main(["bounds", "--p", "2", "--q", order, "--margins-f", f, "--margins-g", g]) == 2
        assert capsys.readouterr().out == ""


class TestBounds:
    def test_ratio_two(self, running_pair, copula_csv):
        f, g = running_pair
        r = run_cli(
            "bounds", "--p", "2", "--q", "1", "--copula", copula_csv,
            "--margins-f", f, f, "--margins-g", g, g,
        )
        out = json.loads(r.stdout)
        lo, hi = out["bounds"]
        assert hi / lo == pytest.approx(2.0, abs=1e-12)

    def test_one_margin_collapses(self, running_pair):
        f, g = running_pair
        r = run_cli("bounds", "--p", "1", "--q", "2", "--margins-f", f, "--margins-g", g)
        lo, hi = json.loads(r.stdout)["bounds"]
        assert lo == hi

    def test_three_margins_inverse_sqrt3(self, running_pair, tmp_path):
        f, g = running_pair
        c = tmp_path / "C3.csv"
        c.write_text("0.0,0.0,0.0\n0.5,0.5,0.5\n")
        r = run_cli(
            "bounds", "--p", "1", "--q", "2", "--copula", str(c),
            "--margins-f", f, f, f, "--margins-g", g, g, g,
        )
        lo, hi = json.loads(r.stdout)["bounds"]
        assert lo / hi == pytest.approx(3 ** -0.5, abs=1e-12)

    def test_equal_orders_exit_2(self, running_pair, copula_csv):
        f, g = running_pair
        r = run_cli(
            "bounds", "--p", "2", "--q", "2", "--copula", copula_csv,
            "--margins-f", f, f, "--margins-g", g, g,
        )
        assert r.returncode == 2


class TestVerify:
    def test_quick_suites_pass(self):
        r = run_cli("verify", "--suite", "assignment", "--suite", "continuous")
        assert r.returncode == 0, r.stdout + r.stderr
        assert r.stdout.count("PASS") == 2

    def test_corrupt_formula_fails(self):
        r = run_cli("verify", "--suite", "comonotone", "--corrupt", "formula")
        assert r.returncode == 1
        assert "FAIL" in r.stdout

    def test_seed_determinism(self):
        a = run_cli("verify", "--suite", "assignment", "--seed", "5")
        b = run_cli("verify", "--suite", "assignment", "--seed", "5")
        assert a.stdout == b.stdout


class TestSample:
    def test_running_example_atoms(self, running_pair, tmp_path):
        f, g = running_pair
        out = tmp_path / "coupling.csv"
        r = run_cli("sample", f, g, "-o", str(out))
        assert r.returncode == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x,y,mass"
        parsed = [tuple(float(v) for v in row.split(",")) for row in rows[1:]]
        assert parsed == [(0, 0, 0.25), (0, 2, 0.25), (1, 2, 0.5)]

    def test_diagonal_for_equal_laws(self, running_pair):
        f, _ = running_pair
        r = run_cli("sample", f, f)
        rows = r.stdout.strip().splitlines()[1:]
        for row in rows:
            x, y, _ = row.split(",")
            assert x == y

    def test_point_masses(self, point_masses):
        r = run_cli("sample", *point_masses)
        rows = r.stdout.strip().splitlines()[1:]
        assert len(rows) == 1


class TestOracle:
    def test_witness_json(self, running_pair):
        f, g = running_pair
        r = run_cli("oracle", f, g, "--p", "2")
        out = json.loads(r.stdout)
        assert out["power_value"] == pytest.approx(1.5, abs=1e-12)
        total = sum(e["mass"] for e in out["entries"])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_point_masses(self, point_masses, capsys):
        assert main(["oracle", *point_masses, "--p", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["power_value"] == 9.0 and out["value"] == 3.0
        assert out["entries"] == [{"i": 0, "j": 0, "mass": 1.0}]

    def test_atom_cap_exit_4(self, running_pair):
        f, g = running_pair
        r = run_cli("oracle", f, g, "--p", "2", "--atom-cap", "1")
        assert r.returncode == 4
        assert "atom cap" in r.stderr


class TestFileFailures:
    """In process through cli.main: a file that cannot be read or written is
    a usage error (exit 2) with one `error:` line, not a traceback."""

    def _one_error_line(self, capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_directory_as_input(self, running_pair, tmp_path, capsys):
        assert main(["compute", str(tmp_path), running_pair[0], "--p", "2"]) == 2
        assert "Is a directory" in self._one_error_line(capsys)

    def test_unwritable_sample_output(self, running_pair, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["sample", *running_pair, "-o", str(out)]) == 2
        assert "cannot write" in self._one_error_line(capsys)

    def test_non_utf8_csv(self, running_pair, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x,w\n\xff\xfe,1\n")
        assert main(["compute", str(bad), running_pair[0], "--p", "2"]) == 2
        assert "can't decode" in self._one_error_line(capsys)
        assert main(["bounds", "--margins-f", running_pair[0], "--margins-g", running_pair[1],
                     "--copula", str(bad), "--p", "2", "--q", "1"]) == 2
        assert "can't decode" in self._one_error_line(capsys)

    def test_csv_field_over_the_reader_limit(self, running_pair, tmp_path, capsys):
        bad = tmp_path / "long.csv"
        bad.write_text("x,w\n" + "1" * 200_000 + ",1\n")
        assert main(["compute", str(bad), running_pair[0], "--p", "2"]) == 2
        assert "field larger than field limit" in self._one_error_line(capsys)


    @pytest.mark.parametrize(
        "rows",
        ["1,2\n3\n5,6\n", "1,2\n3,4,9\n5,6\n", "1,2\nnan,4\n5,6\n", "1,2\n3,-inf\n5,6\n"],
        ids=["short-row", "long-row", "nan", "inf"],
    )
    def test_malformed_copula_data(self, running_pair, tmp_path, rows, capsys):
        bad = tmp_path / "X.csv"
        bad.write_text(rows)
        f, g = running_pair
        argv = ["compute", "--copula", str(bad), "--ranks", "auto",
                "--margins-f", f, f, "--margins-g", g, g, "--p", "2"]
        assert main(argv) == 2
        assert str(bad) in self._one_error_line(capsys)


class TestShapeMismatch:
    """In process through cli.main: inputs whose shapes disagree are usage
    errors (exit 2) with one `error:` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--p", "2", "--copula", "{c3}", "--margins-f", "{f}", "{f}",
             "--margins-g", "{g}", "{g}"],
            ["bounds", "--p", "2", "--q", "1", "--copula", "{c3}", "--margins-f", "{f}", "{f}",
             "--margins-g", "{g}", "{g}"],
            ["compute", "--p", "2", "--copula", "{c2}", "--margins-f", "{f}", "{f}",
             "--margins-g", "{g}"],
            ["bounds", "--p", "2", "--q", "1", "--margins-f", "{f}", "--margins-g", "{g}", "{g}"],
            ["compute", "{f}", "{g}", "--p", "2", "--copula", "{c2}", "--margins-f", "{f}", "{f}",
             "--margins-g", "{g}", "{g}"],
            ["oracle", "{f}", "{g}", "--p", "2", "--atom-cap", "0"],
            ["compute", "{f}", "{g}", "--p", "2", "--margins-f", "{f}", "--margins-g", "{g}",
             "{g}", "--ranks", "auto"],
        ],
        ids=["compute-copula-dim", "bounds-copula-dim", "compute-margin-counts",
             "bounds-margin-counts", "compute-laws-and-copula", "oracle-atom-cap-0",
             "compute-margins-without-copula"],
    )
    def test_mismatch_exit_2(self, running_pair, copula_csv, tmp_path, argv, capsys):
        c3 = tmp_path / "C3.csv"
        c3.write_text("0.0,0.0,0.0\n0.5,0.5,0.5\n")
        f, g = running_pair
        paths = {"f": f, "g": g, "c2": copula_csv, "c3": str(c3)}
        assert main([arg.format(**paths) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1


class TestOverflow:
    """|0.9 - (-0.9)|^2000 overflows a float although both moments are tiny:
    exit 4 with the cause named."""

    @pytest.fixture
    def far_apart(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"kind": "empirical", "atoms": [[0.9, "1"]]}))
        b.write_text(json.dumps({"kind": "empirical", "atoms": [[-0.9, "1"]]}))
        return str(a), str(b)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--method", "quantile"],
            ["compute", "--method", "via-m"],
            ["oracle"],
        ],
        ids=["quantile", "via-m", "oracle"],
    )
    def test_named_overflow_exit_4(self, far_apart, argv, capsys):
        assert main([*argv, *far_apart, "--p", "2000"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "overflows a float at p = 2000" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--method", "quantile"],
            ["compute", "--method", "cdf"],
            ["compute", "--method", "via-m"],
            ["oracle"],
        ],
        ids=["quantile", "cdf", "via-m", "oracle"],
    )
    @pytest.mark.parametrize(
        "atoms_f, atoms_g",
        [
            # 1e308 - (-1e308) is inf without any exception; the value would
            # print as the non-JSON token Infinity
            ([[1e308, "1"]], [[-1e308, "1"]]),
            # every term is finite but their fsum overflows
            ([[-1e308, "0.999"], [0.0, "0.001"]], [[1e308, "1"]]),
        ],
        ids=["infinite-term", "overflowing-sum"],
    )
    def test_infinite_distance_exit_4(self, tmp_path, atoms_f, atoms_g, argv, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"kind": "empirical", "atoms": atoms_f}))
        b.write_text(json.dumps({"kind": "empirical", "atoms": atoms_g}))
        assert main([*argv, str(a), str(b), "--p", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: W_p^p overflows a float at p = 1\n"

    def test_overflowing_bound_exit_4(self, tmp_path, capsys):
        # S = 5 * 3^300 is finite, but the upper bound 5^299 S is not
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        c = tmp_path / "C.csv"
        a.write_text(json.dumps({"kind": "point_mass", "location": 0}))
        b.write_text(json.dumps({"kind": "point_mass", "location": 3}))
        c.write_text("0,0,0,0,0\n0.5,0.5,0.5,0.5,0.5\n")
        argv = ["bounds", "--p", "300", "--q", "1", "--copula", str(c),
                "--margins-f", *[str(a)] * 5, "--margins-g", *[str(b)] * 5]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: W_p^p overflows a float at p = 300\n"


# Files for the exit-code table: name -> contents (None: nothing written;
# "directory" is made a directory)
TABLE_FILES = {
    "valid": '{"kind": "empirical", "atoms": [[0, "0.5"], [1, "0.5"]]}',
    "csv": "x,w\n0,1\n2,3\n",
    "point_mass": '{"kind": "point_mass", "location": 3}',
    # W_1 of these two is infinite, and |x - y|^2 overflows against any
    # other atom
    "far_pos": '{"kind": "empirical", "atoms": [[1e308, "1"]]}',
    "far_neg": '{"kind": "empirical", "atoms": [[-1e308, "1"]]}',
    "missing": None,
    "directory": None,
    "malformed": "{nope",
    "non_utf8": b"x,w\n\xff\xfe,1\n",
}
UNREADABLE = {"missing", "directory", "malformed", "non_utf8"}
FAR = {"far_pos", "far_neg"}


def table_exit_code(command: str, method: str, order: str, f: str, g: str) -> int:
    """The exit code cli's docstring table gives: 2 for a bad order or an
    unreadable file, 4 when some cost |x - y|^p overflows, else 0."""
    if command != "sample" and order not in ("1", "2"):
        return 2
    if {f, g} & UNREADABLE:
        return 2
    if command == "sample":
        return 0
    if command == "compute" and method == "cdf" and order != "1":
        return 2
    far = {f, g} & FAR
    if far == FAR or (far and {f, g} - FAR and order == "2"):
        return 4
    return 0


class TestExitCodeTable:
    """In process through cli.main: generated commands, orders and files
    get the exit code of the table in cli's docstring, and a nonzero exit
    prints one `error:` line and no traceback."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("table")
        paths = {}
        for name, text in TABLE_FILES.items():
            path = root / (name + (".csv" if name in ("csv", "non_utf8") else ".json"))
            if name == "directory":
                path.mkdir()
            elif isinstance(text, bytes):
                path.write_bytes(text)
            elif text is not None:
                path.write_text(text)
            paths[name] = str(path)
        return paths

    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["compute", "bounds", "sample", "oracle"]),
        method=st.sampled_from(["quantile", "cdf", "via-m"]),
        order=st.sampled_from(["1", "2", "nan", "0.5", "abc"]),
        f=st.sampled_from(sorted(TABLE_FILES)),
        g=st.sampled_from(sorted(TABLE_FILES)),
    )
    def test_exit_code_matches_table(self, files, command, method, order, f, g):
        argv = {
            "compute": ["compute", files[f], files[g], "--p", order, "--method", method],
            "bounds": ["bounds", "--p", order, "--q", "1.5",
                       "--margins-f", files[f], "--margins-g", files[g]],
            "sample": ["sample", files[f], files[g]],
            "oracle": ["oracle", files[f], files[g], "--p", order],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == table_exit_code(command, method, order, f, g), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert out.getvalue() == ""
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
        else:
            assert out.getvalue() and err.getvalue() == ""

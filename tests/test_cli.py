import csv
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from isdtest import (
    DataError,
    PairedSample,
    SimResult,
    SimSpec,
    TestConfig,
    make_paired,
    make_sample,
)
from isdtest import cli
from isdtest.cli import Report, emit_report, load_csv, main

from conftest import random_dp_values, save_csv, substream


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    # A UTF-8 byte-order mark is not part of the first value or header.
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_single_column(self, tmp_path, bom):
        s = load_csv(write(tmp_path, "a.csv", bom + "1.5\n2.5\n3.5\n"))
        assert list(s.values) == [1.5, 2.5, 3.5]

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_header_skipped(self, tmp_path, bom):
        s = load_csv(write(tmp_path, "a.csv", bom + "income\n1\n2\n"))
        assert list(s.values) == [1.0, 2.0]

    @pytest.mark.parametrize("first", ["-5", "nan", "inf", "-inf"])
    def test_invalid_number_on_line_1_is_not_a_header(self, tmp_path, first):
        with pytest.raises(DataError, match="line 1"):
            load_csv(write(tmp_path, "a.csv", f"{first}\n1\n2\n"))

    def test_invalid_number_on_paired_line_1(self, tmp_path):
        with pytest.raises(DataError, match="line 1"):
            load_csv(write(tmp_path, "a.csv", "1,-5\n1,2\n"), paired=True)

    def test_paired(self, tmp_path):
        p = load_csv(write(tmp_path, "a.csv", "1,2\n3,4\n"), paired=True)
        assert isinstance(p, PairedSample)
        assert list(p.left) == [1.0, 3.0]
        assert list(p.right) == [2.0, 4.0]

    def test_paired_header(self, tmp_path):
        p = load_csv(write(tmp_path, "a.csv", "x,y\n1,2\n"), paired=True)
        assert p.n == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(str(tmp_path / "nope.csv"))

    def test_parse_error_line_number(self, tmp_path):
        with pytest.raises(DataError, match="line 3"):
            load_csv(write(tmp_path, "a.csv", "1\n2\nbogus\n"))

    def test_negative_line_number(self, tmp_path):
        with pytest.raises(DataError, match="line 2.*negative"):
            load_csv(write(tmp_path, "a.csv", "1\n-2\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="no data"):
            load_csv(write(tmp_path, "a.csv", "\n\n"))

    def test_wrong_column_count(self, tmp_path):
        with pytest.raises(DataError, match="two comma-separated"):
            load_csv(write(tmp_path, "a.csv", "1,2\n3\n"), paired=True)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        s = make_sample(random_dp_values(rng, 40))
        path = tmp_path / "round.csv"
        save_csv(s, path)
        back = load_csv(str(path))
        assert np.array_equal(back.values, s.values)

    def test_round_trip_paired(self, tmp_path):
        rng = np.random.default_rng(4)
        p = make_paired(random_dp_values(rng, 9), random_dp_values(rng, 9))
        path = tmp_path / "round2.csv"
        save_csv(p, path)
        back = load_csv(str(path), paired=True)
        assert np.array_equal(back.left, p.left)
        assert np.array_equal(back.right, p.right)


def _per_line(path, paired=False):
    """Reference reader: each line of the file read and validated on its own."""
    rows = []
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")] if paired else [line]
            if paired and len(fields) != 2:
                raise DataError(f"line {line_no}: expected two comma-separated columns")
            try:
                values = [float(f) for f in fields]
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise DataError(f"line {line_no}: cannot parse") from None
            if not all(0 <= v < float("inf") for v in values):
                raise DataError(f"line {line_no}: invalid value")
            rows.append(values)
    return np.array(rows)


class TestLoadCsvWhole:
    """The file is parsed at once; the first invalid line still names the error."""

    @pytest.mark.parametrize("text, match", [
        ("1\n2\n-3\n4\nbogus\n", "line 3: negative value '-3'"),
        ("1\n2\nbogus\n4\n-5\n", "line 3: cannot parse 'bogus'"),
        ("1\n2\nnan\n4\nbogus\n", "line 3: non-finite value 'nan'"),
        ("1\n2\nbogus\n4\ninf\n", "line 3: cannot parse 'bogus'"),
        ("1\n2\n-inf\n4\n-5\n", "line 3: non-finite value '-inf'"),
    ])
    def test_first_invalid_line_wins(self, tmp_path, text, match):
        with pytest.raises(DataError, match=match):
            load_csv(write(tmp_path, "a.csv", text))

    @pytest.mark.parametrize("text, match", [
        ("x,y\n1,2\n3,-4\n5\n", "line 3: negative value '-4'"),
        ("x,y\n1,2\n3\n5,-6\n", "line 3: expected two comma-separated columns"),
        ("1,2\n3,4,5\n6,x\n", "line 2: expected two comma-separated columns"),
        ("1,2\n3, \n6,7,8\n", "line 2: cannot parse ''"),
        ("a,b,c\n1,2\n", "line 1: expected two comma-separated columns"),
        ("1,2\n ,1\n", "line 2: cannot parse ''"),
    ])
    def test_paired_first_invalid_line_wins(self, tmp_path, text, match):
        with pytest.raises(DataError, match=match):
            load_csv(write(tmp_path, "a.csv", text), paired=True)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_lone_cr(self, tmp_path, newline):
        path = tmp_path / "a.csv"
        path.write_bytes(newline.join(["income", "1.5", "", "2.5", "3.5", ""]).encode())
        assert list(load_csv(str(path)).values) == [1.5, 2.5, 3.5]
        path.write_bytes(newline.join(["income", "1.5", "", "bogus", ""]).encode())
        with pytest.raises(DataError, match="line 4: cannot parse 'bogus'"):
            load_csv(str(path))
        path.write_bytes(newline.join(["1,2", "3,4", "5", ""]).encode())
        with pytest.raises(DataError, match="line 3: expected two"):
            load_csv(str(path), paired=True)

    def test_form_feed_does_not_end_a_line(self, tmp_path):
        # Only LF, CRLF and CR end a line; str.splitlines would also split
        # at \x0c (and \x1c-\x1e, \x85, \u2028, \u2029) and shift the numbers.
        text = "1\n2\x0c\n\x0c3\n4\x1c\u2028\n\x85bogus\n"
        with pytest.raises(DataError, match="line 5: cannot parse 'bogus'"):
            load_csv(write(tmp_path, "a.csv", text))
        assert list(load_csv(write(tmp_path, "b.csv", text[:-7])).values) == [1, 2, 3, 4]

    def test_blank_lines_between_values(self, tmp_path):
        text = "income\n\n1.5\n  \n\t\n2.5\n\n\n3.5\n\n"
        assert list(load_csv(write(tmp_path, "a.csv", text)).values) == [1.5, 2.5, 3.5]
        with pytest.raises(DataError, match="line 7: negative"):
            load_csv(write(tmp_path, "b.csv", "1\n\n \n2\n\n\n-3\n"))

    def test_header_only_has_no_rows(self, tmp_path):
        for paired, text in ((False, "income\n\n"), (True, "x,y\n \n")):
            with pytest.raises(DataError, match="no data rows"):
                load_csv(write(tmp_path, "a.csv", text), paired=paired)

    @pytest.mark.parametrize("paired", [False, True], ids=["single", "paired"])
    def test_matches_per_line_reader(self, tmp_path, paired):
        # 1e4 rows in assorted spellings: repr, short and long exponents,
        # padding of any whitespace, signs and zeros.
        rng = np.random.default_rng(12)
        values = random_dp_values(rng, 20000 if paired else 10000)
        spellings = [repr, "{:.3e}".format, "{:.17g}".format, " {!r}\t".format,
                     "+{!r}".format, "\x1c{!r}\u3000".format, "{:f}".format]
        tokens = [spellings[i % len(spellings)](float(v)) for i, v in enumerate(values)]
        tokens[1000:1006] = ["0", "-0.0", "0e0", "1_000.5", "  7  ", "\x0c1e-300"]
        if paired:
            lines = [f"{a},{b}" for a, b in zip(tokens[0::2], tokens[1::2])]
        else:
            lines = tokens
        lines[100:100] = ["", "   "]
        path = write(tmp_path, "a.csv", "value,other\n" * paired + "\n".join(lines) + "\n")
        want = _per_line(path, paired)
        got = load_csv(path, paired=paired)
        if paired:
            assert np.array_equal(got.left, want[:, 0]) and np.array_equal(got.right, want[:, 1])
        else:
            assert np.array_equal(got.values, np.sort(want[:, 0]))


class TestEmitReport:
    def test_deterministic_bytes(self):
        r = Report("test", {"m": 3}, {"statistic": 0.0, "reject": False}, 1, "0.1.0", 12.0)
        assert emit_report(r, "json") == emit_report(r, "json")

    def test_json_schema_keys(self):
        r = Report("test", {"m": 3}, {"statistic": 0.0}, 1, "0.1.0", 2.0)
        payload = json.loads(emit_report(r, "json"))
        assert list(payload) == ["command", "config", "result", "seed", "version", "elapsed_ms"]

    def test_unknown_format(self):
        r = Report("test", {}, {}, 1, "0.1.0", 0.0)
        from isdtest import ConfigError

        with pytest.raises(ConfigError):
            emit_report(r, "yaml")


def _two_sample_files(tmp_path, n=120, shift=0.0, seed=9):
    rng = substream(seed, 0)
    a = random_dp_values(rng, n)
    b = random_dp_values(rng, n) + shift
    fa = tmp_path / "a.csv"
    fb = tmp_path / "b.csv"
    save_csv(make_sample(a), fa)
    save_csv(make_sample(b), fb)
    return str(fa), str(fb)


class TestMainTest:
    def test_json_output(self, tmp_path, capsysbinary):
        fa, fb = _two_sample_files(tmp_path)
        code = main(["test", fa, fb, "--bootstrap", "99", "--grid", "201",
                     "--vgrid", "51", "--seed", "5"])
        assert code == 0
        payload = json.loads(capsysbinary.readouterr().out)
        assert payload["command"] == "test"
        assert payload["config"]["bootstrap"] == 99
        assert set(payload["result"]) == {"statistic", "critical_value", "p_value",
                                          "reject", "contact_fraction", "T_n"}

    def test_reject_is_not_exit_code(self, tmp_path, capsysbinary):
        fa, fb = _two_sample_files(tmp_path, shift=2.0)
        code = main(["test", fa, fb, "--bootstrap", "99", "--grid", "201", "--vgrid", "51"])
        assert code == 0
        payload = json.loads(capsysbinary.readouterr().out)
        assert payload["result"]["reject"] is True

    def test_output_file_and_formats(self, tmp_path, capsysbinary):
        fa, fb = _two_sample_files(tmp_path)
        out = tmp_path / "report.json"
        code = main(["test", fa, fb, "--bootstrap", "49", "--grid", "101",
                     "--vgrid", "26", "--output", str(out)])
        assert code == 0
        json.loads(out.read_bytes())
        for fmt in ("csv", "text"):
            assert main(["test", fa, fb, "--bootstrap", "49", "--grid", "101",
                         "--vgrid", "26", "--format", fmt]) == 0
            capsysbinary.readouterr()

    def test_matched(self, tmp_path, capsysbinary):
        rng = substream(2, 1)
        base = random_dp_values(rng, 80)
        path = tmp_path / "pairs.csv"
        save_csv(make_paired(base, base * 1.1), path)
        code = main(["test", str(path), "--matched", "--bootstrap", "99",
                     "--grid", "201", "--vgrid", "51"])
        assert code == 0
        payload = json.loads(capsysbinary.readouterr().out)
        assert payload["config"]["scheme"] == "matched"

    def test_missing_file_exit_2(self, tmp_path, capsysbinary):
        fa, _ = _two_sample_files(tmp_path)
        assert main(["test", fa, str(tmp_path / "none.csv")]) == 2

    def test_bad_flag_exit_3(self, tmp_path, capsysbinary):
        fa, fb = _two_sample_files(tmp_path)
        assert main(["test", fa, fb, "--alpha", "2.0"]) == 3
        assert main(["test", fa, fb, "--direction", "sideways"]) == 3
        assert main(["test", fa]) == 3
        assert main(["test", fa, fb, "--tau", "bogus"]) == 3
        # A bad value is a config error before any file is read.
        missing = str(tmp_path / "none.csv")
        assert main(["test", missing, missing, "--direction", "sideways"]) == 3
        assert main(["rank", missing, missing, "--functional", "max"]) == 3
        assert main(["test", fa, fb, "--threads", "2"]) == 3
        assert main(["rank", fa, fb, "--threads", "2"]) == 3
        assert b"one thread" in capsysbinary.readouterr().err

    def test_unknown_functional_names_the_flag(self, tmp_path, capsys):
        fa, fb = _two_sample_files(tmp_path)
        for command in ("test", "rank"):
            assert main([command, fa, fb, "--functional", "max"]) == 3
            err = capsys.readouterr().err
            assert "config error: --functional must be one of sup, int, got 'max'" in err
            assert "kind" not in err

    def test_one_observation_exit_2(self, tmp_path, capsys):
        one = write(tmp_path, "one.csv", "1.5\n")
        many = write(tmp_path, "many.csv", "1\n2\n3\n")
        pair = write(tmp_path, "pair.csv", "1,2\n")
        assert main(["test", one, many, "--bootstrap", "19"]) == 2
        assert main(["rank", many, one, "--bootstrap", "19"]) == 2
        assert main(["test", pair, "--matched", "--bootstrap", "19"]) == 2
        assert "at least two observations" in capsys.readouterr().err

    @pytest.mark.parametrize("single, paired", [
        ("1.5\n2.5\n3.5\n".encode("utf-16"), "1,2\n3,4\n5,6\n".encode("utf-16")),
        (b"1.5\n2.5\xff\n3.5\n", b"1,2\n3,4\xff\n5,6\n"),
    ], ids=["utf16-bom", "stray-0xff"])
    def test_not_utf8_exit_2(self, tmp_path, capsys, single, paired):
        bad, pairs = tmp_path / "bad.csv", tmp_path / "pairs.csv"
        bad.write_bytes(single)
        pairs.write_bytes(paired)
        many = write(tmp_path, "many.csv", "1\n2\n3\n")
        assert main(["test", str(bad), many, "--bootstrap", "19"]) == 2
        assert main(["rank", many, str(bad), "--bootstrap", "19"]) == 2
        assert main(["test", str(pairs), "--matched", "--bootstrap", "19"]) == 2
        err = capsys.readouterr().err
        assert err.count(f"{bad} is not UTF-8 text") == 2
        assert f"{pairs} is not UTF-8 text" in err

    def test_infinite_tau(self, tmp_path, capsysbinary):
        fa, fb = _two_sample_files(tmp_path)
        code = main(["test", fa, fb, "--tau", "inf", "--bootstrap", "49",
                     "--grid", "101", "--vgrid", "26"])
        assert code == 0
        payload = json.loads(capsysbinary.readouterr().out)
        assert payload["config"]["tau"] == "inf"
        assert payload["result"]["contact_fraction"] == 1.0


# A value other than TestConfig's default for every field that has a flag.
GIVEN = {"m": 4, "direction": "down", "kind": "int", "alpha": 0.1, "tau": 2.0, "xi": 0.002,
         "eta": 0.01, "bootstrap": 49, "seed": 5, "grid": 101, "vgrid": 26}
# The config echoed when no flag is given, and when GIVEN is, in report order.
DEFAULT_ECHO = {"m": 3, "direction": "up", "functional": "sup", "alpha": 0.05, "tau": 3.0,
                "xi": 0.001, "eta": 0.0, "bootstrap": 999, "seed": 0, "grid": 1001,
                "vgrid": 101, "scheme": "independent"}
GIVEN_ECHO = {"m": 4, "direction": "down", "functional": "int", "alpha": 0.1, "tau": 2.0,
              "xi": 0.002, "eta": 0.01, "bootstrap": 49, "seed": 5, "grid": 101,
              "vgrid": 26, "scheme": "independent"}


def _echo(payload) -> list:
    """A report's config echo as (key, value) pairs in report order."""
    return list(payload["config"].items())


class TestConfigFlags:
    """test and rank take every default from TestConfig and pass on only
    the flags that were given."""

    @pytest.mark.parametrize("command", ["test", "rank", "matched"])
    def test_no_flags_echo_the_library_defaults(self, tmp_path, capsysbinary, command):
        if command == "matched":
            path = tmp_path / "pairs.csv"
            save_csv(make_paired(random_dp_values(substream(2, 2), 60),
                                 random_dp_values(substream(2, 3), 60)), path)
            argv, want = ["test", str(path), "--matched"], {**DEFAULT_ECHO, "scheme": "matched"}
        else:
            argv, want = [command, *_two_sample_files(tmp_path, n=60)], DEFAULT_ECHO
        assert main(argv) == 0
        payload = json.loads(capsysbinary.readouterr().out)
        assert _echo(payload) == list(want.items())
        assert payload["seed"] == TestConfig().seed

    @pytest.mark.parametrize("command", ["test", "rank"])
    def test_every_config_field_has_a_flag(self, tmp_path, capsysbinary, command):
        assert set(GIVEN) == {f.name for f in fields(TestConfig)} - {"threads", "scheme"}
        given, default = TestConfig(**GIVEN), TestConfig()
        assert all(getattr(given, name) != getattr(default, name) for name in GIVEN)
        flags = [token for name, value in GIVEN.items()
                 for token in ("--functional" if name == "kind" else f"--{name}", str(value))]
        fa, fb = _two_sample_files(tmp_path, n=60)
        assert main([command, fa, fb, *flags]) == 0
        assert _echo(json.loads(capsysbinary.readouterr().out)) == list(GIVEN_ECHO.items())


class TestMainRank:
    def test_rank_three_files(self, tmp_path, capsysbinary):
        rng = substream(21, 0)
        paths = []
        for i, name in enumerate("abc"):
            vals = random_dp_values(rng, 400) + float(i)
            path = tmp_path / f"{name}.csv"
            save_csv(make_sample(vals), path)
            paths.append(str(path))
        code = main(["rank", *paths, "--bootstrap", "99", "--grid", "201", "--vgrid", "51"])
        assert code == 0
        payload = json.loads(capsysbinary.readouterr().out)
        assert payload["result"]["labels"] == ["a", "b", "c"]
        assert payload["result"]["relation"][0][1] == "<"
        assert payload["result"]["relation"][0][2] == "<"
        assert payload["result"]["relation"][1][2] == "<"

    def test_rank_text_glyphs(self, tmp_path, capsysbinary):
        fa, fb = _two_sample_files(tmp_path, shift=1.5)
        code = main(["rank", fa, fb, "--bootstrap", "99", "--grid", "201",
                     "--vgrid", "51", "--format", "text"])
        assert code == 0
        out = capsysbinary.readouterr().out.decode()
        assert "<" in out

    def test_rank_reports_reproducible(self, tmp_path, capsysbinary):
        # The report is a pure function of (data, config, seed): reruns
        # agree byte for byte apart from the wall time.
        rng = substream(22, 0)
        paths = []
        for i, name in enumerate("abc"):
            path = tmp_path / f"{name}.csv"
            save_csv(make_sample(random_dp_values(rng, 150 + 10 * i) + 0.05 * i), path)
            paths.append(str(path))
        reports = []
        for threads in ("1", "1", None):
            flags = [] if threads is None else ["--threads", threads]
            code = main(["rank", *paths, "--bootstrap", "49", "--grid", "101", "--vgrid", "21",
                         "--seed", "5", *flags])
            assert code == 0
            out = capsysbinary.readouterr().out
            reports.append(re.sub(rb'"elapsed_ms": [0-9.eE+-]+', b'"elapsed_ms": 0', out))
        assert reports[0] == reports[1] == reports[2]
        assert json.loads(reports[0])["command"] == "rank"

    def test_csv_labels_round_trip(self, tmp_path, capsysbinary):
        # Stems with a comma or a quote are quoted, so every line keeps one
        # field per column; plain stems are written as they are.
        rng = substream(24, 0)
        labels = ["a,b", 'say "hi"', "c"]
        paths = []
        for i, label in enumerate(labels):
            path = tmp_path / f"{label}.csv"
            save_csv(make_sample(random_dp_values(rng, 150) + 0.5 * i), path)
            paths.append(str(path))
        flags = ["--bootstrap", "49", "--grid", "101", "--vgrid", "21", "--seed", "3"]
        reports = {}
        for fmt in ("json", "csv"):
            assert main(["rank", *paths, *flags, "--format", fmt]) == 0
            reports[fmt] = capsysbinary.readouterr().out.decode()
        relation = json.loads(reports["json"])["result"]["relation"]
        table = list(csv.reader(reports["csv"].splitlines()))
        assert table[0] == ["", *labels]
        assert [row[0] for row in table[1:]] == labels
        assert [row[1:] for row in table[1:]] == relation
        assert "<" in relation[0] + relation[1]
        assert reports["csv"].splitlines()[3] == "c,,,"

    def test_overflowing_data_is_data_error(self, tmp_path):
        rng = substream(23, 0)
        paths = []
        for name in "ab":
            path = tmp_path / f"{name}.csv"
            save_csv(make_sample(random_dp_values(rng, 60) * 1e300), path)
            paths.append(str(path))
        assert main(["rank", *paths, "--bootstrap", "19"]) == 2
        assert main(["test", *paths, "--bootstrap", "19"]) == 2

    def test_rank_needs_two(self, tmp_path):
        fa, _ = _two_sample_files(tmp_path)
        assert main(["rank", fa]) == 3


SPEC_TEXT = """
# tiny smoke design
mode = warpspeed
replications = 8
n = 60
tau = 2 inf
functional = sup int
direction = up
dgp1.alpha = 3
dgp1.beta = 2
dgp2 = same
seed = 4
grid = 101
vgrid = 26
"""


# Every key the spec parser reads except 'dgp2', which SPEC_TEXT uses.
FULL_SPEC_TEXT = """
mode = warpspeed
replications = 6
seed = 4
m = 4
alpha = 0.1
xi = 0.002
eta = 0
grid = 101
vgrid = 26
bootstrap = 49
n = 50
direction = up down
functional = int
tau = 2 inf
dgp1.alpha = 3
dgp1.beta = 2
dgp1.scale = 1
dgp2.alpha = 3 4
dgp2.beta = 2.5
dgp2.scale = 1.5
"""


def _spec_with(line: str) -> str:
    """SPEC_TEXT with ``line`` in place of the line of its key, or added."""
    key = line.split("=")[0].strip()
    kept = [old for old in SPEC_TEXT.splitlines() if old.split("=")[0].strip() != key]
    return "\n".join([*kept, line]) + "\n"


class TestMainSimulate:
    def test_spec_file(self, tmp_path, capsysbinary):
        path = tmp_path / "design.sim"
        path.write_text(SPEC_TEXT, encoding="utf-8")
        code = main(["simulate", "--spec", str(path)])
        assert code == 0
        payload = json.loads(capsysbinary.readouterr().out)
        cells = payload["result"]["cells"]
        assert len(cells) == 4  # 2 functionals x 2 taus
        for cell in cells:
            assert 0.0 <= cell["rejection_rate"] <= 1.0
            assert cell["replications"] == 8

    def test_spec_csv_layout(self, tmp_path, capsysbinary):
        path = tmp_path / "design.sim"
        path.write_text(SPEC_TEXT, encoding="utf-8")
        code = main(["simulate", "--spec", str(path), "--format", "csv"])
        assert code == 0
        out = capsysbinary.readouterr().out.decode()
        assert "tau\\beta" in out
        assert "# functional=sup,direction=up,alpha=3.0" in out

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_table_keeps_every_cell(self, tmp_path, capsysbinary, monkeypatch, fmt):
        # Rows are the bandwidths and columns the second law's beta, so the
        # two sizes would share each slot: the size enters the blocks' header.
        path = tmp_path / "design.sim"
        path.write_text("n = 60 90\ntau = 1 inf\ndgp2.beta = 2 2.5\n", encoding="utf-8")
        monkeypatch.setattr(cli, "run_table", lambda specs: [
            SimResult(s, k / 8, k, 0.0) for k, s in enumerate(specs)])
        assert main(["simulate", "--spec", str(path)]) == 0
        cells = json.loads(capsysbinary.readouterr().out)["result"]["cells"]
        assert len(cells) == 8
        assert main(["simulate", "--spec", str(path), "--format", fmt]) == 0
        table, head = {}, None
        for line in capsysbinary.readouterr().out.decode().splitlines():
            if line.startswith("# "):
                head = dict(field.split("=") for field in line[2:].split(","))
            elif line.startswith("tau\\beta,"):
                betas = line.split(",")[1:]
            elif head is not None and "," in line:
                tau, *rates = line.split(",")
                for beta, rate in zip(betas, rates):
                    table[head.get("n1"), tau, beta] = float(rate)
        assert table == {(str(c["n1"]), str(c["tau"]), str(c["dgp2"]["beta"])):
                         c["rejection_rate"] for c in cells}

    def test_needs_spec_or_preset(self):
        assert main(["simulate"]) == 3

    def test_no_threads_flag(self, tmp_path):
        # The simulation harness runs on one thread; the flag was never read.
        path = tmp_path / "design.sim"
        path.write_text(SPEC_TEXT, encoding="utf-8")
        assert main(["simulate", "--spec", str(path), "--threads", "2"]) == 3

    @pytest.mark.parametrize("text", [SPEC_TEXT.lstrip(), SPEC_TEXT.split("\n", 2)[2]],
                             ids=["comment-first", "key-first"])
    def test_bom_spec_file(self, tmp_path, capsysbinary, text):
        path = tmp_path / "design.sim"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["simulate", "--spec", str(path)]) == 0
        assert len(json.loads(capsysbinary.readouterr().out)["result"]["cells"]) == 4

    def test_not_utf8_spec_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "design.sim"
        path.write_bytes(SPEC_TEXT.encode().replace(b"replications", b"replic\xffations"))
        assert main(["simulate", "--spec", str(path)]) == 2
        assert f"{path} is not UTF-8 text" in capsys.readouterr().err

    def test_reports_do_not_depend_on_chunk_size(self, tmp_path, monkeypatch):
        # Warp speed stacks a chunk of replications into one core call; the
        # report is byte-identical (wall time aside) in one-row chunks and
        # in chunks of two rows, which split three replications unevenly.
        # A chunk of D rows takes D * 5 (n + G) cells of twice the block
        # budget, so a block budget of 5 (n + G) gives two rows at n = 2000
        # and G = 1001.
        from isdtest import inference, montecarlo

        payloads = []
        for block_cells, rows in ((None, 3), (1, 1), (5 * (2000 + 1001), 2)):
            if block_cells is not None:
                monkeypatch.setattr(inference, "_BLOCK_CELLS", block_cells)
            assert min(montecarlo._chunk_rows(2000, 1001), 3) == rows
            out = tmp_path / "report.json"
            assert main(["simulate", "--preset", "power_up", "--replications", "3",
                         "--seed", "12", "--output", str(out)]) == 0
            payloads.append(re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0',
                                   out.read_text()))
        assert payloads[0] == payloads[1] == payloads[2]

    def test_preset_gets_only_given_flags(self, tmp_path, capsysbinary, monkeypatch):
        # preset_specs owns its defaults; the command passes on what it was given.
        path = tmp_path / "design.sim"
        path.write_text(SPEC_TEXT, encoding="utf-8")
        small = cli._specs_from_file(str(path), {})[:1]
        calls = []

        def recorded(name, **kwargs):
            calls.append((name, kwargs))
            return small

        monkeypatch.setattr(cli, "preset_specs", recorded)
        for flags in ([], ["--seed", "9"], ["--replications", "3", "--seed", "0"]):
            assert main(["simulate", "--preset", "size_up", *flags]) == 0
            capsysbinary.readouterr()
        assert calls == [("size_up", {}), ("size_up", {"seed": 9}),
                         ("size_up", {"seed": 0, "replications": 3})]

    @pytest.mark.parametrize("name", ["table1", "nope"])
    def test_unknown_preset_is_config_error(self, capsys, name):
        assert main(["simulate", "--preset", name, "--replications", "1"]) == 3
        assert f"unknown preset {name!r}" in capsys.readouterr().err

    def test_spec_without_scalar_keys_echoes_the_library_defaults(self, tmp_path,
                                                                  capsysbinary, monkeypatch):
        # Only the cells' axes are given; the run is stubbed, as only the echo is checked.
        path = tmp_path / "design.sim"
        path.write_text("n = 60\ntau = 2 inf\ndgp2 = same\n", encoding="utf-8")
        monkeypatch.setattr(cli, "run_table",
                            lambda specs: [SimResult(s, 0.0, 0, 0.0) for s in specs])
        assert main(["simulate", "--spec", str(path)]) == 0
        payload = json.loads(capsysbinary.readouterr().out)
        axes = ("direction", "functional", "tau")
        assert _echo(payload) == [(k, v) for k, v in DEFAULT_ECHO.items() if k not in axes]
        assert payload["seed"] == TestConfig().seed
        defaults = {f.name: f.default for f in fields(SimSpec)}
        for cell in payload["result"]["cells"]:
            assert cell["mode"] == defaults["mode"].value
            assert cell["replications"] == defaults["replications"]

    @pytest.mark.parametrize("text, varying", [(SPEC_TEXT, {"functional", "tau"}),
                                               (FULL_SPEC_TEXT, {"direction", "tau"})],
                             ids=["spec", "full-spec"])
    def test_cells_axes_are_echoed_by_the_cells_only(self, tmp_path, capsysbinary, text,
                                                     varying):
        # Cells may differ in direction, functional and tau, so the
        # top-level config leaves them out and every cell reports its own.
        path = tmp_path / "design.sim"
        path.write_text(text, encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 0
        payload = json.loads(capsysbinary.readouterr().out)
        cells = payload["result"]["cells"]
        for key in ("direction", "functional", "tau"):
            assert key not in payload["config"]
            assert len({cell[key] for cell in cells}) == (2 if key in varying else 1)
        assert payload["config"]["seed"] == payload["seed"] == 4

    @pytest.mark.parametrize("line, value", [
        ("tau = 1 1", "1.0"), ("tau = 2 inf 2.0", "2.0"), ("tau = inf inf", "inf"),
        ("n = 60 60", "60"), ("direction = up down up", "'up'"),
        ("functional = int int", "'int'"), ("dgp1.alpha = 3 3", "3.0"),
    ])
    def test_repeated_axis_value_is_config_error(self, tmp_path, capsys, line, value):
        # A value listed twice would run its cells twice.
        path = tmp_path / "design.sim"
        path.write_text(_spec_with(line), encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 3
        key = line.split("=")[0].strip()
        assert f"spec key {key!r} lists the value {value} twice" in capsys.readouterr().err

    def test_missing_spec_file(self, tmp_path):
        assert main(["simulate", "--spec", str(tmp_path / "none.sim")]) == 2

    def test_bad_spec_line(self, tmp_path):
        path = tmp_path / "bad.sim"
        path.write_text("just nonsense\n", encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 2

    @pytest.mark.parametrize("line", [
        "direction = sideways", "functional = max", "mode = turbo",
        "m = three", "grid = 10.5", "vgrid = many", "bootstrap = 1e3",
        "replications = some", "seed = x", "n = 60.5", "dgp2 =", "dgp2 = sme",
        "dgp1.alpha = inf",
    ])
    def test_malformed_spec_value_is_config_error(self, tmp_path, capsys, line):
        path = tmp_path / "design.sim"
        path.write_text(_spec_with(line), encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 3
        assert "given twice" not in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["tau = inf", "TAU = 1", "dgp2 = same"])
    def test_repeated_spec_key_is_config_error(self, tmp_path, capsys, line):
        # SPEC_TEXT gives tau on line 6 and dgp2 on line 11; a repeat, in any
        # case, is an error rather than the last line winning.
        path = tmp_path / "design.sim"
        path.write_text(SPEC_TEXT + line + "\n", encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 3
        first = 6 if line.lower().startswith("tau") else 11
        key = line.split("=")[0].strip().lower()
        assert (f"spec key {key!r} is given twice, on lines {first} and 15"
                in capsys.readouterr().err)

    def test_unknown_functional_names_the_spec_key(self, tmp_path, capsys):
        path = tmp_path / "design.sim"
        path.write_text(_spec_with("functional = sup max"), encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 3
        err = capsys.readouterr().err
        assert "config error: spec key 'functional' must be one of sup, int, got 'max'" in err
        assert "kind" not in err

    @pytest.mark.parametrize("line", [
        "functionl = int", "replication = 8", "dgp3.alpha = 2", "threads = 2",
        "dgp2.alpha = 4",  # conflicts with SPEC_TEXT's 'dgp2 = same'
    ])
    def test_unknown_spec_key_is_config_error(self, tmp_path, capsys, line):
        path = tmp_path / "design.sim"
        path.write_text(SPEC_TEXT + line + "\n", encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 3
        assert line.split("=")[0].strip() in capsys.readouterr().err

    def test_every_spec_key_runs(self, tmp_path, capsysbinary):
        path = tmp_path / "design.sim"
        path.write_text(FULL_SPEC_TEXT, encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 0
        payload = json.loads(capsysbinary.readouterr().out)
        cells = payload["result"]["cells"]
        assert len(cells) == 8  # 2 taus x 2 second-law shapes x 2 directions
        assert payload["seed"] == 4 and payload["config"]["m"] == 4
        assert {(c["direction"], c["functional"], c["dgp2"]["alpha"]) for c in cells} == {
            (d, "int", a) for d in ("up", "down") for a in (3.0, 4.0)}

    def test_spec_seed_used_unless_overridden(self, tmp_path, capsysbinary):
        path = tmp_path / "design.sim"
        path.write_text(SPEC_TEXT, encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 0
        assert json.loads(capsysbinary.readouterr().out)["seed"] == 4
        assert main(["simulate", "--spec", str(path), "--seed", "9"]) == 0
        assert json.loads(capsysbinary.readouterr().out)["seed"] == 9

    @pytest.mark.filterwarnings("ignore:upper-tail shape")
    def test_zero_replications_is_config_error(self, tmp_path):
        path = tmp_path / "design.sim"
        path.write_text(SPEC_TEXT, encoding="utf-8")
        assert main(["simulate", "--spec", str(path), "--replications", "0"]) == 3
        assert main(["simulate", "--preset", "size_up", "--replications", "0"]) == 3

import json
import re

import numpy as np
import pytest

from isdtest import DataError, PairedSample, make_paired, make_sample, substream
from isdtest.cli import Report, emit_report, load_csv, main, save_csv

from conftest import random_dp_values


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_single_column(self, tmp_path):
        s = load_csv(write(tmp_path, "a.csv", "1\n2\n3\n"))
        assert list(s.values) == [1.0, 2.0, 3.0]

    def test_header_skipped(self, tmp_path):
        s = load_csv(write(tmp_path, "a.csv", "income\n1\n2\n"))
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

    def test_infinite_tau(self, tmp_path, capsysbinary):
        fa, fb = _two_sample_files(tmp_path)
        code = main(["test", fa, fb, "--tau", "inf", "--bootstrap", "49",
                     "--grid", "101", "--vgrid", "26"])
        assert code == 0
        payload = json.loads(capsysbinary.readouterr().out)
        assert payload["config"]["tau"] == "inf"
        assert payload["result"]["contact_fraction"] == 1.0


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
        # The report is a pure function of (data, config, seed): reruns and
        # thread counts agree byte for byte apart from the wall time.
        rng = substream(22, 0)
        paths = []
        for i, name in enumerate("abc"):
            path = tmp_path / f"{name}.csv"
            save_csv(make_sample(random_dp_values(rng, 150 + 10 * i) + 0.05 * i), path)
            paths.append(str(path))
        reports = []
        for threads in ("1", "1", "2"):
            code = main(["rank", *paths, "--bootstrap", "49", "--grid", "101", "--vgrid", "21",
                         "--seed", "5", "--threads", threads])
            assert code == 0
            out = capsysbinary.readouterr().out
            reports.append(re.sub(rb'"elapsed_ms": [0-9.eE+-]+', b'"elapsed_ms": 0', out))
        assert reports[0] == reports[1] == reports[2]
        assert json.loads(reports[0])["command"] == "rank"

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

    def test_needs_spec_or_preset(self):
        assert main(["simulate"]) == 3

    def test_no_threads_flag(self, tmp_path):
        # The simulation harness runs on one thread; the flag was never read.
        path = tmp_path / "design.sim"
        path.write_text(SPEC_TEXT, encoding="utf-8")
        assert main(["simulate", "--spec", str(path), "--threads", "2"]) == 3

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
    def test_malformed_spec_value_is_config_error(self, tmp_path, line):
        # A later line overrides the same key of SPEC_TEXT.
        path = tmp_path / "design.sim"
        path.write_text(SPEC_TEXT + line + "\n", encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 3

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

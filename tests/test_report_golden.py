"""One digest per command and format of the command line's reports,
recorded from a known-good build: any change to a report's bytes, its
wall time aside, fails here.  The data are built as in
``test_golden_results``: scaled uniforms, a simulated law whose quantile
powers are 1 and -1 and degrees whose powers are squares at most, so the
bits do not hang on a host's SIMD dispatch.  The preset reports pin the
layout of the shipped designs' cells, not their rates: ``run_table`` is
stubbed with a distinct rate per cell, as the presets' laws would draw
through non-trivial powers."""

import hashlib
import re

import numpy as np
import pytest

from isdtest import SimResult, make_paired, make_sample
from isdtest import cli

from conftest import save_csv

SMALL = ["--bootstrap", "19", "--grid", "101", "--vgrid", "11", "--seed", "21"]

SPEC_TEXT = """
mode = warpspeed
replications = 12
seed = 21
m = 4
grid = 101
vgrid = 11
bootstrap = 19
n = 60
direction = up down
functional = sup int
tau = 1 inf
dgp1.alpha = 1
dgp1.beta = 1
dgp2.alpha = 1
dgp2.beta = 1
dgp2.scale = 2
"""

PRESETS = ("size_up", "size_down", "power_up", "power_down")
COMMANDS = ("test", "test --matched", "rank", "simulate --spec",
            *(f"simulate --preset {name}" for name in PRESETS))
FORMATS = ("json", "csv", "text")

DIGESTS = {
    ("test", "json"):
        "b74028988056b1743f8291684ee20bee9062990153f1bbb3449bc52bb6b244b5",
    ("test", "csv"):
        "288e0b331486c597b74a9d0e1a8f3f0bc03d7031a3154932716fd77181589dda",
    ("test", "text"):
        "ba4ef67c061cb0791a71dca9e77e9081910b7de46275e7218b446740804aa741",
    ("test --matched", "json"):
        "300f5c107bc8e0e05fe8ba5e8ab84e42945d6a9aa5c5f73a985f9f8cfe1868ef",
    ("test --matched", "csv"):
        "8d6d260f83d071a0e46c0b092315e386b87f75a1d1d76d3690b2f971228fc331",
    ("test --matched", "text"):
        "40b4c2a2214690bfe2763a5669c42d07dd94c4f50657f22dd8aeca0e9eb22c15",
    ("rank", "json"):
        "f55c403b0b08e3e2d06a78bc17e87f6b737491261b362e74e9917c795ee53858",
    ("rank", "csv"):
        "8ea00b946e715cc9d2da52586f069856a24c2a70bcbe08d2ebb344bf3223ebfb",
    ("rank", "text"):
        "2558a8f813079707b5705b4a49ea9c983562154b2ae15d7fb9d2c78913b86dc8",
    ("simulate --spec", "json"):
        "d330c9158d1660c7bbe0a74d04b0b0b0bc4e21603b7991854ab69f336db1cd65",
    ("simulate --spec", "csv"):
        "161a86be496b9c621b94fc24194b42e01fc3ea5af896d7a7131ecc9b62b8bf89",
    ("simulate --spec", "text"):
        "f2fd5e0a42b72c0d031f05698d102a04e463c8b10d769750316c50d0c39d8833",
    ("simulate --preset size_up", "json"):
        "2dee392557e9e4288083c585bb253103431dc9772c0fd793abbb812df4c70b74",
    ("simulate --preset size_up", "csv"):
        "66117b822a17e180e3001d23abbcb3946c715071668d9219cf2633c5366a1bc7",
    ("simulate --preset size_up", "text"):
        "27eaad4ec0d855a3084f9c335cf3fb95c81b44fe74a544993b20502ff4f34e01",
    ("simulate --preset size_down", "json"):
        "8e52389d333523293b811b6b82976b07485e63531cc582322ff4570e27263c53",
    ("simulate --preset size_down", "csv"):
        "5c3ec3fb49bbf940367d77570a6e108b589b40144d224e177955113aaf39f9b2",
    ("simulate --preset size_down", "text"):
        "ba075d70a23cf2a0b7362a9e981b85dd295b8e89bbd62ecdb323ea2e5068176e",
    ("simulate --preset power_up", "json"):
        "0ca6559fe6e0cc3e8a2ecd0cf8d65990f37e3ae46b031f531b6f3b10f4009cfb",
    ("simulate --preset power_up", "csv"):
        "8dad06397190f6a4decfd01f57f8b63bffa756d215a90a97b849c7987ee309ad",
    ("simulate --preset power_up", "text"):
        "c7b6d65be7c40514d7f3c519ddb6837306ddfbd7646bb78bcde6edb0dc54faa3",
    ("simulate --preset power_down", "json"):
        "dfc45f63fae0894cddb095b51d69d5b80ec10c22f260d8821b250ba6a7980efd",
    ("simulate --preset power_down", "csv"):
        "cc9b756a62484f04407f465d71a893fa697fff3cb4506cb61aefbd8c26a32646",
    ("simulate --preset power_down", "text"):
        "b49dd66683a3c5ba44e8babdde7b7166b356ca26158254ffcc0aff242c3595c4",
}

# The wall time of a JSON, test CSV or text report, zeroed before hashing.
_ELAPSED = re.compile(rb'("elapsed_ms": |^elapsed_ms,|^elapsed )[0-9.eE+-]+', re.M)


def _argv(command: str, root) -> list:
    rng = np.random.default_rng(2024)
    files = {name: root / f"{name}.csv" for name in ("a", "b", "c", "pairs")}
    save_csv(make_sample(8.0 * rng.random(60)), files["a"])
    save_csv(make_sample(8.0 * rng.random(80)), files["b"])
    save_csv(make_sample(3.0 + 16.0 * rng.random(70)), files["c"])
    x = 8.0 * rng.random(50)
    save_csv(make_paired(x, 1.5 * x + rng.random(50)), files["pairs"])
    spec = root / "design.sim"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    a, b, c, pairs = (str(path) for path in files.values())
    return {
        "test": ["test", a, b, *SMALL],
        "test --matched": ["test", pairs, "--matched", "--direction", "down",
                           "--functional", "int", *SMALL],
        "rank": ["rank", a, b, c, "--m", "4", "--tau", "inf", *SMALL],
        "simulate --spec": ["simulate", "--spec", str(spec)],
    }.get(command) or command.split()


def report_bytes(command: str, fmt: str, root, monkeypatch) -> bytes:
    """The report of ``command`` in ``fmt``, its wall time zeroed."""
    if "--preset" in command:
        monkeypatch.setattr(cli, "run_table", lambda specs: [
            SimResult(s, k / len(specs), k, 1.0 + k / 8) for k, s in enumerate(specs)])
    out = root / f"report.{fmt}"
    assert cli.main([*_argv(command, root), "--format", fmt, "--output", str(out)]) == 0
    return _ELAPSED.sub(rb"\g<1>0", out.read_bytes())


@pytest.mark.filterwarnings("ignore:upper-tail shape")
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_report_digest(tmp_path, monkeypatch, command, fmt):
    payload = report_bytes(command, fmt, tmp_path, monkeypatch)
    assert hashlib.sha256(payload).hexdigest() == DIGESTS[command, fmt]

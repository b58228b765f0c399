"""Golden outputs: the CLI's JSON on checked-in inputs, byte for byte.

`tests/golden/NAME.skel` is analyzed with `--json` (and with
`--orientation-sweep` when NAME starts with `sweep_`); the expected stdout
is `tests/golden/NAME.json`.  The inputs cover trivalent skeletons of
genus 0 and 1, loop-decorated chain trees, one spliced fiber of each
exceptional kind, a 6-valent vertex and two orientation sweeps.
`COMMANDS` pins whole commands the same way, against `NAME.json` with
`--json` and `NAME.txt` without.
"""

from pathlib import Path

import pytest

from ellskel.cli import main

GOLDEN = Path(__file__).parent / "golden"
SKEL_FILES = sorted(p.stem for p in GOLDEN.glob("*.skel"))
COMMANDS = {
    "enumerate_4": ["enumerate", "4", "--json"],
    "enumerate_4_dedup": ["enumerate", "4", "--dedup", "--json"],
    "verify_series_all_s2": ["verify-series", "all", "--s-max", "2", "--json"],
    "enumerate_4_text": ["enumerate", "4"],
    "enumerate_4_dedup_text": ["enumerate", "4", "--dedup"],
    "verify_series_all_s2_text": ["verify-series", "all", "--s-max", "2"],
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_fixture_set():
    assert len(SKEL_FILES) >= 30
    assert sum(name.startswith("sweep_") for name in SKEL_FILES) == 2


@pytest.mark.parametrize("name", SKEL_FILES)
def test_analyze_golden(name, capsys):
    argv = ["analyze", str(GOLDEN / f"{name}.skel"), "--json"]
    if name.startswith("sweep_"):
        argv.append("--orientation-sweep")
    assert run(capsys, argv) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_golden(name, capsys):
    suffix = ".json" if "--json" in COMMANDS[name] else ".txt"
    assert run(capsys, COMMANDS[name]) == (GOLDEN / f"{name}{suffix}").read_text()

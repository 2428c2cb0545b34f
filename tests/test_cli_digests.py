"""Golden digests of the command line: every pinned verb prints byte-identical output.

Each case runs one verb in-process and pins the sha256 of its stdout
together with its exit code, in text and in --json form:

* invert (fixedpoint, trees, both), check and zfun on each catalog fixture;
* trees for d = 2, 3 and V = 0..3, with and without --enumerate;
* catalog, the list and every --name.

verify-theorem1 is left out: its floats come from the platform's libm.
A change meant to keep every output rewrites no digest; a change meant
to alter one regenerates the table with

    PYTHONPATH=src python3 tests/test_cli_digests.py > tests/cli_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from treeinv import cli
from treeinv.catalog import catalog_names, get_fixture
from treeinv.mapfile import save_map

DIGESTS = Path(__file__).with_name("cli_digests.json")


def _cases() -> list[tuple[str, list[str]]]:
    """(label, argv) per pinned run; "{map}" stands for the fixture's map file."""
    cases = []
    for name in catalog_names():
        for verb in (["invert", "--method", "fixedpoint"], ["invert", "--method", "trees"],
                     ["invert", "--method", "both"], ["check"], ["zfun"]):
            cases.append((f"{name} {' '.join(verb)}", [*verb, "--map", "{map}"]))
    for d in (2, 3):
        for V in range(4):
            argv = ["trees", "--d", str(d), "--internal", str(V)]
            cases.append((" ".join(argv), argv))
            cases.append((" ".join(argv) + " --enumerate", [*argv, "--enumerate"]))
    cases.append(("catalog", ["catalog"]))
    cases += [(f"catalog --name {name}", ["catalog", "--name", name]) for name in catalog_names()]
    return [(label + suffix, argv + extra)
            for label, argv in cases for suffix, extra in (("", []), (" --json", ["--json"]))]


def _digests(directory: Path) -> dict[str, str]:
    """{label: "<exit code> <sha256 of stdout>"} for every case, map files written to directory."""
    paths = {}
    for name in catalog_names():
        paths[name] = directory / f"{name}.map"
        save_map(get_fixture(name), paths[name])
    out = {}
    for label, argv in _cases():
        fixture = label.split(" ", 1)[0]
        argv = [str(paths[fixture]) if a == "{map}" else a for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        out[label] = f"{code} {hashlib.sha256(buf.getvalue().encode()).hexdigest()}"
    return out


def test_cli_outputs_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = _digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [label for label in expected if got[label] != expected[label]]
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(_digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
    print()

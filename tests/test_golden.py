"""Golden artifacts: every file the cli benchmark workload writes, pinned byte for byte.

Each run below is made in-process through ``cli.main`` at seed 1 and compared
with the committed copy under ``tests/golden/<run>/``. The manifest is left
out, since it carries a timestamp; ``modes`` pins its stdout. ``VERSIONS``
records the numpy and scipy the files were written with.

Rewrite the files after an intended change of output, and list them in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ionkerr import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = "1"
# (run, argv) as in the cli workload; both fits read the scan run's scan.csv
RUNS = (
    ("modes", ["modes"]),
    ("exchange", ["exchange"]),
    ("crossing", ["crossing"]),
    ("shift", ["shift"]),
    ("scan", ["scan", "--shots", "400"]),
    ("fit_thermal", ["fit", "--input", "{scan}", "--family", "thermal"]),
    ("fit_free", ["fit", "--input", "{scan}", "--family", "free"]),
    ("shots", ["shots"]),
    ("walk", ["walk"]),
)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def installed_versions() -> str:
    return f"numpy {np.__version__}\nscipy {scipy.__version__}\n"


def regenerate(root: Path) -> dict[str, bytes]:
    """Every pinned artifact, by path relative to ``root``."""
    scan_csv = str(root / "scan" / "scan.csv")
    files = {}
    for run, argv in RUNS:
        out = root / run
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([a.format(scan=scan_csv) for a in argv] + ["--seed", SEED, "--out", str(out)])
        assert code == 0, f"{run} exited {code}"
        if run == "modes":
            files["modes/stdout.txt"] = stdout.getvalue().encode()
            continue
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                files[f"{run}/{path.name}"] = path.read_bytes()
    return files


def largest_difference(want: bytes, got: bytes) -> str:
    """The largest absolute difference between corresponding numbers, when
    the two files differ only in their numbers."""
    want_text, got_text = want.decode(), got.decode()
    if NUMBER.sub("#", want_text) != NUMBER.sub("#", got_text):
        return "the text outside the numbers differs"
    pairs = zip(NUMBER.findall(want_text), NUMBER.findall(got_text))
    return f"largest numeric difference {max(abs(float(a) - float(b)) for a, b in pairs):.3g}"


def test_cli_artifacts_match_golden_files(tmp_path):
    got = regenerate(tmp_path)
    want = {str(p.relative_to(GOLDEN)): p.read_bytes() for p in GOLDEN.glob("*/*")}
    assert sorted(got) == sorted(want)
    mismatches = [f"{name}: {largest_difference(want[name], got[name])}" for name in want if got[name] != want[name]]
    recorded = (GOLDEN / "VERSIONS").read_text()
    if mismatches and recorded != installed_versions():
        mismatches.append(f"the files were written with {recorded!r}; this run has {installed_versions()!r}")
    assert not mismatches, "\n".join(mismatches)


def test_detects_numeric_and_layout_differences():
    assert largest_difference(b"n,p\n0,0.25\n1,1e-3\n", b"n,p\n0,0.25\n1,2e-3\n") == (
        "largest numeric difference 0.001"
    )
    assert "outside the numbers" in largest_difference(b"0 dark 1\n", b"0 bright 0\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        files = regenerate(Path(scratch))
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, body in files.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_bytes(body)
    (GOLDEN / "VERSIONS").write_text(installed_versions())
    print(f"wrote {len(list(GOLDEN.glob('*/*')))} files under {GOLDEN}", file=sys.stderr)

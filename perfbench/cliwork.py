"""The cli workload: one fresh ``python -m ionkerr.cli`` process per op.

Uses only the standard library, so the workload process itself stays small
and its set-up is interpreter start plus the first, untimed invocation.

Output checks return a list of failure classes (empty when the op passed):

- ``exit_code``: the process exited with a code other than 0.
- ``fit_p0_keyerror``: ``fit`` with a parametric family and no ``--p0``
  dies with an uncaught KeyError (exit 1, traceback). The op list runs each
  subcommand at its defaults, so this shows on every cycle.
- ``artifact_parse``: an artifact named in ``manifest.json``, or the
  manifest itself, does not parse.
- ``nondeterministic_csv``: a CSV differs from the same subcommand's CSV
  earlier in the run; every invocation uses the run's seed.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

# (label, argv after the subcommand's common options); fit reads the scan
# written by the untimed set-up invocation.
OPS = (
    ("modes", ["modes"]),
    ("exchange", ["exchange"]),
    ("crossing", ["crossing"]),
    ("shift", ["shift"]),
    ("scan", ["scan", "--shots", "400"]),
    ("fit_thermal", ["fit", "--input", "{fit_input}", "--family", "thermal"]),
    ("fit_free", ["fit", "--input", "{fit_input}", "--family", "free"]),
    ("shots", ["shots"]),
    ("walk", ["walk"]),
)
SETUP_OP = ("setup_scan", ["scan", "--shots", "400"])


class Cli:
    name = "cli"
    NOMINAL_CYCLE_S = 5.0  # see inproc.py

    def __init__(self, seed: int, workdir: Path, src: Path, launcher: list[str] | None = None):
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
        )
        self.launcher = launcher or [sys.executable, "-m", "ionkerr.cli"]
        self.fit_input = workdir / SETUP_OP[0] / "scan.csv"
        self._first_csv: dict[tuple[str, str], bytes] = {}

    def warmup(self):
        return SETUP_OP

    def cycle(self, k: int):
        return OPS

    def argv(self, case) -> list[str]:
        label, args = case
        out = self.workdir / label
        args = [a.format(fit_input=self.fit_input) for a in args]
        return self.launcher + args + ["--seed", str(self.seed), "--out", str(out)]

    def run_op(self, case, launcher_env: dict | None = None):
        env = dict(self.env, **(launcher_env or {}))
        return subprocess.run(self.argv(case), env=env, capture_output=True, text=True)

    def check(self, case, proc) -> list[str]:
        label, args = case
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            if args[0] == "fit" and last[0].startswith("KeyError"):
                return ["fit_p0_keyerror"]
            return ["exit_code"]
        if label == "modes":
            return [] if "xi/2pi" in proc.stdout else ["artifact_parse"]
        out = self.workdir / label
        failures = []
        try:
            manifest = json.loads((out / "manifest.json").read_text())
            for name in manifest["outputs"]:
                body = (out / name).read_bytes()
                if name.endswith(".json"):
                    json.loads(body)
                elif name.endswith(".csv"):
                    rows = list(csv.reader(io.StringIO(body.decode())))
                    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
                        raise ValueError(f"{name}: ragged or empty table")
                    key = (label.removeprefix("setup_"), name)
                    first = self._first_csv.setdefault(key, body)
                    if body != first:
                        failures.append("nondeterministic_csv")
                else:
                    for line in body.decode().splitlines():
                        if len(line.split()) != 3:
                            raise ValueError(f"{name}: malformed line {line!r}")
        except (OSError, ValueError, KeyError):  # JSONDecodeError is a ValueError
            failures.append("artifact_parse")
        return failures

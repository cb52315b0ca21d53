"""Mutation check: each mutant below must make the tests listed with it fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

A mutant is one exact text replacement in one file.  Each is applied to a
fresh copy of the whole tree (``pyproject.toml`` puts the checkout's
``src`` on pytest's path whatever ``PYTHONPATH`` says, so a copy of
``src`` alone would test the unmutated code), and ``pytest -x`` runs its
tests there.  The runner checks that the old text occurs exactly once and
that the tests imported ``afrob`` from the copy.  It exits nonzero if any
mutant survives.  A run that exceeds the timeout counts as killed: the
mutant made the tests hang.  Standard library only; pytest does not
collect this file.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900

# loaded into the mutant's pytest run with -p; records where afrob came from
_PROBE = '''\
import sys
from pathlib import Path


def pytest_sessionfinish(session):
    module = sys.modules.get("afrob")
    if module is not None:
        Path(__file__).with_suffix(".out").write_text(module.__file__)
'''


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "core-unanswered-unmasked",
        "src/afrob/semantics.py",
        "            unanswered = core & ~attacked\n",
        "            unanswered = (1 << len(targets)) - 1 & ~attacked\n",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "self-defense-tables-swapped",
        "src/afrob/invariance.py",
        "def _self_defense_row(odd: tuple[int, ...], reverse_odd: tuple[int, ...], a: int)",
        "def _self_defense_row(reverse_odd: tuple[int, ...], odd: tuple[int, ...], a: int)",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "reinstating-row-is-out",
        "src/afrob/invariance.py",
        "row = threat | _defending_undec(",
        "row = out | _defending_undec(",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "cf-closed-form-without-self-attackers",
        "src/afrob/invariance.py",
        "else targets[a] | attackers[a] | loops\n",
        "else targets[a] | attackers[a]\n",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "greedy-follows-every-candidate",
        "src/afrob/robustness.py",
        '            if strategy == "greedy":\n                break\n',
        "",
        ("tests/test_robustness.py",),
    ),
    Mutant(
        "adm-gain-without-single-unanswered-check",
        "src/afrob/invariance.py",
        "if unanswered and not unanswered & (unanswered - 1):",
        "if unanswered:",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "stb-cover",
        "src/afrob/semantics.py",
        "for m, d in zip(sets, decided) if d == core)",
        "for m, d in zip(sets, decided))",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "undec-defends-undec-counts-self-attackers",
        "src/afrob/invariance.py",
        "        if not targets[c] >> c & 1:\n            row |= attackers[c]\n",
        "        row |= attackers[c]\n",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "labellings-unsorted",
        "src/afrob/labelling.py",
        "masks = sorted(extension_masks(af, semantics), key=lambda m: tuple(_bits(m)))",
        "masks = extension_masks(af, semantics)",
        ("tests/test_acceptance.py::test_criterion_6_labelling_correspondence",),
    ),
)


def _ignore(directory: str, names: list[str]) -> set[str]:
    """Leave out version control and what test and build runs leave behind."""
    skipped = {".git", "__pycache__", ".pytest_cache", ".hypothesis", "build", ".perfbench_out"}
    return {name for name in names if name in skipped or name.endswith(".egg-info")}


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply ``mutant`` to a copy of the tree and run its tests there;
    return whether they failed and how the run ended."""
    with tempfile.TemporaryDirectory(prefix="afrob-mutant-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        target = copy / mutant.path
        text = target.read_text()
        count = text.count(mutant.old)
        if count != 1:
            raise SystemExit(f"{mutant.name}: the old text occurs {count} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
        # python -m puts the working directory first on sys.path, so the
        # probe is importable from there; pytest adds the copy's src itself
        probe = copy / "afrob_mutant_probe.py"
        probe.write_text(_PROBE)
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-p", probe.stem, *mutant.tests,
        ]
        try:
            result = subprocess.run(
                command, cwd=copy, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
        imported = probe.with_suffix(".out")
        source = Path(imported.read_text()) if imported.exists() else None
        if source is None or not source.resolve().is_relative_to(copy.resolve()):
            raise SystemExit(
                f"{mutant.name}: the tests imported afrob from {source}, not from the copy\n"
                + result.stdout[-2000:]
            )
        lines = result.stdout.strip().splitlines()
        return result.returncode != 0, lines[-1] if lines else f"exit {result.returncode}"


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        started = time.perf_counter()
        killed, summary = run(mutant)
        elapsed = time.perf_counter() - started
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict} {mutant.name} ({elapsed:.1f} s): {summary}", flush=True)
        if not killed:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutants survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

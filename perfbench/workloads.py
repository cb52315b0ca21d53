"""Seeded request streams for the four workloads.

A workload is a list of *rounds*.  Each round walks the same fixed list of
strata (argument count, attack count, command).  The attack structures come
from a fixed corpus generator; the run's seed draws the argument names of
every framework and the audit seeds.  The names are assigned in sorted
order, so the program's canonical (lexicographic) argument order, and with
it the order of its searches, is the same for every seed.  Each seed thus
sends different files with the same amount of work behind them, and runs
with different seeds differ by the machine rather than by the draw.  (With
the seed permuting the argument order instead, the states a greedy
robustness search visits changed with the seed, and single requests took
up to twice as long under one seed as under another.)

Rounds are drawn one after another, so the first rounds of a pool do not
depend on how many rounds the pool holds.  That is what lets
``digests.json`` pin the output of the first rounds for any run length.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass
from pathlib import Path

# the outputs of this many leading rounds are pinned by digests.json
DIGEST_ROUNDS = 2

# every run sends at least this many distinct requests, so that the 90th
# percentile has at least ten samples beyond it
MIN_REQUESTS = 100

SEMANTICS = ("cf", "adm", "com", "stb", "prf", "gde", "sst")
LABELLING_SEMANTICS = ("com", "prf", "sst")


@dataclass(frozen=True)
class Framework:
    """A generated framework: argument names and attack pairs."""

    key: str
    args: tuple[str, ...]
    attacks: frozenset[tuple[str, str]]

    def apx(self) -> str:
        lines = [f"arg({a})." for a in self.args]
        lines += [f"att({s},{t})." for s, t in sorted(self.attacks)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``argv`` names its input as ``{input}``; ``check``
    says whether the reference check runs on this request's output."""

    index: int
    round: int
    kind: str
    argv: tuple[str, ...]
    framework: Framework | None
    check: bool

    def command(self, input_dir: Path) -> list[str]:
        path = str(input_dir / f"{self.framework.key}.apx") if self.framework else ""
        return [path if part == "{input}" else part for part in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    # seconds one round took at the commit that defined the benchmark; it
    # sizes the run, so the amount of work is fixed and a faster program
    # finishes sooner
    round_s: float
    build_round: object

    def rounds(self, seconds: float) -> int:
        """Rounds that took ``seconds`` at the defining commit, and at least
        enough rounds for ``MIN_REQUESTS`` requests."""
        probe = _Draw(random.Random(0), random.Random(0), random.Random(0))
        per_round = len(list(self.build_round(probe, 0)))
        return max(round(seconds / self.round_s), math.ceil(MIN_REQUESTS / per_round))

    def pool(self, seed: int, rounds: int) -> list[Request]:
        """The first ``rounds`` rounds, and at least the pinned ones."""
        draw = _Draw(
            corpus=random.Random(f"{self.name}:corpus"),
            rng=random.Random(f"{self.name}:{seed}"),
            # a separate generator picks the checked sample, so the sample
            # can change without changing the inputs (and their digests)
            pick=random.Random(f"{self.name}:check:{seed}"),
        )
        requests: list[Request] = []
        for r in range(max(rounds, DIGEST_ROUNDS)):
            for kind, argv, fw, check in self.build_round(draw, r):
                requests.append(Request(len(requests), r, kind, tuple(argv), fw, check))
        return requests


_JSON = ("--format", "json", "--jobs", "1")


@dataclass(frozen=True)
class _Draw:
    corpus: random.Random
    rng: random.Random
    pick: random.Random

    def _names(self, n: int) -> list[str]:
        while True:
            names = ["".join(self.rng.choices(string.ascii_lowercase, k=4)) for _ in range(n)]
            if len(set(names)) == n:
                return names

    def framework(self, key: str, n: int, m: int) -> tuple[Framework, list[tuple[str, str]]]:
        """n arguments and exactly m distinct attacks (self-attacks
        included), drawn uniformly from the n*n ordered pairs by the corpus
        generator, with argument names drawn by the seed.  Also returns the
        absent attacks in corpus order."""
        pairs = set(self.corpus.sample(range(n * n), m))
        # sorted, so that the program's canonical (lexicographic) argument
        # order is the corpus order whatever the seed
        names = sorted(set(self._names(n)))
        pair = lambda p: (names[p // n], names[p % n])
        absent = [pair(p) for p in range(n * n) if p not in pairs]
        return Framework(key, tuple(sorted(names)), frozenset(pair(p) for p in pairs)), absent


def _semantics_round(draw, r):
    # extensions: n = 10..16, attack density 0.5/n .. 2/n per ordered pair,
    # i.e. m = n/2 .. 2n attacks; every semantics on each framework, so the
    # first request misses the enumeration cache and the other six hit it
    for n in range(10, 17):
        for half_density in (1, 2, 3, 4):
            fw, _ = draw.framework(f"s{r}_{n}_{half_density}", n, round(half_density * n / 2))
            # reference cost grows as 2^n; every framework up to 12 arguments
            # is checked, a seeded sixth of the larger ones
            check = n <= 12 or draw.pick.random() < 1 / 6
            for sem in SEMANTICS:
                yield "extensions", ("extensions", "--input", "{input}", "--semantics", sem, *_JSON), fw, check
    # labellings walk 3^n assignments, so they stay at n = 6..9
    for n in range(6, 10):
        for density in (0.5, 1, 2):
            fw, _ = draw.framework(f"l{r}_{n}_{density}", n, round(density * n))
            for sem in LABELLING_SEMANTICS:
                yield "labellings", ("labellings", "--input", "{input}", "--semantics", sem, *_JSON), fw, True


def _invariance_round(draw, r):
    for n in range(6, 13):
        for density in (0.5, 1, 2):
            fw, absent = draw.framework(f"i{r}_{n}_{density}", n, round(density * n))
            # the adm oracle check of a whole invariant list costs one
            # reference recomputation per listed attack; check a seeded third
            for sem in ("cf", "adm"):
                yield (
                    "invariant-attacks",
                    ("invariant-attacks", "--input", "{input}", "--semantics", sem, "--oracle", *_JSON),
                    fw,
                    draw.pick.random() < 1 / 3,
                )
            for extra in ((), ("--preferred-only",)):
                source, target = draw.corpus.choice(absent)
                yield (
                    "check-attack",
                    ("check-attack", "--input", "{input}", "--semantics", "adm",
                     "--from", source, "--to", target, "--oracle", *extra, *_JSON),
                    fw,
                    True,
                )


def _robustness_round(draw, r):
    # uncapped exhaustive search stops at n = 4; n = 5 is capped at three
    # steps (uncapped adm searches reach ~23,000 states and ~25 s)
    cases = [(4, "exhaustive", None, d) for d in (0.5, 1, 2)]
    cases += [(5, "exhaustive", 3, d) for d in (0.5, 1, 2)]
    # greedy at n = 8 only at density 2/n: sparser n = 8 searches take
    # 0.25-0.5 s each, which would leave fewer than 100 requests in a run
    cases += [(n, "greedy", None, d) for n in (6, 7) for d in (0.5, 1, 2)]
    cases += [(8, "greedy", None, 2)]
    for i, (n, strategy, max_steps, density) in enumerate(cases):
        fw, _ = draw.framework(f"r{r}_{n}_{density}", n, round(density * n))
        for sem in ("cf", "adm"):
            argv = ["robustness", "--input", "{input}", "--semantics", sem, "--strategy", strategy]
            if max_steps is not None:
                argv += ["--max-steps", str(max_steps)]
            # greedy searches alternate with and without oracle double-checks
            if strategy == "greedy" and (i + r) % 2:
                argv.append("--paranoid")
            yield "robustness", (*argv, *_JSON), fw, True


def _audit_round(draw, r):
    for sem in ("cf", "adm"):
        for _ in range(4):
            seed = draw.rng.randrange(1 << 30)
            argv = ("audit", "--args", "4", "--semantics", sem, "--samples", "48", "--seed", str(seed), *_JSON)
            yield "audit", argv, None, True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "semantics",
            round_s=2.85,
            build_round=_semantics_round,
        ),
        Workload(
            "invariance",
            round_s=2.25,
            build_round=_invariance_round,
        ),
        Workload(
            "robustness",
            round_s=1.55,
            build_round=_robustness_round,
        ),
        Workload(
            "audit",
            round_s=0.43,
            build_round=_audit_round,
        ),
    )
}


def write_inputs(requests: list[Request], directory: Path) -> None:
    """Write each distinct framework once as ``<key>.apx``."""
    directory.mkdir(parents=True, exist_ok=True)
    written = set()
    for request in requests:
        fw = request.framework
        if fw is not None and fw.key not in written:
            (directory / f"{fw.key}.apx").write_text(fw.apx(), encoding="utf-8")
            written.add(fw.key)

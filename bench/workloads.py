"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed, hands out one
round of operations (callables that drive vsbdf3 through its CLI or its
public functions), and checks a round's outputs afterwards.  Every round
of a run repeats the same operations on the same inputs, so each round's
fingerprint must equal the first one's.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from collections import Counter
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np

import checks
import oracles


class Workload:
    name = ""

    def operations(self) -> list:
        """One round: callables whose return values check() reads."""
        raise NotImplementedError

    def check(self, outputs) -> tuple[list[bool], dict]:
        """Per-operation failure flags and the round's behaviour fingerprint."""
        raise NotImplementedError

    def output_paths(self) -> list[Path]:
        return []


def _cli_call(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class _NewtonCounter:
    """Totals Newton iterations of every solver run the CLI makes.

    It wraps the run function the CLI calls and reads the returned
    per-level diagnostics; it adds one call per solver run.
    """

    def __init__(self, cli):
        self.total = 0
        inner = cli.run

        def run(config):
            result = inner(config)
            self.total += sum(d.newton_iterations for d in result.diagnostics)
            return result

        cli.run = run

    def take(self) -> int:
        total, self.total = self.total, 0
        return total


# ---------------------------------------------------------------------------


class ConvRandom(Workload):
    """vsbdf3 convergence --case 2: the random-grid error table (criterion 2)."""

    name = "conv-random"
    NS = (20, 40, 80, 160)
    EPS2 = (0.16, 0.36)
    M = 20
    # The acceptance gate's seeds for this table; the benchmark seed picks
    # one.  Its order window was validated on exactly these: on other seeds
    # a four-point fit of a random grid can be pre-asymptotic (order 3.45
    # on seed 917752063), and grids with a step near 1e-6 make Newton fail.
    CLI_SEEDS = (1, 2, 3)

    def __init__(self, pkg, seed: int, outdir: Path):
        self.cli = pkg.cli
        self.outdir = outdir
        self.seeds = [self.CLI_SEEDS[seed % len(self.CLI_SEEDS)]]
        self.newton = _NewtonCounter(self.cli)

    def _prefix(self, s: int) -> Path:
        return self.outdir / f"conv-{s}.json"

    def _table_paths(self, s: int) -> dict:
        p = self._prefix(s)
        return {e: p.with_name(f"{p.stem}_eps2_{e:g}{p.suffix}") for e in self.EPS2}

    def operations(self):
        return [partial(_cli_call, self.cli, [
            "convergence", "--case", "2", "--seed", str(s),
            "--eps2", ",".join(f"{e:g}" for e in self.EPS2),
            "--n", ",".join(map(str, self.NS)), "--m", str(self.M),
            "--out", str(self._prefix(s)), "--format", "json"]) for s in self.seeds]

    def output_paths(self):
        return [p for s in self.seeds for p in self._table_paths(s).values()]

    def check(self, outputs):
        failed, printed = [], []
        for s, out in zip(self.seeds, outputs):
            if isinstance(out, BaseException):
                failed.append(True)
                printed.append(repr(out))
                continue
            rc, text = out
            tables = {}
            for eps2, path in self._table_paths(s).items():
                if path.is_file():
                    rows = json.loads(path.read_text())["rows"]
                    tables[eps2] = [(r["N"], r["error"]) for r in rows]
            problems = checks.check_convergence(rc, tables, self.NS)
            failed.append(bool(problems) or len(tables) != len(self.EPS2))
            printed.append(text)
        fingerprint = {
            "cli_seeds": self.seeds,
            "newton_iterations": self.newton.take(),
            "error_tables": printed,
        }
        return failed, fingerprint


class EnergyPeriodic(Workload):
    """vsbdf3 energy on the torus: 200 random bounded-ratio steps (criterion 8)."""

    name = "energy-periodic"
    EPS2 = 0.16
    TAU = 0.01
    STEPS = 200
    M = 32

    def __init__(self, pkg, seed: int, outdir: Path):
        self.cli = pkg.cli
        self.seed = seed
        self.path = outdir / "energy.csv"
        self.newton = _NewtonCounter(self.cli)

    def operations(self):
        return [partial(_cli_call, self.cli, [
            "energy", "--eps2", f"{self.EPS2:g}", "--tau", f"{self.TAU:g}",
            "--steps", str(self.STEPS), "--seed", str(self.seed), "--m", str(self.M),
            "--out", str(self.path)])]

    def output_paths(self):
        return [self.path]

    def check(self, outputs):
        out = outputs[0]
        energies = []
        if isinstance(out, BaseException):
            rc = None
        else:
            rc = out[0]
            if self.path.is_file():
                lines = self.path.read_text().splitlines()[1:]
                energies = [float(line.split(",")[1]) for line in lines]
        problems = checks.check_energy(rc, energies, self.EPS2)
        fingerprint = {
            "cli_seed": self.seed,
            "newton_iterations": self.newton.take(),
            "initial_energy": repr(energies[0]) if energies else None,
            "max_energy_excess": repr(max(e - energies[0] for e in energies))
            if energies else None,
        }
        return [bool(problems)], fingerprint


class CertifyMix(Workload):
    """TimeGrid.from_json + certify_positive_definite on a stream of grid
    texts, plus sylvester_trace_A_from_ratios on constant-ratio chains."""

    name = "certify-mix"
    CERTIFIED = 4000
    WILD = 4000
    MAX_STEPS = 100
    WILD_CAP = 44.0
    CHAINS = ((1.405, 10_000), (1.732, 120))
    # One positive verdict in SAMPLE_EVERY is also checked by the oracle.
    SAMPLE_EVERY = 50

    def __init__(self, pkg, seed: int, outdir: Path):
        self.from_json = pkg.TimeGrid.from_json
        self.certify = pkg.certify_positive_definite
        self.trace = pkg.sylvester_trace_A_from_ratios
        rng = np.random.Generator(np.random.PCG64(seed))
        grids = ([("certified", certified_steps(rng, int(rng.integers(1, self.MAX_STEPS + 1))))
                  for _ in range(self.CERTIFIED)]
                 + [("wild", wild_steps(rng, int(rng.integers(1, self.MAX_STEPS + 1)),
                                        self.WILD_CAP))
                    for _ in range(self.WILD)])
        items = grids + [("chain", (r, n)) for r, n in self.CHAINS]
        self.items = [items[i] for i in rng.permutation(len(items))]
        self.texts = [grid_json(data) if kind != "chain" else None for kind, data in self.items]
        self.reference = self.bad = self.fingerprint = None

    def _grid(self, text):
        ok, tr = self.certify(self.from_json(text))
        return ok, tr.first_negative, len(tr.p)

    def _chain(self, ratios):
        tr = self.trace(ratios)
        return tr.first_negative, len(tr.p), min(tr.p)

    def operations(self):
        ops = []
        for (kind, data), text in zip(self.items, self.texts):
            if kind == "chain":
                ratio, levels = data
                ops.append(partial(self._chain, [ratio] * (levels - 1)))
            else:
                ops.append(partial(self._grid, text))
        return ops

    def check(self, outputs):
        if self.reference is None:
            self._check_first_round(outputs)
        failed = [isinstance(out, BaseException) or out != ref or bad
                  for out, ref, bad in zip(outputs, self.reference, self.bad)]
        return failed, self.fingerprint

    def _check_first_round(self, outputs):
        """Check the first round against the oracles; later rounds must repeat it."""
        self.reference, self.bad = outputs, []
        positives, first_negatives, chains = 0, [], {}
        for (kind, data), out in zip(self.items, outputs):
            if isinstance(out, BaseException):
                self.bad.append(True)
                continue
            if kind == "chain":
                ratio, levels = data
                # ratios within the certified bound stay positive by the
                # theorem; steeper chains are short enough for determinants
                oracle = (None if ratio <= oracles.MAX_CERTIFIED_RATIO
                          else oracles.first_nonpositive_minor([ratio] * (levels - 1)))
                problems = checks.check_chain(ratio, levels, *out, expected=oracle)
                chains[str(ratio)] = out[0]
            else:
                verdict, first_negative, _ = out
                positives += verdict
                sampled = verdict and positives % self.SAMPLE_EVERY == 0
                problems = checks.check_certification(kind, verdict, first_negative, data,
                                                      sampled)
                if not verdict:
                    first_negatives.append(first_negative)
            self.bad.append(bool(problems))
        self.fingerprint = {
            "grids": self.CERTIFIED + self.WILD,
            "certified": positives,
            "first_nonpositive_histogram": dict(sorted(Counter(first_negatives).items())),
            "first_nonpositive_sha256": hashlib.sha256(
                json.dumps(first_negatives).encode()).hexdigest(),
            "chains": chains,
        }


def certified_steps(rng, n: int) -> np.ndarray:
    """n steps summing to 1 whose adjacent ratios are uniform in (0, 1.405]."""
    ratios = 1.405 * (1.0 - rng.random(n - 1))
    logs = np.concatenate([[0.0], np.cumsum(np.log(ratios))])
    rel = np.exp(logs - logs.max())
    return rel / rel.sum()


def wild_steps(rng, n: int, cap: float) -> np.ndarray:
    """n i.i.d. uniform steps summing to 1, redrawn until every ratio is in [1/cap, cap]."""
    while True:
        sig = rng.random(n)
        if sig.min() <= 0.0:
            continue
        r = sig[1:] / sig[:-1]
        if n == 1 or (r.max() <= cap and r.min() >= 1.0 / cap):
            return sig / sig.sum()


def grid_json(steps) -> str:
    steps = [float(s) for s in steps]
    return json.dumps({"T": math.fsum(steps), "steps": steps})


WORKLOADS = {w.name: w for w in (ConvRandom, EnergyPeriodic, CertifyMix)}

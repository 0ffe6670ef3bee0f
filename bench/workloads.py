"""The three workloads: inputs from a seed, one round of ops, output checks.

A round is a fixed list of ops.  ``run_round`` times each op on its own and
does its untimed bookkeeping (keeping outputs, moment sums, file hashes)
between ops.  ``check`` compares everything kept with ``reference`` after
timing ends and returns a list of mismatches.

Every workload draws its inputs from ``inputs.rng_for(seed, workload, rep)``;
set-up repetition ``rep`` > 0 uses fresh inputs of the same shape, so a cache
inside the library cannot make repeated set-ups look cheaper than the first.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from fhmix import ConcurrenceMatrix, CorrelationMatrix

import inputs
import reference as ref

EXTREMES_TOL = 1e-7        # quadrature contract is 1e-8 on the raw integral
CLOSED_FORM_TOL = 1e-12    # n <= 4 pmfs are exact up to rounding
LP_TOL = 1e-9              # float LP witnesses are verified to 1e-9


@dataclass
class Op:
    seconds: float
    failed: bool
    in_p50: bool = True


@dataclass
class RoundLog:
    ops: list[Op] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return math.fsum(op.seconds for op in self.ops)


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception as exc:  # recorded as a failed op and reported by check()
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# plan-mixed
# ---------------------------------------------------------------------------

@dataclass
class PlanJob:
    label: str
    marginals: tuple
    lam: np.ndarray                  # concurrence of the generating law
    entry: str                       # "build_plan" | "build_plan_from_concurrence"
    feasible: bool                   # by construction
    fault: bool = False              # one of the four QuadratureError probes
    args: tuple = ()

    @property
    def n(self) -> int:
        return len(self.marginals)


class PlanMixed:
    """Plan compilation over a seeded stream of mixed jobs, no draws.

    Per round: 5 fast jobs (three n = 3, one dyadic n = 5, one n = 6 caught
    by the screen), 12 jobs of the median class (n = 4, uniform,
    exponential, normal and empirical marginals), 5 slow jobs (dyadic n = 6
    through the exact LP, n = 8, two n = 12, one n = 12 that only the LP
    rejects), and the 4 fault probes.  The median of the 22 non-probe ops
    falls on the 6th and 7th of the 12 median-class jobs.
    """

    name = "plan-mixed"

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed

    def generate(self, rep: int) -> list[PlanJob]:
        rng = inputs.rng_for(self.seed, 1, rep)
        jobs: list[PlanJob] = []

        def corr_job(label, pattern, law):
            ms = inputs.marginals_from_pattern(rng, pattern)
            jobs.append(PlanJob(label, ms, inputs.concurrence_of(law), "build_plan", True))

        def conc_job(label, pattern, lam, feasible):
            ms = inputs.marginals_from_pattern(rng, pattern)
            jobs.append(PlanJob(label, ms, lam, "build_plan_from_concurrence", feasible))

        for _ in range(12):
            corr_job("n4", "".join(rng.permutation(list("UENM"))), inputs.interior_law(rng, 4))
        for pattern in ("UEB", "NBM", "EBM"):
            corr_job("n3", pattern, inputs.interior_law(rng, 3))
        conc_job("n5-dyadic", "UBUBU", inputs.concurrence_of(inputs.dyadic_law(rng, 5)), True)
        lam = inputs.concurrence_of(inputs.interior_law(rng, 6))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            lam[i, j] = lam[j, i] = 0.25          # triple sum 0.75 < 1
        conc_job("n6-screened", "UBUBUB", lam, False)
        conc_job("n6-dyadic", "EMEMEM", inputs.concurrence_of(inputs.dyadic_law(rng, 6)), True)
        corr_job("n8", "UENBMUEN", inputs.clustered_law(rng, 8))
        for _ in range(2):
            conc_job("n12", "NEBMNEBMNEBM",
                     inputs.concurrence_of(inputs.clustered_law(rng, 12)), True)
        # mean concurrence below 30/66 breaks the max-cut inequality while
        # every 3- and 4-subset stays feasible
        lam = np.full((12, 12), 0.42) + np.triu(rng.uniform(-0.02, 0.02, (12, 12)), 1)
        lam = np.triu(lam, 1) + np.triu(lam, 1).T + np.eye(12)
        conc_job("n12-lp-infeasible", "UNEUNEUNEUNE", lam, False)
        for a, b in inputs.FAULT_PAIRS:
            jobs.append(PlanJob("fault", (a, b), np.array([[1.0, 0.5], [0.5, 1.0]]),
                                "build_plan", True, fault=True))

        jobs = [jobs[k] for k in rng.permutation(len(jobs))]
        for job in jobs:
            job.args = self._args(job)
        return jobs

    @staticmethod
    def _args(job: PlanJob) -> tuple:
        specs = tuple(inputs.to_spec(m) for m in job.marginals)
        if job.entry == "build_plan":
            return specs, CorrelationMatrix(inputs.targets(job.marginals, job.lam))
        return specs, ConcurrenceMatrix(job.lam)

    def compile(self, jobs, lib):
        return {"jobs": jobs, "plans": None, "mismatch": []}

    def warm_up(self, state, lib) -> None:
        job = next(j for j in state["jobs"] if j.label == "n4")
        getattr(lib, job.entry)(*job.args)

    def run_round(self, state, lib, index: int, tracer=None) -> RoundLog:
        log = RoundLog()
        outputs = []
        for job in state["jobs"]:
            seconds, plan, err = _timed(getattr(lib, job.entry), *job.args)
            log.ops.append(Op(seconds, err is not None, in_p50=not job.fault))
            outputs.append((plan, err))
        if state["plans"] is None:
            state["plans"] = outputs
        else:
            for job, (plan, err), (first, first_err) in zip(state["jobs"], outputs,
                                                            state["plans"]):
                if not _same_outcome(plan, err, first, first_err):
                    state["mismatch"].append(f"round {index}: {job.label} differs from round 0")
        return log

    def check(self, state, lib, tracer=None) -> list[str]:
        errors = list(state["mismatch"])
        for job, (plan, err) in zip(state["jobs"], state["plans"]):
            if err is not None:
                if not (job.fault and type(err).__name__ == "QuadratureError"):
                    errors.append(f"{job.label}: unexpected {type(err).__name__}: {err}")
                continue
            errors.extend(f"{job.label}: {e}" for e in check_plan(job, plan))
        return errors

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_SELF)


def _same_outcome(plan, err, first, first_err) -> bool:
    if (err is None) != (first_err is None):
        return False
    if err is not None:
        return type(err) is type(first_err)
    if plan.feasible != first.feasible or not np.array_equal(plan.lam.entries, first.lam.entries):
        return False
    if plan.recipe is None:
        return first.recipe is None
    return np.array_equal(plan.recipe.pmf.probs, first.recipe.pmf.probs)


def check_plan(job: PlanJob, plan) -> list[str]:
    """Extremes, targets, verdict and recipe of one plan against references."""
    errors = []
    n = job.n
    lam = plan.lam.entries
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = ref.extremes(job.marginals[i], job.marginals[j])
            got = plan.extremes[i][j]
            if abs(got.rho_minus - lo) > EXTREMES_TOL or abs(got.rho_plus - hi) > EXTREMES_TOL:
                errors.append(f"extremes ({i},{j}) = ({got.rho_minus}, {got.rho_plus}), "
                              f"reference ({lo}, {hi})")
            want = lam[i, j] * hi + (1.0 - lam[i, j]) * lo
            if abs(plan.target_corr.entries[i, j] - want) > EXTREMES_TOL:
                errors.append(f"target ({i},{j}) = {plan.target_corr.entries[i, j]}, "
                              f"lambda mix of the reference extremes gives {want}")
    lam_tol = 0.0 if job.entry == "build_plan_from_concurrence" else 1e-6
    if np.abs(lam - job.lam).max() > lam_tol:
        errors.append(f"lambda off the generating law by {np.abs(lam - job.lam).max():.3g}")

    verdict = ref.highs_feasible(lam) if n >= 3 else True
    if plan.feasible != verdict or verdict != job.feasible:
        errors.append(f"verdict {plan.feasible}, HiGHS {verdict}, by construction {job.feasible}")
    if not plan.feasible:
        if plan.recipe is not None:
            errors.append("infeasible plan carries a recipe")
        return errors

    tol = CLOSED_FORM_TOL if n <= 4 else LP_TOL
    probs = np.asarray(plan.recipe.pmf.probs)
    if probs.shape != (2 ** n,) or probs.min() < 0.0:
        errors.append("recipe pmf has a negative atom or the wrong size")
        return errors
    if abs(math.fsum(probs) - 1.0) > tol:
        errors.append(f"recipe pmf sums to {math.fsum(probs)!r}")
    if np.abs(ref.bit_marginals(probs, n) - 0.5).max() > tol:
        errors.append("recipe bit marginals are not 1/2")
    if np.abs(ref.concurrences(probs, n) - lam).max() > tol:
        errors.append(f"recipe concurrences off lambda by "
                      f"{np.abs(ref.concurrences(probs, n) - lam).max():.3g}")
    return errors


# ---------------------------------------------------------------------------
# moment sums for z-tests on draws
# ---------------------------------------------------------------------------

class MomentSums:
    """Sums of z, z_i z_j and z_i^2 z_j^2 for z standardized by exact moments.

    ``target`` holds the expected correlations and ``lam`` the convexity
    weights they were made from.
    """

    CHUNK = 1 << 17

    def __init__(self, marginals, target: np.ndarray, lam: np.ndarray) -> None:
        mom = [ref.moments(m) for m in marginals]
        self.mu = np.array([m[0] for m in mom])
        self.sd = np.array([m[1] for m in mom])
        self.marginals = marginals
        self.target = target
        self.lam = lam
        n = len(marginals)
        self.count = 0
        self.s1 = np.zeros(n)
        self.s2 = np.zeros((n, n))
        self.s4 = np.zeros((n, n))
        self.bern = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if marginals[i][0] == marginals[j][0] == "bernoulli"]
        self.agree = {pair: 0 for pair in self.bern}

    def add(self, x: np.ndarray) -> None:
        for s in range(0, x.shape[0], self.CHUNK):
            block = x[s:s + self.CHUNK]
            z = (block - self.mu) / self.sd
            self.s1 += z.sum(axis=0)
            self.s2 += z.T @ z
            z *= z
            self.s4 += z.T @ z
            for i, j in self.bern:
                self.agree[i, j] += int(np.count_nonzero(block[:, i] == block[:, j]))
        self.count += x.shape[0]

    def zscores(self) -> list[tuple[str, float]]:
        N = float(self.count)
        n = len(self.mu)
        out = []
        for i in range(n):
            out.append((f"mean x{i + 1}", self.s1[i] / math.sqrt(N)))
        for i in range(n):
            for j in range(i, n):
                mean = self.s2[i, j] / N
                want = 1.0 if i == j else self.target[i, j]
                spread = math.sqrt(max(self.s4[i, j] / N - mean * mean, 0.0) / N)
                kind = "variance" if i == j else "correlation"
                out.append((f"{kind} x{i + 1},x{j + 1}",
                            (mean - want) / spread if spread > 0 else
                            (0.0 if abs(mean - want) < 1e-12 else math.inf)))
        lam = self.lam
        for i, j in self.bern:
            p, q = self.marginals[i][1], self.marginals[j][1]
            # coins agree: comonotone pair, P(equal) = 1 - |p - q|;
            # coins differ: antithetic pair, P(equal) = |1 - p - q|
            t = lam[i, j] * (1.0 - abs(p - q)) + (1.0 - lam[i, j]) * abs(1.0 - p - q)
            out.append((f"concurrence x{i + 1},x{j + 1}",
                        (self.agree[i, j] / N - t) / math.sqrt(t * (1.0 - t) / N)))
        return out


def z_failures(stats: list[tuple[str, float]]) -> list[str]:
    limit = ref.z_limit(len(stats))
    return [f"{name}: z = {z:.3f} exceeds {limit:.2f}" for name, z in stats
            if not abs(z) <= limit]


# ---------------------------------------------------------------------------
# draw-n12
# ---------------------------------------------------------------------------

class DrawN12:
    """Bulk draws from one n = 12 plan compiled in set-up.

    Twelve marginals over seven specs: uniform, exponential and normal (each
    used twice or three times), two Bernoulli, an empirical with 48 atoms and
    one with 6.  An op is one sample_batch of 10^6 vectors on the next
    stream id; a round is 4 ops.
    """

    name = "draw-n12"
    ops_per_round = 4
    count = 1_000_000
    pattern = "UENBMbUENmBE"
    big_atoms = 48

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed

    def generate(self, rep: int) -> dict:
        rng = inputs.rng_for(self.seed, 2, rep)
        ms = list(inputs.marginals_from_pattern(rng, self.pattern))
        ms[self.pattern.index("M")] = inputs.empirical(rng, self.big_atoms)
        ms = tuple(ms)
        lam = inputs.concurrence_of(inputs.clustered_law(rng, 12))
        rho = inputs.targets(ms, lam)
        return {"marginals": ms, "lam": lam, "rho": rho,
                "specs": tuple(inputs.to_spec(m) for m in ms),
                "target": CorrelationMatrix(rho),
                "sample_seed": int(rng.integers(2 ** 31))}

    def compile(self, inp: dict, lib) -> dict:
        state = dict(inp)
        state["plan"] = lib.build_plan(inp["specs"], inp["target"])
        state["sums"] = MomentSums(inp["marginals"], inp["rho"], inp["lam"])
        state["next_stream"] = 0
        state["first_hash"] = None
        return state

    def warm_up(self, state, lib) -> None:
        lib.sample_batch(state["plan"], self.count, state["sample_seed"], 10 ** 6)

    def run_round(self, state, lib, index: int, tracer=None) -> RoundLog:
        log = RoundLog()
        for _ in range(self.ops_per_round):
            stream = state["next_stream"]
            state["next_stream"] += 1
            seconds, batch, err = _timed(lib.sample_batch, state["plan"], self.count,
                                         state["sample_seed"], stream)
            log.ops.append(Op(seconds, err is not None))
            if err is not None:
                state.setdefault("errors", []).append(f"stream {stream}: {err!r}")
                continue
            state["sums"].add(batch.values)
            if stream == 0:
                state["first_hash"] = hashlib.sha256(batch.values.tobytes()).hexdigest()
            del batch
        return log

    def check(self, state, lib, tracer=None) -> list[str]:
        errors = list(state.get("errors", []))
        job = PlanJob("n12-draw", state["marginals"], state["lam"], "build_plan", True)
        errors.extend(f"plan: {e}" for e in check_plan(job, state["plan"]))
        errors.extend(z_failures(state["sums"].zscores()))
        again = lib.sample_batch(state["plan"], self.count, state["sample_seed"], 0)
        if hashlib.sha256(again.values.tobytes()).hexdigest() != state["first_hash"]:
            errors.append("stream 0 drawn again is not bit-identical")
        return errors

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# cli-n4
# ---------------------------------------------------------------------------

class CliN4:
    """``fhmix sample`` as a child process writing a 300000 x 4 CSV.

    Marginals: uniform, exponential, normal and an empirical with 8 atoms;
    correlation targets; one stream.  A round is 2 ops, each the same job,
    so every op must write the same bytes.
    """

    name = "cli-n4"
    ops_per_round = 2
    rows = 300_000

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.workdir = root / "bench" / "out" / f"{self.name}-s{seed}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)

    def generate(self, rep: int) -> dict:
        rng = inputs.rng_for(self.seed, 3, rep)
        ms = inputs.marginals_from_pattern(rng, "UENM", empirical_atoms=8)
        lam = inputs.concurrence_of(inputs.interior_law(rng, 4))
        rho = inputs.targets(ms, lam)
        d = self.workdir
        d.mkdir(parents=True, exist_ok=True)
        config = d / f"job{rep}.json"
        config.write_text(json.dumps({
            "marginals": [inputs.to_record(m) for m in ms],
            "correlation": inputs.lower_triangle(rho),
            "count": self.rows,
            "seed": int(rng.integers(2 ** 31)),
            "streams": 1,
        }), encoding="utf-8")
        return {"marginals": ms, "lam": lam, "rho": rho, "dir": d, "config": config,
                "out": d / "sample.csv"}

    def compile(self, inp: dict, lib) -> dict:
        return dict(inp, hashes=[], errors=[])

    def _fhmix(self, args: list[str], spans: Path | None = None):
        if spans is None:
            cmd = [sys.executable, "-m", "fhmix.cli", *args]
        else:
            cmd = [sys.executable, str(self.root / "bench" / "cli_runner.py"), str(spans), *args]
        return subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=170)

    def _sample_args(self, state) -> list[str]:
        return ["sample", "--config", str(state["config"]), "--out", str(state["out"])]

    def warm_up(self, state, lib) -> None:
        proc = self._fhmix(self._sample_args(state))
        if proc.returncode != 0:
            raise RuntimeError(f"fhmix sample failed in set-up: {proc.stderr.strip()}")

    def run_round(self, state, lib, index: int, tracer=None) -> RoundLog:
        log = RoundLog()
        for k in range(self.ops_per_round):
            spans = None if tracer is None else state["dir"] / f"spans-{index}-{k}.json"
            seconds, proc, err = _timed(self._fhmix, self._sample_args(state), spans)
            failed = err is not None or proc.returncode != 0
            log.ops.append(Op(seconds, failed))
            if failed:
                state["errors"].append(f"fhmix sample: {err or proc.stderr.strip()}")
                continue
            state["hashes"].append(hashlib.sha256(state["out"].read_bytes()).hexdigest())
            if tracer is not None:
                tracer.add_child(spans)
        return log

    def check(self, state, lib, tracer=None) -> list[str]:
        errors = list(state["errors"])
        if len(set(state["hashes"])) > 1:
            errors.append(f"ops wrote {len(set(state['hashes']))} different files")
        errors.extend(self._check_csv(state))
        spans = None if tracer is None else state["dir"] / "spans-verify.json"
        proc = self._fhmix(["verify", "--config", str(state["config"]),
                            "--out", str(state["dir"] / "verify.json"), str(state["out"])], spans)
        if proc.returncode != 0:
            errors.append(f"fhmix verify exited {proc.returncode}: {proc.stderr.strip()}")
        elif tracer is not None:
            tracer.add_child(spans)
        return errors

    def _check_csv(self, state) -> list[str]:
        text = state["out"].read_text(encoding="ascii")
        header, _, body = text.partition("\n")
        if header != "x1,x2,x3,x4":
            return [f"CSV header {header!r}"]
        lines = body.split("\n")
        if lines[-1] != "":
            return ["CSV does not end with a newline"]
        lines.pop()
        if len(lines) != self.rows:
            return [f"CSV has {len(lines)} rows, expected {self.rows}"]
        fields = ",".join(lines).split(",")
        if len(fields) != 4 * self.rows:
            return [f"CSV has {len(fields)} fields, expected {4 * self.rows}"]
        data = np.array(fields, dtype=float).reshape(self.rows, 4)
        sums = MomentSums(state["marginals"], state["rho"], state["lam"])
        sums.add(data)
        return z_failures(sums.zscores())

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)


WORKLOADS = {w.name: w for w in (PlanMixed, DrawN12, CliN4)}

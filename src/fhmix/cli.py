"""Command-line front end.

Subcommands: ``bounds`` (pairwise correlation extremes), ``plan`` (compile
and report a sampling plan), ``sample`` (emit CSV), ``verify`` (check a CSV
against the job's targets).  Exit codes: 0 success, 1 infeasible or failed
verification or any other library error, 2 usage/parse errors.

Jobs are described by a JSON config file, e.g.::

    {
      "marginals": [
        {"family": "uniform", "a": 0.0, "b": 1.0},
        {"family": "exponential", "rate": 1.0},
        {"family": "normal", "mean": 0.0, "sd": 1.0}
      ],
      "correlation": [0.2, 0.1, 0.0],
      "count": 1000,
      "seed": 42,
      "streams": 1,
      "alpha_policy": "midpoint"
    }

``correlation`` (targets in [-1, 1]) and ``concurrence`` (convexity matrix
entries in [0, 1]) are mutually exclusive; both list the strict lower
triangle row-major: [m21, m31, m32, m41, ...].
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import itertools
import json
import math
import multiprocessing
import signal
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bernoulli_joint import ConcurrenceMatrix
from .errors import ConfigError, FhmixError
from .marginals import _FAMILY_FIELDS, MarginalSpec, moments
from .sampler import (
    CorrelationMatrix,
    SamplingPlan,
    _batch_values,
    _cpus,
    _generator,
    build_plan,
    build_plan_from_concurrence,
)

Z_LIMIT = 4.0
# stand-in for an infinite z-score; keeps the verify report strict JSON
Z_HUGE = 1e18
#: rows drawn and written at a time by ``sample``, and the unit of work
#: handed to a formatting worker: bounds the CSV text held per write, a
#: smaller block than the sampler's chunk, so drawing a block starts no thread
CHUNK_ROWS = 1 << 14

@dataclass(frozen=True)
class JobConfig:
    marginals: tuple[MarginalSpec, ...]
    correlation: tuple[float, ...] | None
    concurrence: tuple[float, ...] | None
    count: int
    seed: int
    streams: int
    alpha: float | None  # None means midpoint policy

    @property
    def n(self) -> int:
        return len(self.marginals)


def parse_config(text: str) -> JobConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    known = {"marginals", "correlation", "concurrence", "count", "seed",
             "streams", "alpha_policy"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    margs = raw.get("marginals")
    if not isinstance(margs, list) or len(margs) < 2:
        raise ConfigError("config needs a 'marginals' list with at least 2 entries")
    marginals = tuple(_parse_marginal(m, i) for i, m in enumerate(margs))

    n = len(marginals)
    want = n * (n - 1) // 2
    has_corr = "correlation" in raw
    has_conc = "concurrence" in raw
    if has_corr == has_conc:
        raise ConfigError("config needs exactly one of 'correlation' or 'concurrence'")
    key = "correlation" if has_corr else "concurrence"
    tri = raw[key]
    if not isinstance(tri, list) or len(tri) != want:
        raise ConfigError(
            f"'{key}' must list the {want} strict lower-triangle entries for n={n}"
        )
    tri = tuple(_require_number(v, key) for v in tri)

    count = _require_int(raw.get("count", 1000), "count", 1)
    seed = _require_int(raw.get("seed", 0), "seed", 0)
    streams = _require_int(raw.get("streams", 1), "streams", 1)

    policy = raw.get("alpha_policy", "midpoint")
    if policy == "midpoint":
        alpha = None
    elif isinstance(policy, dict) and set(policy) == {"explicit"}:
        alpha = _require_number(policy["explicit"], "alpha_policy.explicit")
    else:
        raise ConfigError(
            "alpha_policy must be \"midpoint\" or {\"explicit\": value}"
        )

    return JobConfig(
        marginals=marginals,
        correlation=tri if has_corr else None,
        concurrence=tri if has_conc else None,
        count=count,
        seed=seed,
        streams=streams,
        alpha=alpha,
    )


def serialize_config(cfg: JobConfig) -> str:
    """Canonical JSON for a config; parse(serialize(parse(t))) == parse(t)."""
    doc: dict = {"marginals": [_marginal_record(m) for m in cfg.marginals]}
    if cfg.correlation is not None:
        doc["correlation"] = list(cfg.correlation)
    else:
        doc["concurrence"] = list(cfg.concurrence or ())
    doc["count"] = cfg.count
    doc["seed"] = cfg.seed
    doc["streams"] = cfg.streams
    doc["alpha_policy"] = "midpoint" if cfg.alpha is None else {"explicit": cfg.alpha}
    return json.dumps(doc, indent=2) + "\n"


def _parse_marginal(record, index: int) -> MarginalSpec:
    if not isinstance(record, dict) or "family" not in record:
        raise ConfigError(f"marginal {index + 1} must be an object with a 'family'")
    family = record["family"]
    fields = _FAMILY_FIELDS.get(family) if isinstance(family, str) else None
    if fields is None:
        raise ConfigError(
            f"marginal {index + 1}: unknown family {family!r} "
            f"(expected one of {sorted(_FAMILY_FIELDS)})"
        )
    extra = set(record) - {"family", *fields}
    if extra:
        raise ConfigError(f"marginal {index + 1}: unexpected keys {sorted(extra)}")
    try:
        if family != "empirical":
            params = [_require_number(record.get(name), name) for name in fields]
            return getattr(MarginalSpec, family)(*params)
        values = record.get("values")
        if not isinstance(values, list):
            raise ConfigError("empirical marginal needs a 'values' list")
        weights = record.get("weights")
        if weights is not None and not isinstance(weights, list):
            raise ConfigError("empirical 'weights' must be a list")
        return MarginalSpec.empirical(
            [_require_number(v, "values") for v in values],
            None if weights is None else [_require_number(w, "weights") for w in weights])
    except FhmixError as exc:
        raise ConfigError(f"marginal {index + 1}: {exc}") from exc


def _marginal_record(m: MarginalSpec) -> dict:
    if m.family == "empirical":
        return {"family": "empirical", "values": list(m.values or ()),
                "weights": list(m.weights or ())}
    return {"family": m.family,
            **dict(zip(_FAMILY_FIELDS[m.family], m.params))}


def _require_number(v, name: str) -> float:
    # abs() compares an int beyond the float range exactly; math.isfinite overflows
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"'{name}' must be a finite number, got {v!r}")
    return float(v)


def _require_int(v, name: str, low: int) -> int:
    """``v`` as a JSON integer of at least ``low`` (0 or 1); booleans are not integers."""
    if isinstance(v, bool) or not isinstance(v, int) or v < low:
        kind = "positive" if low else "nonnegative"
        raise ConfigError(f"'{name}' must be a {kind} integer, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# plan construction shared by the commands
# ---------------------------------------------------------------------------

def _plan_from_config(cfg: JobConfig) -> SamplingPlan:
    if cfg.correlation is not None:
        target = CorrelationMatrix.from_lower_triangle(cfg.correlation, cfg.n)
        return build_plan(cfg.marginals, target, alpha=cfg.alpha)
    conc = ConcurrenceMatrix.from_lower_triangle(cfg.concurrence, cfg.n)
    return build_plan_from_concurrence(cfg.marginals, conc, alpha=cfg.alpha)


def _feasible_plan(cfg: JobConfig) -> SamplingPlan | None:
    """The job's plan, or None after printing why it is infeasible."""
    plan = _plan_from_config(cfg)
    if plan.feasible:
        return plan
    print(plan.diagnostics, file=sys.stderr)
    return None


def _load_config(path: str) -> JobConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _output(path: str | None):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_bounds(cfg: JobConfig, out_path: str | None) -> int:
    from .sampler import pairwise_extremes

    table = pairwise_extremes(cfg.marginals)
    with _output(out_path) as out:
        out.write("i,j,rho_minus,rho_plus\n")
        for i in range(cfg.n):
            for j in range(i + 1, cfg.n):
                ext = table[i][j]
                out.write(f"{i + 1},{j + 1},{ext.rho_minus:.6f},{ext.rho_plus:.6f}\n")
    return 0


def cmd_plan(cfg: JobConfig, out_path: str | None) -> int:
    plan = _plan_from_config(cfg)
    doc = {
        "n": plan.n,
        "marginals": [str(m) for m in plan.marginals],
        "lambda": [[round(v, 12) for v in row] for row in plan.lam.entries.tolist()],
        "target_correlation": [[round(v, 12) for v in row]
                               for row in plan.target_corr.entries.tolist()],
        "feasible": plan.feasible,
        "recipe": plan.recipe.kind if plan.recipe else None,
        "alpha": plan.recipe.alpha if plan.recipe else None,
        "alpha_interval": None,
        "diagnostics": plan.diagnostics,
    }
    if plan.recipe and plan.recipe.alpha_interval is not None:
        iv = plan.recipe.alpha_interval
        doc["alpha_interval"] = [iv.lo, iv.hi]
    with _output(out_path) as out:
        out.write(json.dumps(doc, indent=2) + "\n")
    if not plan.feasible:
        print(plan.diagnostics, file=sys.stderr)
        return 1
    return 0


def cmd_sample(cfg: JobConfig, out_path: str | None) -> int:
    """Write the rows of ``sample_batch`` for each stream, CHUNK_ROWS at a time.

    The blocks are drawn here, in row order.  With more than one block and
    more than one CPU they are formatted on forked worker processes, one per
    CPU, and written in order, so the bytes are those of the serial loop.
    """
    plan = _feasible_plan(cfg)
    if plan is None:
        return 1
    counts = _split_count(cfg.count, cfg.streams)
    workers = min(_cpus(), sum(-(-c // CHUNK_ROWS) for c in counts))
    with _output(out_path) as out:
        out.write(",".join(f"x{i + 1}" for i in range(cfg.n)) + "\n")
        blocks = _blocks(plan, cfg.seed, counts)
        if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
            _write_on_pool(out, blocks, workers)
        else:
            for block in blocks:
                out.write(_csv_rows(block))
    return 0


def _blocks(plan: SamplingPlan, seed: int, counts: list[int]):
    """Each stream's rows in turn, CHUNK_ROWS at a time."""
    for stream_id, c in enumerate(counts):
        rng = _generator(seed, stream_id)
        for start in range(0, c, CHUNK_ROWS):
            yield _batch_values(plan, min(CHUNK_ROWS, c - start), rng)


def _csv_rows(block: np.ndarray) -> str:
    """The CSV lines of ``block``: each value's shortest round-trip repr."""
    rows, n = block.shape
    return (",".join(["%r"] * n) + "\n") * rows % tuple(block.ravel().tolist())


def _write_on_pool(out, blocks, workers: int) -> None:
    """Write ``_csv_rows`` of each block in order, formatted on ``workers``
    forked processes with at most one block each in flight.

    Forked, not spawned: a spawned worker would import numpy and scipy
    again, which takes nearly as long as formatting 300000 rows of four
    values in one process (0.6-0.7 s against 0.8-0.9 s).  The pool
    is forked before the first draw, and a block is at most the sampler's
    one-piece size, so its draw starts no thread to be copied.  OpenBLAS
    keeps idle threads unless OPENBLAS_NUM_THREADS=1, for which Python
    3.12+ warns that forking is deprecated; the children only format text
    and take no lock those threads hold.
    """
    out.flush()  # no child may hold the header in a copy of the buffer
    # a ^C reaches the whole process group: the parent alone handles it
    pool = multiprocessing.get_context("fork").Pool(
        workers, signal.signal, (signal.SIGINT, signal.SIG_IGN))
    try:
        pending = collections.deque()
        for block in blocks:
            pending.append(pool.apply_async(_csv_rows, (block,)))
            del block  # hold no drawn block while a text is written
            if len(pending) == workers:
                out.write(pending.popleft().get())
        while pending:
            out.write(pending.popleft().get())
    finally:
        pool.terminate()
        pool.join()


def _split_count(count: int, streams: int) -> list[int]:
    base, extra = divmod(count, streams)
    return [base + (1 if k < extra else 0) for k in range(streams)]


def cmd_verify(cfg: JobConfig, csv_path: str, out_path: str | None) -> int:
    """Test ``_check_table`` in one pass over the CSV's blocks, merged by Chan's update."""
    plan = _feasible_plan(cfg)
    if plan is None:
        return 1
    table = _check_table(plan)
    mu, sd = np.array([moments(m) for m in plan.marginals]).T
    count, mean, m2 = 0, [0.0] * len(table), [0.0] * len(table)
    for x in _csv_blocks(csv_path, cfg.n):
        d = x - mu
        z = d / sd
        rows = len(x)
        for k, (kind, i, j, _, _) in enumerate(table):
            w = _ROW_STATISTIC[kind](x, d, z, i, j)
            bmean = float(w.mean())
            delta = bmean - mean[k]
            m2[k] += float(((w - bmean) ** 2).sum()) + delta ** 2 * count * rows / (count + rows)
            mean[k] += delta * rows / (count + rows)
        count += rows
    if count < 2:
        raise ConfigError(f"{csv_path}: needs at least 2 data rows")
    checks = []
    for (kind, i, j, target, row_sd), observed, ss in zip(table, mean, m2):
        se = (math.sqrt(ss / (count - 1)) if row_sd is None else row_sd) / math.sqrt(count)
        dev = observed - target
        score = dev / se if se else 0.0 if abs(dev) <= 1e-12 else Z_HUGE
        checks.append({"kind": kind, "coords": [i + 1] if i == j else [i + 1, j + 1],
                       "target": target, "observed": observed, "z": score})
    max_z = max(abs(c["z"]) for c in checks)
    doc = {"count": count, "checks": checks, "max_abs_z": max_z, "pass": max_z <= Z_LIMIT}
    with _output(out_path) as out:
        out.write(json.dumps(doc, indent=2) + "\n")
    return 0 if doc["pass"] else 1


#: a check's statistic of each row of a block x, with d = x - mean and z = d / sd
_ROW_STATISTIC = {
    "mean": lambda x, d, z, i, j: x[:, i],
    "variance": lambda x, d, z, i, j: d[:, i] * d[:, j],
    "correlation": lambda x, d, z, i, j: z[:, i] * z[:, j],
    "concurrence": lambda x, d, z, i, j: x[:, i] == x[:, j],
}


def _check_table(plan: SamplingPlan) -> list[tuple]:
    """verify's checks in report order: (kind, i, j, target, a row's sd or None to estimate)."""
    table = []
    for i, (mu, sd) in enumerate(map(moments, plan.marginals)):
        table += [("mean", i, i, mu, sd), ("variance", i, i, sd ** 2, None)]
    for i, j in itertools.combinations(range(plan.n), 2):
        table.append(("correlation", i, j, plan.target_corr.entry(i, j), None))
        t = _concurrence_target(plan, i, j)
        if t is not None:
            table.append(("concurrence", i, j, t, math.sqrt(t * (1.0 - t))))
    return table


def _csv_blocks(path: str, n: int):
    """The CSV's data rows, ``np.loadtxt`` of CHUNK_ROWS lines at a time."""
    try:
        # an undecodable byte reads as U+FFFD, so its line is malformed
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            header = fh.readline().strip()
            if header.split(",") != [f"x{i + 1}" for i in range(n)]:
                raise ConfigError(f"{path}: expected header x1,...,x{n}, got {header!r}")
            for b, lines in enumerate(iter(lambda: list(itertools.islice(fh, CHUNK_ROWS)), [])):
                block = _numbers(lines, n)
                if block is None:
                    k = next((k for k, line in enumerate(lines) if _numbers([line], n) is None), 0)
                    raise ConfigError(f"{path}: malformed CSV: data row {b * CHUNK_ROWS + k + 1} "
                                      f"is not {n} finite numbers: {lines[k].strip()[:80]!r}")
                if block.size:
                    yield block
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _numbers(lines: list[str], n: int) -> np.ndarray | None:
    """``np.loadtxt`` of ``lines`` if it reads no row or n columns of finite
    numbers (a nan would hide from max |z|), else None."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a blank line is "no data"
        try:
            block = np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError:
            return None
    return block if block.size == 0 or block.shape[1] == n and np.isfinite(block).all() else None


def _concurrence_target(plan: SamplingPlan, i: int, j: int) -> float | None:
    """Expected P(X_i = X_j), where it has a clean closed form.

    Bernoulli pairs: conditioning on whether the driving coins agree gives
    lambda*(1 - |p - q|) + (1 - lambda)*|1 - p - q|.  Identical continuous
    marginals: the pair coincides exactly when the coins agree and almost
    never otherwise, so the target is lambda itself.  Other pairs: skipped.
    """
    mi, mj = plan.marginals[i], plan.marginals[j]
    lam = plan.lam.entry(i, j)
    if mi.family == "bernoulli" and mj.family == "bernoulli":
        p, q = mi.params[0], mj.params[0]
        return lam * (1.0 - abs(p - q)) + (1.0 - lam) * abs(1.0 - p - q)
    if mi == mj and mi.family in ("uniform", "exponential", "normal"):
        return lam
    return None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhmix",
        description="Simulate random vectors with fixed marginals and pairwise correlations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, extra in (
        ("bounds", "print pairwise correlation extremes"),
        ("plan", "compile a sampling plan and report feasibility"),
        ("sample", "generate samples as CSV"),
        ("verify", "check a CSV of samples against the job targets"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", required=True, help="path to the JSON job config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if name == "sample":
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
            p.add_argument("--streams", type=int, default=None,
                           help="override the config stream count")
        if name == "verify":
            p.add_argument("csv", help="CSV file produced by the sample command")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "bounds":
            return cmd_bounds(cfg, args.out)
        if args.command == "plan":
            return cmd_plan(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.csv, args.out)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        if args.streams is not None and args.streams < 1:
            raise ConfigError("--streams must be >= 1")
        cfg = replace(cfg, seed=cfg.seed if args.seed is None else args.seed,
                      streams=cfg.streams if args.streams is None else args.streams)
        return cmd_sample(cfg, args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FhmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

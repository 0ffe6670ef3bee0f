"""Command-line front end.

Subcommands: ``bounds`` (pairwise correlation extremes), ``plan`` (compile
and report a sampling plan), ``sample`` (emit CSV), ``verify`` (check a CSV
against the job's targets).  Exit codes: 0 success, 1 infeasible or failed
verification or any other library error, 2 usage/parse errors.

``sample`` draws, formats and writes ``CHUNK_ROWS`` rows at a time, in one
process; each value's text is exactly its ``repr``, built for a whole block
at once by :func:`fhmix.csvtext.csv_bytes`.

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
import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bernoulli_joint import ConcurrenceMatrix
from .csvtext import csv_bytes
from .errors import ConfigError, FhmixError
from .marginals import _FAMILY_FIELDS, MarginalSpec, moments
from .sampler import (
    CorrelationMatrix,
    SamplingPlan,
    _batch_values,
    _generator,
    build_plan,
    build_plan_from_concurrence,
)

Z_LIMIT = 4.0
# stand-in for an infinite z-score; keeps the verify report strict JSON
Z_HUGE = 1e18
#: rows drawn, formatted and written at a time by ``sample`` (and read at a
#: time by ``verify``): bounds the rows and CSV text held at once, and is at
#: most the sampler's ``PIECE_ROWS``, so drawing a block starts no thread
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
        sys.stdout.flush()
        return contextlib.nullcontext(sys.stdout.buffer)
    return open(path, "wb")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_bounds(cfg: JobConfig, out_path: str | None) -> int:
    from .sampler import pairwise_extremes

    table = pairwise_extremes(cfg.marginals)
    with _output(out_path) as out:
        out.write(b"i,j,rho_minus,rho_plus\n")
        for i in range(cfg.n):
            for j in range(i + 1, cfg.n):
                ext = table[i][j]
                out.write(f"{i + 1},{j + 1},{ext.rho_minus:.6f},{ext.rho_plus:.6f}\n".encode())
    return 0


def cmd_plan(cfg: JobConfig, out_path: str | None) -> int:
    plan = _plan_from_config(cfg)
    doc = {
        "n": plan.n,
        "marginals": [str(m) for m in plan.marginals],
        "lambda": plan.lam.entries.tolist(),
        "target_correlation": plan.target_corr.entries.tolist(),
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
        out.write((json.dumps(doc, indent=2) + "\n").encode())
    if not plan.feasible:
        print(plan.diagnostics, file=sys.stderr)
        return 1
    return 0


def cmd_sample(cfg: JobConfig, out_path: str | None) -> int:
    """Write the rows of ``sample_batch`` for each stream, CHUNK_ROWS at a time.

    Each block is drawn, turned into its CSV bytes (each value's ``repr``,
    :func:`fhmix.csvtext.csv_bytes`) and written, in row order.
    """
    plan = _feasible_plan(cfg)
    if plan is None:
        return 1
    with _output(out_path) as out:
        out.write((",".join(f"x{i + 1}" for i in range(cfg.n)) + "\n").encode())
        for block in _blocks(plan, cfg.seed, _split_count(cfg.count, cfg.streams)):
            out.write(csv_bytes(block))
    return 0


def _blocks(plan: SamplingPlan, seed: int, counts: list[int]):
    """Each stream's rows in turn, CHUNK_ROWS at a time."""
    for stream_id, c in enumerate(counts):
        rng = _generator(seed, stream_id)
        for start in range(0, c, CHUNK_ROWS):
            yield _batch_values(plan, min(CHUNK_ROWS, c - start), rng)


def _split_count(count: int, streams: int) -> list[int]:
    """Rows per stream, for the first min(count, streams): the rest get none."""
    base, extra = divmod(count, streams)
    return [base + (1 if k < extra else 0) for k in range(min(count, streams))]


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
        out.write((json.dumps(doc, indent=2) + "\n").encode())
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
                data = [line for line in lines if line.strip()]  # a blank line is no row
                if not data:
                    continue
                block = _numbers(data, n)
                if block is None:
                    k = next((k for k, line in enumerate(lines)
                              if line.strip() and _numbers([line], n) is None), 0)
                    raise ConfigError(f"{path}: malformed CSV: data row {b * CHUNK_ROWS + k + 1} "
                                      f"is not {n} finite numbers: {lines[k].strip()[:80]!r}")
                yield block
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _numbers(lines: list[str], n: int) -> np.ndarray | None:
    """``np.loadtxt`` of nonblank ``lines`` if each is n finite numbers (a nan
    would hide from max |z|), else None; '#' starts no comment."""
    try:
        block = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    return block if block.shape[1] == n and np.isfinite(block).all() else None


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
        seed = cfg.seed if args.seed is None else _require_int(args.seed, "--seed", 0)
        streams = (cfg.streams if args.streams is None
                   else _require_int(args.streams, "--streams", 1))
        return cmd_sample(replace(cfg, seed=seed, streams=streams), args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FhmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import contextlib
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bernoulli_joint import ConcurrenceMatrix
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
#: rows drawn and written at a time by ``sample``: bounds the CSV text held
#: per write, a smaller block than the sampler's chunk
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
    """Write the rows of ``sample_batch`` for each stream, CHUNK_ROWS at a time."""
    plan = _feasible_plan(cfg)
    if plan is None:
        return 1
    row = ",".join(["%r"] * cfg.n) + "\n"
    with _output(out_path) as out:
        out.write(",".join(f"x{i + 1}" for i in range(cfg.n)) + "\n")
        for stream_id, c in enumerate(_split_count(cfg.count, cfg.streams)):
            rng = _generator(cfg.seed, stream_id)
            for start in range(0, c, CHUNK_ROWS):
                rows = min(CHUNK_ROWS, c - start)
                block = _batch_values(plan, rows, rng)
                out.write(row * rows % tuple(block.ravel().tolist()))
    return 0


def _split_count(count: int, streams: int) -> list[int]:
    base, extra = divmod(count, streams)
    return [base + (1 if k < extra else 0) for k in range(streams)]


def cmd_verify(cfg: JobConfig, csv_path: str, out_path: str | None) -> int:
    plan = _feasible_plan(cfg)
    if plan is None:
        return 1
    data = _load_csv(csv_path, cfg.n)
    checks = _verification_checks(plan, data)
    max_z = max(abs(c["z"]) for c in checks)
    ok = bool(max_z <= Z_LIMIT)
    doc = {"count": int(data.shape[0]), "checks": checks,
           "max_abs_z": max_z, "pass": ok}
    with _output(out_path) as out:
        out.write(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


def _load_csv(path: str, n: int) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header.split(",") != [f"x{i + 1}" for i in range(n)]:
                raise ConfigError(
                    f"{path}: expected header x1,...,x{n}, got {header!r}"
                )
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed CSV: {exc}") from exc
    if data.size == 0 or data.shape[0] < 2:
        raise ConfigError(f"{path}: needs at least 2 data rows")
    if data.shape[1] != n:
        raise ConfigError(f"{path}: expected {n} columns, got {data.shape[1]}")
    return data


def _verification_checks(plan: SamplingPlan, data: np.ndarray) -> list[dict]:
    count = data.shape[0]
    checks: list[dict] = []
    mus, sds = [], []
    for i, m in enumerate(plan.marginals):
        mu, sd = moments(m)
        mus.append(mu)
        sds.append(sd)
        x = data[:, i]
        checks.append({
            "kind": "mean", "coords": [i + 1], "target": mu,
            "observed": float(x.mean()),
            "z": _mean_z(x, mu, sd / math.sqrt(count)),
        })
        w = (x - mu) ** 2
        checks.append({
            "kind": "variance", "coords": [i + 1], "target": sd ** 2,
            "observed": float(w.mean()),
            "z": _mean_z(w, sd ** 2, None),
        })
    for i in range(plan.n):
        for j in range(i + 1, plan.n):
            zi = (data[:, i] - mus[i]) / sds[i]
            zj = (data[:, j] - mus[j]) / sds[j]
            w = zi * zj
            checks.append({
                "kind": "correlation", "coords": [i + 1, j + 1],
                "target": plan.target_corr.entry(i, j),
                "observed": float(w.mean()),
                "z": _mean_z(w, plan.target_corr.entry(i, j), None),
            })
            t = _concurrence_target(plan, i, j)
            if t is not None:
                p_hat = float((data[:, i] == data[:, j]).mean())
                se = math.sqrt(t * (1.0 - t) / count)
                if se == 0.0:
                    z = 0.0 if p_hat == t else Z_HUGE
                else:
                    z = (p_hat - t) / se
                checks.append({
                    "kind": "concurrence", "coords": [i + 1, j + 1],
                    "target": t, "observed": p_hat, "z": z,
                })
    return checks


def _mean_z(w: np.ndarray, target: float, se: float | None) -> float:
    if se is None:
        spread = float(w.std(ddof=1))
        if spread == 0.0:
            return 0.0 if abs(float(w.mean()) - target) <= 1e-12 else Z_HUGE
        se = spread / math.sqrt(w.shape[0])
    return float((w.mean() - target) / se)


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

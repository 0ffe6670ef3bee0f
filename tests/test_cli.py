import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fhmix import cli, sampler
from fhmix.cli import main, parse_config, serialize_config
from fhmix.errors import ConfigError, NumericalError


def write_config(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def exp_pair(count=100, seed=7, **extra):
    doc = {
        "marginals": [
            {"family": "exponential", "rate": 1.0},
            {"family": "exponential", "rate": 1.0},
        ],
        "correlation": [0.0],
        "count": count,
        "seed": seed,
    }
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_roundtrip_is_idempotent():
    text = json.dumps(exp_pair(alpha_policy={"explicit": 0.1}))
    cfg = parse_config(text)
    once = serialize_config(cfg)
    assert serialize_config(parse_config(once)) == once
    assert parse_config(once) == cfg


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("correlation"),
        lambda d: d.update(concurrence=[0.5]),          # both matrices present
        lambda d: d.update(correlation=[0.1, 0.2]),     # wrong triangle length
        lambda d: d.update(count=0),
        lambda d: d.update(seed=-1),
        lambda d: d.update(alpha_policy="explicit"),
        lambda d: d.update(marginals=[{"family": "exponential", "rate": 1.0}]),
        lambda d: d.update(marginals=[{"family": "exponential", "rate": -1.0}] * 2),
        lambda d: d.update(marginals=[{"family": "what", "rate": 1.0}] * 2),
        lambda d: d.update(extra_key=1),
    ],
)
def test_config_validation_errors(mutate):
    doc = exp_pair()
    mutate(doc)
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


def _empirical_first(values, weights=None):
    def mutate(d):
        d["marginals"][0] = {"family": "empirical", "values": values}
        if weights is not None:
            d["marginals"][0]["weights"] = weights
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(count=True),
        lambda d: d.update(seed=False),
        lambda d: d.update(streams=True),
        _empirical_first([0.0, "1"]),
        _empirical_first([0.0, True]),
        _empirical_first([0.0, "a"]),
        _empirical_first([0.0, None]),
        _empirical_first([0.0, [2]]),
        _empirical_first([0.0, 10 ** 400]),
        _empirical_first([0.0, 1.0], [0.5, "0.5"]),
        _empirical_first([0.0, 1.0], [0.5, None]),
        _empirical_first([0.0, 1.0], [0.5, [0.5]]),
    ],
    ids=["count-true", "seed-false", "streams-true", "value-string", "value-true",
         "value-letter", "value-null", "value-list", "value-huge-int", "weight-string",
         "weight-null", "weight-list"],
)
def test_non_numbers_and_booleans_are_usage_errors(tmp_path, capsys, mutate):
    doc = exp_pair()
    mutate(doc)
    path = write_config(tmp_path, doc)
    assert main(["sample", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_rejects_bad_json():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_empirical_marginal_roundtrip():
    doc = {
        "marginals": [
            {"family": "empirical", "values": [0.0, 1.0, 2.0], "weights": [0.5, 0.25, 0.25]},
            {"family": "uniform", "a": 0.0, "b": 1.0},
        ],
        "concurrence": [0.5],
        "count": 10,
        "seed": 3,
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.concurrence == (0.5,)
    assert parse_config(serialize_config(cfg)) == cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_bounds_command_output(tmp_path, capsys):
    path = write_config(tmp_path, exp_pair())
    assert main(["bounds", "--config", path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "i,j,rho_minus,rho_plus"
    assert out[1] == "1,2,-0.644934,1.000000"


def test_bounds_mixed_pair_below_one(tmp_path, capsys):
    doc = exp_pair()
    doc["marginals"][0] = {"family": "uniform", "a": 0.0, "b": 1.0}
    path = write_config(tmp_path, doc)
    assert main(["bounds", "--config", path]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    rho_plus = float(row.split(",")[3])
    assert rho_plus < 1.0


def test_plan_command_feasible(tmp_path, capsys):
    doc = {
        "marginals": [{"family": "uniform", "a": 0.0, "b": 1.0}] * 4,
        "correlation": [0.0] * 6,
        "count": 10,
        "seed": 1,
    }
    path = write_config(tmp_path, doc)
    assert main(["plan", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["recipe"] == "quadrivariate"
    lo, hi = doc["alpha_interval"]
    assert lo == pytest.approx(0.0, abs=1e-8)
    assert hi == pytest.approx(0.25, abs=1e-8)


def test_plan_command_infeasible_cites_sum(tmp_path, capsys):
    doc = {
        "marginals": [{"family": "bernoulli", "p": 0.5}] * 3,
        "correlation": [-0.4, -0.4, -0.4],
        "count": 10,
        "seed": 1,
    }
    path = write_config(tmp_path, doc)
    assert main(["plan", "--config", path]) == 1
    captured = capsys.readouterr()
    assert "0.9" in captured.err and "1" in captured.err
    assert json.loads(captured.out)["feasible"] is False


def test_plan_command_on_a_concurrence_config(tmp_path, capsys):
    doc = {
        "marginals": [{"family": "bernoulli", "p": 0.5}] * 4,
        "concurrence": [0.0] * 6,
    }
    path = write_config(tmp_path, doc)
    assert main(["plan", "--config", path]) == 1
    captured = capsys.readouterr()
    diagnostics = ("infeasible concurrence matrix: alpha lower bound 0.000000 (from 4-cycle "
                   "sums) exceeds upper bound -0.500000 (from the minimum triangle sum)")
    assert captured.err == diagnostics + "\n"
    report = json.loads(captured.out)
    assert report["feasible"] is False and report["recipe"] is None
    assert report["diagnostics"] == diagnostics
    assert report["lambda"][0] == [1.0, 0.0, 0.0, 0.0]


def test_explicit_alpha_at_n5_exits_one(tmp_path, capsys):
    doc = {
        "marginals": [{"family": "uniform", "a": 0.0, "b": 1.0}] * 5,
        "correlation": [0.0] * 10,
        "alpha_policy": {"explicit": 7.5},
    }
    path = write_config(tmp_path, doc)
    assert main(["plan", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alpha applies to n = 3 and 4 only, not to n = 5\n"


@pytest.mark.parametrize("command", [["bounds"], ["plan"], ["verify", "x.csv"]])
@pytest.mark.parametrize("flag", [["--seed", "1"], ["--streams", "9"]])
def test_seed_and_streams_belong_to_sample(tmp_path, capsys, command, flag):
    path = write_config(tmp_path, exp_pair())
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", path, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_plan_unachievable_target_exits_one(tmp_path, capsys):
    doc = exp_pair()
    doc["correlation"] = [-0.9]
    path = write_config(tmp_path, doc)
    assert main(["plan", "--config", path]) == 1
    assert "achievable" in capsys.readouterr().err


def test_sample_deterministic_and_seed_override(tmp_path):
    path = write_config(tmp_path, exp_pair(count=50))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sample", "--config", path, "--out", str(out1)]) == 0
    assert main(["sample", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    out3 = tmp_path / "c.csv"
    assert main(["sample", "--config", path, "--seed", "8", "--out", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_sample_antithetic_rows(tmp_path):
    doc = {
        "marginals": [{"family": "uniform", "a": 0.0, "b": 1.0}] * 2,
        "correlation": [-1.0],
        "count": 200,
        "seed": 4,
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "anti.csv"
    assert main(["sample", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 201
    for line in lines[1:]:
        x1, x2 = (float(v) for v in line.split(","))
        assert x2 == 1.0 - x1


def test_sample_respects_streams(tmp_path):
    path = write_config(tmp_path, exp_pair(count=101, streams=4))
    out = tmp_path / "s.csv"
    assert main(["sample", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 102
    # single-stream output differs but has the same shape
    out1 = tmp_path / "s1.csv"
    assert main(["sample", "--config", path, "--streams", "1", "--out", str(out1)]) == 0
    assert out1.read_text().splitlines()[0] == lines[0]
    assert out1.read_bytes() != out.read_bytes()


def test_sample_infeasible_writes_nothing(tmp_path, capsys):
    doc = {
        "marginals": [{"family": "bernoulli", "p": 0.5}] * 3,
        "correlation": [-0.4, -0.4, -0.4],
        "count": 10,
        "seed": 1,
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "never.csv"
    assert main(["sample", "--config", path, "--out", str(out)]) == 1
    assert not out.exists()


def test_roundtrip_values_parse_exactly(tmp_path):
    path = write_config(tmp_path, exp_pair(count=30))
    out = tmp_path / "r.csv"
    assert main(["sample", "--config", path, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    data = np.array([[float(v) for v in row] for row in rows])
    from fhmix import CorrelationMatrix, build_plan, sample_batch
    from fhmix.cli import parse_config as pc

    cfg = pc((tmp_path / "job.json").read_text())
    plan = build_plan(cfg.marginals, CorrelationMatrix.from_lower_triangle([0.0], 2))
    expected = sample_batch(plan, 30, seed=cfg.seed, stream_id=0).values
    assert np.array_equal(data, expected)


def test_verify_accepts_good_samples(tmp_path, capsys):
    doc = {
        "marginals": [
            {"family": "uniform", "a": 0.0, "b": 1.0},
            {"family": "bernoulli", "p": 0.5},
            {"family": "bernoulli", "p": 0.3},
        ],
        "correlation": [0.3, 0.0, 0.2],
        "count": 100_000,
        "seed": 12,
    }
    path = write_config(tmp_path, doc)
    csv = tmp_path / "data.csv"
    assert main(["sample", "--config", path, "--out", str(csv)]) == 0
    assert main(["verify", "--config", path, str(csv)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["max_abs_z"] <= 4.0
    kinds = {c["kind"] for c in report["checks"]}
    assert kinds == {"mean", "variance", "correlation", "concurrence"}


def test_verify_catches_shuffled_column(tmp_path, capsys):
    doc = {
        "marginals": [
            {"family": "uniform", "a": 0.0, "b": 1.0},
            {"family": "uniform", "a": 0.0, "b": 1.0},
        ],
        "correlation": [0.8],
        "count": 50_000,
        "seed": 12,
    }
    path = write_config(tmp_path, doc)
    csv = tmp_path / "data.csv"
    assert main(["sample", "--config", path, "--out", str(csv)]) == 0

    lines = csv.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rng = np.random.default_rng(0)
    col2 = [r[1] for r in rows]
    rng.shuffle(col2)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(
        lines[0] + "\n" + "\n".join(f"{r[0]},{c}" for r, c in zip(rows, col2)) + "\n"
    )
    assert main(["verify", "--config", path, str(shuffled)]) == 1
    report = json.loads(capsys.readouterr().out)
    corr_z = [c["z"] for c in report["checks"] if c["kind"] == "correlation"]
    assert max(abs(z) for z in corr_z) > 4.0


def test_verify_empty_file_is_parse_error(tmp_path, capsys):
    path = write_config(tmp_path, exp_pair())
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["verify", "--config", path, str(empty)]) == 2


def test_missing_config_is_usage_error(tmp_path):
    assert main(["plan", "--config", str(tmp_path / "nope.json")]) == 2


def test_capacity_error_exits_one(tmp_path, capsys):
    doc = {
        "marginals": [{"family": "uniform", "a": 0.0, "b": 1.0}] * 13,
        "correlation": [0.0] * (13 * 12 // 2),
        "count": 10,
        "seed": 1,
    }
    path = write_config(tmp_path, doc)
    assert main(["plan", "--config", path]) == 1
    assert "n > 12" in capsys.readouterr().err


def test_non_string_family_is_usage_error(tmp_path, capsys):
    doc = exp_pair()
    doc["marginals"][0] = {"family": ["uniform"], "a": 0.0, "b": 1.0}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))
    path = write_config(tmp_path, doc)
    assert main(["bounds", "--config", path]) == 2
    assert "unknown family ['uniform']" in capsys.readouterr().err


def test_other_library_errors_exit_one_without_traceback(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise NumericalError("simplex ended on a wrong basis")

    monkeypatch.setattr(cli, "cmd_bounds", fail)
    path = write_config(tmp_path, exp_pair())
    assert main(["bounds", "--config", path]) == 1
    assert capsys.readouterr().err == "error: simplex ended on a wrong basis\n"


def test_sample_writes_sample_batch_in_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    path = write_config(tmp_path, exp_pair(count=101, streams=2))
    out = tmp_path / "chunked.csv"
    assert main(["sample", "--config", path, "--out", str(out)]) == 0
    from fhmix import CorrelationMatrix, build_plan, sample_batch

    cfg = parse_config((tmp_path / "job.json").read_text())
    plan = build_plan(cfg.marginals, CorrelationMatrix.from_lower_triangle([0.0], 2))
    rows = [row for stream_id, c in enumerate((51, 50))
            for row in sample_batch(plan, c, cfg.seed, stream_id).values.tolist()]
    assert out.read_text() == "x1,x2\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows)


def test_sample_memory_does_not_grow_with_count(tmp_path):
    doc = {
        "marginals": [{"family": "uniform", "a": 0.0, "b": 1.0},
                      {"family": "exponential", "rate": 1.0},
                      {"family": "normal", "mean": 0.0, "sd": 1.0},
                      {"family": "empirical", "values": [0.0, 1.0, 4.0]}],
        "correlation": [0.2, 0.1, 0.0, 0.1, 0.1, 0.1],
        "seed": 3,
    }

    def peak(count):
        path = write_config(tmp_path, dict(doc, count=count))
        tracemalloc.start()
        try:
            assert main(["sample", "--config", path, "--out", str(tmp_path / "m.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rows = 2 * cli.CHUNK_ROWS
    peak(10)  # one-time caches
    assert peak(4 * rows) <= 1.25 * peak(rows)


def n4_job(count, streams=1):
    """A job of several CLI blocks: n = 4 with an 8-atom empirical."""
    return {
        "marginals": [{"family": "uniform", "a": -1.0, "b": 2.0},
                      {"family": "exponential", "rate": 1.5},
                      {"family": "normal", "mean": 0.5, "sd": 2.0},
                      {"family": "empirical",
                       "values": [-3.0, -1.5, -0.25, 0.0, 0.5, 1.0, 2.5, 7.0],
                       "weights": [0.05, 0.1, 0.2, 0.15, 0.1, 0.2, 0.15, 0.05]}],
        "correlation": [0.3, -0.2, 0.1, 0.4, 0.0, -0.1],
        "count": count,
        "seed": 17,
        "streams": streams,
    }


def pool_runs(monkeypatch):
    """The worker counts of the pools ``sample`` starts from now on."""
    runs = []
    write_on_pool = cli._write_on_pool

    def spy(out, blocks, workers):
        runs.append(workers)
        write_on_pool(out, blocks, workers)

    monkeypatch.setattr(cli, "_write_on_pool", spy)
    return runs


@pytest.mark.parametrize("streams", [1, 3])
def test_pool_writes_the_rows_of_sample_batch(tmp_path, monkeypatch, streams):
    # several blocks per stream and a short last one, formatted on three
    # forked workers and, with one CPU, on the calling thread
    assert cli.CHUNK_ROWS <= sampler.CHUNK_ROWS  # so drawing a block starts no thread
    count = 3 * cli.CHUNK_ROWS + 17
    path = write_config(tmp_path, n4_job(count, streams))
    runs = pool_runs(monkeypatch)
    text = {}
    for cpus in ({0, 1, 2}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        out = tmp_path / f"{len(cpus)}.csv"
        assert main(["sample", "--config", path, "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        text[len(cpus)] = out.read_text()
    assert runs == [3]

    from fhmix import sample_batch

    cfg = parse_config((tmp_path / "job.json").read_text())
    plan = cli._plan_from_config(cfg)
    counts = [count // streams + (k < count % streams) for k in range(streams)]
    rows = [row for k, c in enumerate(counts)
            for row in sample_batch(plan, c, cfg.seed, k).values.tolist()]
    expected = "x1,x2,x3,x4\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert text[3] == expected
    assert text[1] == expected


def test_a_closed_stdout_pipe_is_one_error_line(tmp_path):
    # the reader leaves after 100 bytes while three forked workers format:
    # one error line, exit 2, and no worker left holding stderr open
    path = write_config(tmp_path, n4_job(3 * cli.CHUNK_ROWS + 17))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}; "
              "from fhmix.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.Popen([sys.executable, "-c", script, "sample", "--config", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert err.decode() == "error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_failed_out_write_stops_the_workers(tmp_path, capsys, monkeypatch):
    # --out is a pipe whose reader, another process, leaves after 100 bytes,
    # so a block's write fails while three forked workers format
    path = write_config(tmp_path, n4_job(3 * cli.CHUNK_ROWS + 17))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    runs = pool_runs(monkeypatch)
    r, w = os.pipe()
    reader = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.buffer.read(100)"],
                              stdin=r)
    os.close(r)
    try:
        assert main(["sample", "--config", path, "--out", f"/dev/fd/{w}"]) == 2
    finally:
        os.close(w)
        reader.kill()
        reader.wait(timeout=60)
    assert runs == [3]
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# verify in blocks
# ---------------------------------------------------------------------------

def coins_job(count):
    """n = 4 with concurrence checks: a Bernoulli pair and two equal uniforms."""
    return {
        "marginals": [{"family": "bernoulli", "p": 0.5}, {"family": "bernoulli", "p": 0.3},
                      {"family": "uniform", "a": 0.0, "b": 1.0},
                      {"family": "uniform", "a": 0.0, "b": 1.0}],
        "concurrence": [0.6, 0.5, 0.5, 0.5, 0.5, 0.7],
        "count": count,
        "seed": 5,
    }


def two_pass_checks(plan, data):
    """verify's checks over the whole array: each statistic's mean, then its spread."""
    from fhmix import moments

    mu, sd = np.array([moments(m) for m in plan.marginals]).T
    z = (data - mu) / sd
    stats = []  # (kind, coords, target, row statistic, its known sd or None)
    for i in range(plan.n):
        stats.append(("mean", [i + 1], mu[i], data[:, i], sd[i]))
        stats.append(("variance", [i + 1], sd[i] ** 2, (data[:, i] - mu[i]) ** 2, None))
    for i in range(plan.n):
        for j in range(i + 1, plan.n):
            stats.append(("correlation", [i + 1, j + 1], plan.target_corr.entry(i, j),
                          z[:, i] * z[:, j], None))
            t = cli._concurrence_target(plan, i, j)
            if t is not None:
                stats.append(("concurrence", [i + 1, j + 1], t,
                              (data[:, i] == data[:, j]).astype(float), np.sqrt(t * (1 - t))))
    checks = []
    for kind, coords, target, w, row_sd in stats:
        spread = w.std(ddof=1) if row_sd is None else row_sd
        if spread > 0.0:
            score = (w.mean() - target) * np.sqrt(len(w)) / spread
        else:  # as (x1 - 1/2)^2 for a fair coin
            score = 0.0 if abs(w.mean() - target) <= 1e-12 else cli.Z_HUGE
        checks.append({"kind": kind, "coords": coords, "target": target,
                       "observed": w.mean(), "z": score})
    return checks


@pytest.mark.parametrize("chunk_rows", [7, None], ids=["chunk-7", "chunk-default"])
@pytest.mark.parametrize("job", [n4_job, coins_job], ids=["n4", "coins"])
def test_verify_matches_a_two_pass_reference(tmp_path, capsys, monkeypatch, job, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    count = 2000 if chunk_rows else 2 * cli.CHUNK_ROWS + 17
    path = write_config(tmp_path, job(count))
    csv = tmp_path / "data.csv"
    assert main(["sample", "--config", path, "--out", str(csv)]) == 0
    status = main(["verify", "--config", path, str(csv)])
    report = json.loads(capsys.readouterr().out)

    plan = cli._plan_from_config(parse_config((tmp_path / "job.json").read_text()))
    expected = two_pass_checks(plan, np.loadtxt(csv, delimiter=",", skiprows=1))
    assert report["count"] == count
    assert [(c["kind"], c["coords"], c["target"]) for c in report["checks"]] == \
        [(c["kind"], c["coords"], c["target"]) for c in expected]
    for got, want in zip(report["checks"], expected):
        for key in ("observed", "z"):
            assert abs(got[key] - want[key]) <= 1e-9 * max(1.0, abs(want[key])), (got, key)
    assert report["max_abs_z"] == max(abs(c["z"]) for c in report["checks"])
    assert report["pass"] is (report["max_abs_z"] <= cli.Z_LIMIT)
    assert status == (0 if report["pass"] else 1)
    if job is coins_job:
        assert [c["coords"] for c in report["checks"] if c["kind"] == "concurrence"] == \
            [[1, 2], [3, 4]]


def test_verify_memory_does_not_grow_with_count(tmp_path):
    rows = 2 * cli.CHUNK_ROWS
    csvs = {}
    for count in (10, rows, 4 * rows):
        path = write_config(tmp_path, n4_job(count), f"job-{count}.json")
        csvs[count] = (path, str(tmp_path / f"{count}.csv"))
        assert main(["sample", "--config", path, "--out", csvs[count][1]]) == 0

    def peak(count):
        path, csv = csvs[count]
        tracemalloc.start()
        try:
            assert main(["verify", "--config", path, "--out", str(tmp_path / "v.json"), csv]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # one-time caches
    assert peak(4 * rows) <= 1.25 * peak(rows)


def _drop_last_field(line):
    return line.rsplit(",", 1)[0]


@pytest.mark.parametrize(
    "row, mutate",
    [
        (20001, _drop_last_field),
        (20001, lambda line: line + ",1.0"),
        (20001, lambda line: line.replace(",", ",a", 1)),
        (20001, lambda line: "nan," + line.split(",")[1]),
        (1 << 14, lambda line: line + ",1.0"),
        ((1 << 14) + 1, lambda line: line + ",1.0"),
    ],
    ids=["ragged", "over-wide", "not-a-number", "nan", "last-of-a-block", "first-of-a-block"],
)
def test_verify_names_the_data_row_of_a_malformed_line(tmp_path, capsys, row, mutate):
    assert cli.CHUNK_ROWS == 1 << 14  # so each bad row is in a later block
    path = write_config(tmp_path, exp_pair(count=25_000))
    csv = tmp_path / "data.csv"
    assert main(["sample", "--config", path, "--out", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    lines[row] = mutate(lines[row])  # lines[0] is the header
    csv.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", path, str(csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {csv}: malformed CSV: data row {row} is not 2 finite numbers: ")


@pytest.mark.parametrize("body", ["", "0.5,0.25\n"], ids=["header-only", "one-row"])
def test_verify_needs_two_data_rows(tmp_path, capsys, body):
    path = write_config(tmp_path, exp_pair())
    csv = tmp_path / "short.csv"
    csv.write_text("x1,x2\n" + body)
    assert main(["verify", "--config", path, str(csv)]) == 2
    assert capsys.readouterr().err == f"error: {csv}: needs at least 2 data rows\n"


@pytest.mark.filterwarnings("error")
def test_verify_skips_blank_lines_and_blocks_of_them(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    path = write_config(tmp_path, exp_pair(count=30))
    csv = tmp_path / "data.csv"
    assert main(["sample", "--config", path, "--out", str(csv)]) == 0
    assert main(["verify", "--config", path, str(csv)]) == 0
    plain = capsys.readouterr().out
    lines = csv.read_text().splitlines()
    # a blank line inside a block, then a whole block of them (lines 15-21)
    padded = lines[:4] + [""] + lines[4:14] + [""] * 7 + lines[14:] + ["", ""]
    csv.write_text("\n".join(padded) + "\n")
    assert main(["verify", "--config", path, str(csv)]) == 0
    padded_report = json.loads(capsys.readouterr().out)
    plain_report = json.loads(plain)
    assert padded_report["count"] == plain_report["count"] == 30
    for got, want in zip(padded_report["checks"], plain_report["checks"]):
        assert got == {**want, "observed": pytest.approx(want["observed"], rel=1e-12),
                       "z": pytest.approx(want["z"], rel=1e-12, abs=1e-12)}


def test_verify_header_and_undecodable_byte_errors(tmp_path, capsys):
    path = write_config(tmp_path, exp_pair())
    csv = tmp_path / "bad.csv"
    csv.write_text("x1,x3\n0.5,0.25\n0.5,0.75\n")
    assert main(["verify", "--config", path, str(csv)]) == 2
    assert capsys.readouterr().err == f"error: {csv}: expected header x1,...,x2, got 'x1,x3'\n"
    csv.write_bytes(b"x1,x2\n0.5,0.25\n0.5,\xff\n")
    assert main(["verify", "--config", path, str(csv)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {csv}: malformed CSV: data row 2 is not 2 finite numbers: ")

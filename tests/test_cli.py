import json
import tracemalloc

import numpy as np
import pytest

from fhmix import cli
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

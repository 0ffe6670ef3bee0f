import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

from fhmix import kernels
from helpers import standard_normal_quantile, ulps

SIMD_LIMIT = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def log_kernel(x: np.ndarray) -> np.ndarray:
    x = np.array(x, dtype=float)
    return kernels.log_into(x, np.empty((5, len(x))))


def ndtri_kernel(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    n = len(u)
    work = np.empty(n), np.empty(n), np.empty((kernels.TAIL_ROWS, n))
    return kernels.ndtri_into(u, np.empty(n), work)


def error_in_ulps(got: float, exact) -> float:
    """|got - exact| in units of the spacing at the double nearest exact."""
    return float(abs(mpmath.mpf(got) - exact) / math.ulp(abs(float(exact))))


def test_log_is_within_one_ulp_of_the_true_log():
    rng = np.random.default_rng(11)
    subnormal = rng.integers(1, 2 ** 52, 300).view(np.float64)
    near_one = np.concatenate([1.0 + np.arange(-300, 301) * 2.0 ** -52,
                               1.0 + rng.uniform(-2e-3, 2e-3, 600)])
    x = np.concatenate([
        rng.random(20_000),
        2.0 ** rng.uniform(-1074.0, 1024.0, 10_000),
        subnormal,
        2.0 ** np.arange(-1074.0, 1024.0),
        near_one,
        [math.sqrt(0.5), math.sqrt(2.0), np.nextafter(math.sqrt(2.0), 0.0), 1.0, 2.0 ** -1022,
         np.nextafter(2.0 ** -1022, 0.0), 5e-324, 1.7976931348623157e308],
    ])
    x = x[(x > 0.0) & np.isfinite(x)]
    got = log_kernel(x)
    with mpmath.workdps(40):
        worst = max(error_in_ulps(g, mpmath.log(mpmath.mpf(float(v))))
                    for g, v in zip(got.tolist(), x.tolist()) if v != 1.0)
    assert worst < 1.0
    assert got[x == 1.0].tolist() == [0.0] * int((x == 1.0).sum())


def test_the_central_branch_equals_the_standard_library_bit_for_bit():
    rng = np.random.default_rng(12)
    edges = np.array([0.075, 0.925, 0.5])
    u = np.concatenate([rng.uniform(0.075, 0.925, 30_000), edges,
                        np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = u[np.abs(u - 0.5) <= 0.425]
    assert ndtri_kernel(u).tobytes() == standard_normal_quantile(u).tobytes()


def test_the_tails_are_within_four_ulp_of_the_standard_library():
    rng = np.random.default_rng(13)
    low = np.concatenate([rng.uniform(0.0, 0.075, 6000), 10.0 ** -rng.uniform(2.0, 300.0, 2000),
                          rng.integers(1, 2 ** 20, 500) * 2.0 ** -53])
    u = np.concatenate([low, 1.0 - low[:6000]])
    u = u[(u > 0.0) & (u < 1.0) & (np.abs(u - 0.5) > 0.425)]
    assert ulps(ndtri_kernel(u), standard_normal_quantile(u)).max() <= 4


def true_normal_quantile(p: float) -> float:
    """Newton on the normal cdf at 40 digits, from the standard library's value."""
    with mpmath.workdps(40):
        z = mpmath.mpf(float(standard_normal_quantile([p])[0]))
        for _ in range(4):
            z -= (mpmath.erfc(-z / mpmath.sqrt(2)) / 2 - p) / mpmath.npdf(z)
        return float(z)


def test_the_deep_tails_are_within_eight_ulp_of_the_true_quantile():
    # down to the least subnormal, through the branch for u below e^-25
    rng = np.random.default_rng(14)
    p = np.concatenate([10.0 ** -rng.uniform(1.2, 323.0, 300),
                        [5e-324, 2.0 ** -1022, 1e-300, 1.3e-11, 1.4e-11]])
    exact = np.array([true_normal_quantile(v) for v in p.tolist()])
    assert ulps(ndtri_kernel(p), exact).max() <= 8
    assert (np.sqrt(-np.log(p)) > 5.0).sum() > 200


def test_the_quantile_is_odd_wherever_the_mirror_is_exact():
    # 1 - u is exact for u >= 1/2 and for multiples of 2^-53
    rng = np.random.default_rng(15)
    u = np.concatenate([rng.uniform(0.5, 1.0, 20_000), rng.integers(1, 2 ** 53, 20_000) * 2.0 ** -53,
                        [0.5, 0.075, 0.925, 2.0 ** -53, 1.0 - 2.0 ** -53]])
    u = u[1.0 - (1.0 - u) == u]
    assert np.array_equal(ndtri_kernel(1.0 - u), -ndtri_kernel(u))


def test_empty_arrays_pass_through():
    assert ndtri_kernel(np.empty(0)).size == 0
    assert log_kernel(np.empty(0)).size == 0


def test_plans_and_samples_do_not_follow_numpys_simd_dispatch(tmp_path):
    # the extremes of this empirical/normal pair read a different last bit
    # under SIMD_LIMIT when the normal primitive takes numpy's exp
    job = tmp_path / "job.json"
    job.write_text(
        '{"marginals": [{"family": "uniform", "a": -1.0, "b": 2.0},'
        ' {"family": "normal", "mean": 0.5, "sd": 2.0}, {"family": "bernoulli", "p": 0.35},'
        ' {"family": "empirical", "values": [-1.0, 4.0, 6.0, 7.0, 8.0],'
        ' "weights": [0.125, 0.375, 0.025, 0.275, 0.2]}],'
        ' "correlation": [0.3, -0.2, 0.1, 0.4, 0.0, -0.1], "count": 50000, "seed": 17}')
    report = (
        "import sys\n"
        "from fhmix import cli\n"
        "cfg = cli.parse_config(open(sys.argv[1]).read())\n"
        "plan = cli._plan_from_config(cfg)\n"
        "print(repr(plan.extremes), plan.lam.entries.tolist(), plan.recipe.pmf.probs.tolist())\n"
    )
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def outputs(extra):
        runs = [["-m", "fhmix.cli", "plan", "--config", str(job)],
                ["-m", "fhmix.cli", "sample", "--config", str(job)],
                ["-c", report, str(job)]]
        return [subprocess.run([sys.executable, *args], env={**env, **extra}, check=True,
                               capture_output=True, timeout=300).stdout for args in runs]

    plain, limited = outputs({}), outputs(SIMD_LIMIT)
    assert len(plain[1]) > 50_000 * 4 * 2
    assert plain == limited

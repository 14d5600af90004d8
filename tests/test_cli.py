import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmeasure
from gmeasure import cli, coupling
from gmeasure.cli import main
from gmeasure.renewal import RenewalSpec, build_alphabeta, renewal_solve
from oracles import csv_cell_by_cell, renewal_limit

INT64 = np.iinfo(np.int64)

MEM1_MODEL = """
variant = finite_memory
alphabet = 0,1
memory = 1
table[00] = 0.3
table[10] = 0.7
table[01] = 0.6
table[11] = 0.4
"""

LONGRANGE_MODEL = """
variant = long_range_linear
alphabet = 0,1
theta = 0.25
coeff_law = power_law
coeff_p = 2
coeff_mass = 0.5
"""

# the benchmark's exponential model
EXPONENTIAL_MODEL = LONGRANGE_MODEL.replace(
    "coeff_law = power_law\ncoeff_p = 2", "coeff_law = exponential\ncoeff_r = 0.7")

MODELS = {
    "mem1": MEM1_MODEL,
    "longrange": LONGRANGE_MODEL,
    "exponential": EXPONENTIAL_MODEL,
    "exponential_c": EXPONENTIAL_MODEL.replace("coeff_mass = 0.5", "coeff_c = 0.2"),
    # model files of the BAD_INPUTS rows
    "bad_table": MEM1_MODEL.replace("0.3", "x"),
    "nan_mass": LONGRANGE_MODEL.replace("coeff_mass = 0.5", "coeff_mass = nan"),
    "zero_ratio": EXPONENTIAL_MODEL.replace("coeff_r = 0.7", "coeff_r = 0"),
    "fractional_memory": MEM1_MODEL.replace("memory = 1", "memory = 1.5"),
    "memory_40": MEM1_MODEL.replace("memory = 1", "memory = 40"),
    "memory_100": MEM1_MODEL.replace("memory = 1", "memory = 100"),
}


def write_models(tmp_path):
    """Every MODELS text written to ``tmp_path``: {name: path}."""
    paths = {name: tmp_path / f"{name}.gmodel" for name in MODELS}
    for name, path in paths.items():
        path.write_text(MODELS[name])
    return paths


@pytest.fixture
def mem1_file(tmp_path):
    path = tmp_path / "mem1.gmodel"
    path.write_text(MEM1_MODEL)
    return path


@pytest.fixture
def longrange_file(tmp_path):
    path = tmp_path / "longrange.gmodel"
    path.write_text(LONGRANGE_MODEL)
    return path


def read_csv_rows(path):
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return rows[0].split(","), [r.split(",") for r in rows[1:]]


def test_renewal_subcommand_final_value(tmp_path):
    out = tmp_path / "renewal"
    rc = main(["renewal", "--d", "0.5", "--b", "2,2", "--K", "1",
               "--n-max", "200", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out / "renewal_u.csv")
    assert header == ["n", "u_n"]
    assert float(rows[-1][1]) == pytest.approx(2 / 3, abs=1e-9)
    header, rows = read_csv_rows(out / "renewal_limit.csv")
    assert float(rows[-1][1]) == pytest.approx(2 / 3, abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"renewal_u.csv", "renewal_limit.csv"}


def test_criteria_subcommand_verdicts(tmp_path):
    out = tmp_path / "criteria"
    rc = main(["criteria", "--variation", "power_law:c=1,p=2", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "criteria.json").read_text())
    verdicts = {r["criterion"]: r["verdict"] for r in report["reports"]}
    assert verdicts["square_summable_variation"] == "satisfied"
    assert verdicts["variation_o_sqrt"] == "satisfied"
    assert verdicts["geometric_window_sums"] == "satisfied"


def test_transfer_subcommand(mem1_file, tmp_path):
    out = tmp_path / "transfer"
    rc = main(["transfer", "--model", str(mem1_file), "--n-max", "10",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out / "transfer.csv")
    assert header == ["n", "oscillation", "truncation_error"]
    osc = [float(r[1]) for r in rows]
    assert osc[0] == 1.0 and osc[-1] < 1e-4


def test_couple_subcommand_and_determinism(longrange_file, tmp_path):
    args = ["couple", "--model", str(longrange_file), "--schedule", "const:1",
            "--depth", "10", "--trajectories", "40", "--seed", "9",
            "--context-x", "1111111111", "--context-y", "0000000000",
            "--dn-max", "2", "--tail-len", "2"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("couple_mc.csv", "couple_dn.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    assert m1["config_hash"] == m2["config_hash"]


def test_couple_different_seed_changes_output(longrange_file, tmp_path):
    base = ["couple", "--model", str(longrange_file), "--depth", "10",
            "--trajectories", "40", "--context-x", "1111111111",
            "--context-y", "0000000000"]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(base + ["--seed", "1", "--out", str(out1)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out2)]) == 0
    assert (out1 / "couple_mc.csv").read_bytes() != (out2 / "couple_mc.csv").read_bytes()


def test_failed_couple_leaves_no_artifacts(longrange_file, tmp_path):
    # the dn budget fails at n = 17; it is checked before any sampling, and
    # outputs reach --out only when the whole run succeeds
    out = tmp_path / "out"
    rc = main(["couple", "--model", str(longrange_file), "--dn-max", "30",
               "--depth", "4", "--trajectories", "2", "--seed", "1", "--out", str(out)])
    assert rc == 3
    assert not (out / "couple_mc.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["longrange.gmodel"]


def test_block_cap_fails_before_sampling(longrange_file, tmp_path):
    # run 1 reaches a block of length 20 > BLOCK_CAP: refused up front
    out = tmp_path / "out"
    rc = main(["couple", "--model", str(longrange_file), "--schedule", "1,20",
               "--depth", "4", "--seed", "1", "--out", str(out)])
    assert rc == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["longrange.gmodel"]


@pytest.mark.parametrize("lam", ["6.8", "8", "1e300"])
def test_criteria_window_budget_is_checked_first(lam, tmp_path, capsys):
    # the last geometric window ends at ceil(lam**8) > DEFAULT_BUDGET = 2**22
    out = tmp_path / "out"
    rc = main(["criteria", "--variation", "power_law:c=1,p=2", "--lam", lam,
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    assert not out.exists()


# SHA-256 of every artifact of a fixed set of runs, one row per run.  The
# sampler consumes each trajectory's uniforms in a fixed order (one per
# diagonal draw, three otherwise), so the Monte Carlo CSVs stay fixed
# whatever the batching.
def _mc_argv(command, schedule, model="longrange", context=None):
    if context is None:
        context = 12 if schedule == "const:1" else 48  # long blocks need a long context
    argv = [command, "--model", f"{{{model}}}", "--schedule", schedule,
            "--depth", "12", "--trajectories", "30", "--seed", "5",
            "--context-x", "1" * context, "--context-y", "0" * context]
    return argv + ["--K-max", "4"] if command == "pipeline" else argv


def _bench_argv(model, schedule, depth, trajectories, context):
    """A Monte Carlo benchmark workload's ``pipeline`` run at seed 1."""
    return ["pipeline", "--model", f"{{{model}}}", "--schedule", schedule, "--K-max", "8",
            "--depth", str(depth), "--trajectories", str(trajectories), "--seed", "1",
            "--context-x", "1" * context, "--context-y", "0" * context]


PINNED = {
    "couple-const:1": (_mc_argv("couple", "const:1"), {
        "couple_mc.csv": "615afcbb7430b486f4163b1369b02f05d341f205ecabebf35a561907f17b6440",
    }),
    "couple-geom:l=1.5": (_mc_argv("couple", "geom:l=1.5"), {
        "couple_mc.csv": "7e98175ef253e01190e153a6d7881399cb7bc4623fc7a97577ed5875903c5c0f",
    }),
    "pipeline-const:1": (_mc_argv("pipeline", "const:1"), {
        "pipeline_mc.csv": "65cdac0b62f5d45207493d5d59576288632bee520078b189d7f53f032f18d80d",
        "pipeline_bounds.csv": "a651e93523bb13478ff4148e0c608a539a8a36cc7847a04feeb3dd2b06c173f5",
        "pipeline_summary.json": "15755ce65cfcfff1f18b22cf6fb969576399365ce18ae0176dd95b4c1f62f878",
    }),
    "pipeline-geom:l=1.5": (_mc_argv("pipeline", "geom:l=1.5"), {
        "pipeline_mc.csv": "67204a79e2e4437fa0efaf5468562f060af8fb7b834be2ca5e779609b9bd11c5",
        "pipeline_bounds.csv": "e0a48878664c7f241aea8d54cacc1bfe5562f00ca154600c59776b8490887ea7",
        "pipeline_summary.json": "86250b7f0d900d667efe69f961eda98fc30c47ca67a9462cf9a2475434e9156b",
    }),
    # finite memory through the Monte Carlo sampler, from one-symbol contexts
    "couple-mem1-const:1": (_mc_argv("couple", "const:1", "mem1", context=1), {
        "couple_mc.csv": "40c9e7c8daaff8971a346a3ea3cf3389969587dcb8d44879a7d8a6d62436b90f",
    }),
    "couple-mem1-geom:l=1.5": (_mc_argv("couple", "geom:l=1.5", "mem1", context=1), {
        "couple_mc.csv": "8ab01abf283d82499fb31637671073022b5ad72389f3f3d30ea6c50f024b6fad",
    }),
    # the two Monte Carlo benchmark workloads at seed 1
    "pipeline-mc_short_blocks": (_bench_argv("longrange", "const:1", 64, 200, 64), {
        "pipeline_mc.csv": "4fb4833689cc0950fa4f6dfb860eafe2de2939a16ef459bafffe4a81ab0fb102",
        "pipeline_bounds.csv": "14925026b55b3a7352d90d91d856b2d78910de9b3ac5c2d4b373d51a19f149e3",
        "pipeline_summary.json": "b88b3246803f97e0fca3fdfbf0da5874f4e97fb39e87f58484f0c4bdb3743457",
    }),
    "pipeline-mc_long_blocks": (_bench_argv("exponential", "geom:l=1.5", 34, 8, 48), {
        "pipeline_mc.csv": "1d308526c79662774c23722807da35be08273982e1f1085e3e4e9746b12bf619",
        "pipeline_bounds.csv": "5fa4e6d27ee98df6f9982640349f1e72fb05f6cf8c0d8af35169c3a85029195f",
        "pipeline_summary.json": "9cad88f187c1555116537ce05880bf221bac3ee334818500d1a9a968116cf6a3",
    }),
    # the exact_bounds benchmark workload's transfer and couple runs, at seed 1
    "transfer-exact_bounds": (["transfer", "--model", "{longrange}", "--trunc-memory", "14",
                               "--n-max", "200"], {
        "transfer.csv": "2984c41d234461488e36d9fdba20a47b937a253e544e7a15aa61f6bdb6e7d6bb",
    }),
    "couple-exact_bounds": (["couple", "--model", "{longrange}", "--schedule", "const:1",
                             "--depth", "16", "--trajectories", "20", "--seed", "1",
                             "--context-x", "1" * 16, "--context-y", "0" * 16,
                             "--dn-max", "6", "--tail-len", "6"], {
        "couple_mc.csv": "cb73589f1bc8da77dde8c1544458fccecb6852cfacdb28f86dcd7cb99a680d32",
        "couple_dn.csv": "fa00f9358a8e874e9dba1c2a46a9e095abe2b520d1331c9b079bc1f2a46f1d57",
    }),
    "couple-dn": (["couple", "--model", "{longrange}", "--depth", "6", "--trajectories", "20",
                   "--seed", "3", "--dn-max", "3", "--tail-len", "2"], {
        "couple_mc.csv": "50f8226641623c8468143f9ccb88be8690e82620ac886fe54fdaa91deb3d3445",
        "couple_dn.csv": "7ef9db64d47536baa5e8138b6859ad9e44f707e905deaa9d0dbb6cefae833da3",
    }),
    # the exponential coefficient law, scaled by coeff_mass and given by coeff_c
    "pipeline-exponential": (_mc_argv("pipeline", "geom:l=1.5", "exponential"), {
        "pipeline_mc.csv": "3787b06ef2c694710377db10d45413ede4eb6342b4f9fcce58b90155a1ae0d7f",
        "pipeline_bounds.csv": "6cb8b1258e77f44e50e875e7be34cdf17477e2372a79149498ad74924df70d73",
        "pipeline_summary.json": "b4c252e36abc2132f386edb759c8c8a7f5ee08f9738731ce52ba307e63d8b542",
    }),
    "couple-dn-exponential": (["couple", "--model", "{exponential}", "--depth", "6",
                               "--trajectories", "20", "--seed", "3", "--dn-max", "3",
                               "--tail-len", "2"], {
        "couple_mc.csv": "e884267bd772d0efffe580c66c47d82248d5f75ed25aab3b8dc36cf5c134aeaf",
        "couple_dn.csv": "2ff8b43edc66fcb03929501d86163a61724251c1b37c8d77a4d7505047c26155",
    }),
    "transfer-finite-memory": (["transfer", "--model", "{mem1}", "--n-max", "12"], {
        "transfer.csv": "8a720e5604398a8031723189d146206f75b2d2d8956d542a48fbb698f7408917",
    }),
    "transfer-trunc-memory": (["transfer", "--model", "{longrange}", "--n-max", "12",
                               "--trunc-memory", "6"], {
        "transfer.csv": "b573d56d33c2379f13dd0afd049aa38d59d80e319fdb03427d25efb131954345",
    }),
    "transfer-trunc-memory-exponential": (["transfer", "--model", "{exponential_c}",
                                           "--n-max", "12", "--trunc-memory", "6"], {
        "transfer.csv": "622dcf3614c38a2f7a3eaf9b17d4808996a63fd5c94fe58dd1bdadb87b28754b",
    }),
    "renewal": (["renewal", "--d", "0.5,0.3", "--b", "1,2,3", "--K", "2"], {
        "renewal_u.csv": "421c4bc8a77b2ca231291dc05d2c0ec96c604f38c06fe1bfbc00d1184e810a17",
        "renewal_limit.csv": "edf5f47fc520545b350a74335e4b623fa0b97f3b0044a05de904ab8d08926bc5",
    }),
    "renewal-n-max": (["renewal", "--d", "0.5,0.3", "--b", "1,2,3", "--K", "2",
                       "--n-max", "40"], {
        "renewal_u.csv": "6f133c5d3759568248130ec535e14e8f7e1f40f24d5ddc6c196c99fb602fb862",
        "renewal_limit.csv": "edf5f47fc520545b350a74335e4b623fa0b97f3b0044a05de904ab8d08926bc5",
    }),
    # the benchmark's renewal run: 200 001 rows, 493 distinct u_n values
    "renewal-bench": (["renewal", "--d", "0.5,0.4,0.3,0.25,0.2,0.15,0.1,0.08",
                       "--b", "1,1,2,2,3,3,4,4,5", "--K", "8", "--n-max", "200000"], {
        "renewal_u.csv": "188afed79c825240a0800e4a3975cc1fe3797f56e3839829427b3b842078906f",
        "renewal_limit.csv": "8073c2400fe582ac77c1e1e683a9a416d89faa81557ffee1bec00c76163d9ae4",
    }),
    "criteria": (["criteria", "--variation", "exponential:c=1,r=0.5"], {
        "criteria.json": "028d38ff4f8a7cf4551e288a7321a684bf3b510cbf98ceda34f02e8e5d8437bd",
        "criteria_evidence.csv": "62d3497d78e85c9c2f8e7b7e519b37a55d2373cfe43f7484e99aed846941577a",
    }),
    "selftest": (["selftest"], {
        "selftest.txt": "9d90e54367dc7dfb77cba38436e306bf7ceb5c6ccb045107b01395a041686fbd",
    }),
}


@pytest.mark.parametrize("run", sorted(PINNED))
def test_artifact_digests_are_pinned(run, tmp_path):
    argv, digests = PINNED[run]
    out = tmp_path / "out"
    argv = [a.format(**write_models(tmp_path)) for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == set(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def _python_values(columns):
    """The columns as the cell-by-cell writer was given them: float arrays
    as lists of Python floats."""
    return [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]


CSV_COLUMNS = {
    "signed zeros": [np.array([0.0, -0.0, -0.0, 0.0, 1.0, -1.0])],
    "nan and infinities": [np.array([np.nan, np.inf, -np.inf, -np.nan, np.nan, 0.0])],
    "extreme reprs": [np.array([5e-324, 1e-05, 1e16, 0.1 + 0.2, -5e-324, 1e16])],
    "heavy repeats": [np.repeat([0.25, 1 / 3, -2.0, 0.25], 1000)],
    "non-contiguous slice": [(np.arange(60.0) / 7)[::2]],
    "int range and strings": [range(3), ["a", "b", "c"], np.array([1.5, -0.0, 1.5])],
    "int array": [np.arange(-2, 2), np.array([1.0, 1.0, 2.0, -0.0])],
    "zero rows": [range(0), np.array([])],
    "MC coordinates": [range(0, -65, -1), np.linspace(0.0, 1.0, 65)],
    "negatives across digit counts": [np.array([-9, -10, -99, -100, -1, 0, 9, 10, 99, 100])],
    "int64 extremes": [np.array([INT64.min, INT64.max, INT64.min + 1, -1, 0])],
    "uint64 and int32 arrays": [np.array([2**64 - 1, 0, 10], dtype=np.uint64),
                                np.array([-(2**31), 2**31 - 1, 0], dtype=np.int32)],
    "all-zero ints": [np.zeros(5, dtype=np.int64)],
    "tuple of Python ints": [(3, -12, 0, 100, -7)],
}


def _chunk_columns(n):
    """Columns of n rows of every kind the runners pass: a range, float64
    arrays with repeats and signed zeros, tuples from ``zip`` and strings."""
    x = np.tile([0.0, -0.0, 0.1 + 0.2, 1 / 3, -0.0, 1e16], n // 6 + 1)[:n]
    pairs = [(i % 3, float(-i)) for i in range(n)]
    ints, floats = zip(*pairs) if pairs else ((), ())
    return [range(n), x, np.full(n, -0.0), ints, floats, [f"s{i % 5}" for i in range(n)]]


# row counts at and around the writer's chunk length
_CHUNK = cli._CSV_ROWS
CSV_COLUMNS.update({f"{n} rows": _chunk_columns(n)
                    for n in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)})
CSV_COLUMNS["descending range across a chunk"] = [range(_CHUNK + 5, -6, -1)]


@pytest.mark.parametrize("case", sorted(CSV_COLUMNS))
def test_csv_matches_cell_by_cell_oracle(case):
    columns = CSV_COLUMNS[case]
    header = [f"c{i}" for i in range(len(columns))]
    expected = csv_cell_by_cell(["a comment"], header, _python_values(columns))
    assert cli._csv(["a comment"], header, columns) == expected


# a small pool, so that drawn columns repeat values and bit patterns
FLOAT_POOL = [0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, 1 / 3, 5e-324, 1e-05, 1e16, 2.0**-1074 * 3,
              math.inf, -math.inf, math.nan, 0.5, 1e300]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(FLOAT_POOL), max_size=40), st.integers(1, 3))
def test_csv_float_columns_match_oracle(values, step):
    column = np.array(values, dtype=np.float64)[::step]
    columns = [range(len(column)), column, column[::-1]]
    expected = csv_cell_by_cell([], ["n", "x", "y"], _python_values(columns))
    assert cli._csv([], ["n", "x", "y"], columns) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(int(INT64.min), int(INT64.max)), max_size=40))
def test_csv_int_columns_match_oracle(values):
    column = np.array(values, dtype=np.int64)
    columns = [column, column[::-1] // 7, tuple(values)]
    expected = csv_cell_by_cell([], ["x", "y", "z"], _python_values(columns))
    assert cli._csv([], ["x", "y", "z"], columns) == expected


def test_csv_rejects_a_nul_in_a_cell():
    with pytest.raises(ValueError, match="NUL"):
        cli._csv([], ["label"], [["ok", "not\0ok"]])


def test_csv_peak_memory_is_bounded():
    # the benchmark's renewal columns: 200 001 rows of distinct and repeated floats
    spec = RenewalSpec((0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.08),
                       (1, 1, 2, 2, 3, 3, 4, 4, 5), 8)
    columns = [range(200_001), renewal_solve(build_alphabeta(spec), 200_000)]
    tracemalloc.start()
    try:
        data = cli._csv(["u_n"], ["n", "u_n"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(data), (peak, len(data))


@pytest.mark.parametrize("argv", [
    ["--b", "2,2", "--n-max", "4194304"],  # n_max + 1 = 2^22 + 1 rows
    ["--b", "1,90000"],  # the default n_max = 50 * B_2 = 4 500 050
    # 250 001 rows, but (n_max + 1)(K + 1) = 5 250 021 tap reads; the later
    # --d and --K replace the test's own
    ["--d", ",".join(["0.5"] * 20), "--b", ",".join(["1"] * 21), "--K", "20",
     "--n-max", "250000"],
], ids=["explicit", "default", "taps"])
def test_renewal_row_budget_is_checked_first(argv, monkeypatch, tmp_path, capsys):
    # more than DEFAULT_BUDGET rows: refused before u is solved for
    def refuse(*args):
        raise AssertionError("renewal_solve called")

    monkeypatch.setattr(cli, "renewal_solve", refuse)
    out = tmp_path / "out"
    rc = main(["renewal", "--d", "0.5", "--K", "1", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv, refused", [
    # n_max + 1 = 2^22 + 1 rows
    (["transfer", "--model", "{mem1}", "--n-max", "4194304"],
     ("load_model", "uniqueness_diagnostic")),
    # K_max + B_(K_max+2) = 6 000 002 on const:1
    (["pipeline", "--model", "{exponential}", "--seed", "1", "--K-max", "3000000"],
     ("load_model", "variation_profile")),
    # B_n passes DEFAULT_BUDGET near n = 38; B_2002 would leave float range
    (["pipeline", "--model", "{exponential}", "--seed", "1", "--schedule", "geom:l=1.5",
      "--K-max", "2000"], ("load_model", "variation_profile")),
], ids=["transfer-n-max", "pipeline-K-max", "pipeline-geom-K-max"])
def test_work_limits_are_checked_first(argv, refused, monkeypatch, tmp_path, capsys):
    # over budget: refused before the model is loaded
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in refused:
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "out"
    paths = write_models(tmp_path)
    rc = main([a.format(**paths) for a in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["couple", "pipeline"])
def test_trajectory_work_limit_is_checked_first(command, monkeypatch, tmp_path, capsys):
    # 30 000 trajectories x 3 * 65 uniforms = 5.85M, over DEFAULT_BUDGET:
    # refused before the model is loaded or a trajectory is sampled
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(coupling, "_couple", refuse)
    monkeypatch.setattr(cli, "load_model", refuse)
    out = tmp_path / "out"
    paths = write_models(tmp_path)
    rc = main([command, "--model", str(paths["longrange"]), "--seed", "1",
               "--trajectories", "30000", "--depth", "64", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    assert not out.exists()


def test_pipeline_subcommand(longrange_file, tmp_path):
    out = tmp_path / "pipe"
    rc = main(["pipeline", "--model", str(longrange_file), "--K-max", "5",
               "--depth", "16", "--trajectories", "60", "--seed", "4",
               "--context-x", "1" * 16, "--context-y", "0" * 16,
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "pipeline_summary.json").read_text())
    assert summary["best_bound"] < 0.35
    header, rows = read_csv_rows(out / "pipeline_bounds.csv")
    assert header == ["K", "ratio_bound"]
    # each published R_K is the renewal-theorem limit of its K's chain
    d = summary["dbar"]
    for row in rows:
        K = int(row[0])
        ab = build_alphabeta(RenewalSpec(tuple(d[:K]), (1,) * (K + 1), K))
        assert float(row[1]) == pytest.approx(renewal_limit(ab), abs=1e-12)
        assert summary["bounds"][row[0]] == float(row[1])


def test_pipeline_sweep_is_linear_in_K_max(longrange_file, tmp_path):
    # 2100 truncation levels: past the quadratic sweep's budget, well inside
    # K_max + B_(K_max+2)
    out = tmp_path / "pipe"
    rc = main(["pipeline", "--model", str(longrange_file), "--schedule", "const:1",
               "--K-max", "2100", "--depth", "4", "--trajectories", "5", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out / "pipeline_bounds.csv")
    assert [int(row[0]) for row in rows] == list(range(1, 2101))


def test_selftest_subcommand(tmp_path, capsys):
    rc = main(["selftest", "--out", str(tmp_path / "st")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path):
    rc = main(["renewal", "--d", "0.5", "--b", "2", "--K", "1",
               "--out", str(tmp_path / "x")])  # too few block lengths
    assert rc == 2
    rc = main(["criteria", "--variation", "nonsense", "--out", str(tmp_path / "y")])
    assert rc == 2


def test_budget_error_exit_code(longrange_file, tmp_path):
    rc = main(["transfer", "--model", str(longrange_file), "--n-max", "4",
               "--trunc-memory", "40", "--out", str(tmp_path / "b")])
    assert rc == 3


def test_surrogate_budget_is_checked_before_its_words(longrange_file, tmp_path, capsys,
                                                      monkeypatch):
    # 2^23 surrogate words exceed DEFAULT_BUDGET = 2^22; the operator's 2^22 states do not
    def refuse(*args):
        raise AssertionError("surrogate words enumerated")

    monkeypatch.setattr(gmeasure.gmodel, "all_words", refuse)
    rc = main(["transfer", "--model", str(longrange_file), "--trunc-memory", "22",
               "--n-max", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["longrange.gmodel"]


def test_missing_seed_is_config_error(longrange_file, tmp_path, capsys):
    # argparse enforces the mandatory seed for stochastic experiments
    rc = main(["couple", "--model", str(longrange_file), "--out", str(tmp_path / "z")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1 and "--seed" in err, err


# malformed input -> exit code 2 and a one-line message, never a traceback
BAD_INPUTS = {
    "geom growth not a number": ["pipeline", "--schedule", "geom:l=abc"],
    "geom without growth": ["pipeline", "--schedule", "geom:count=3"],
    "geom with count": ["pipeline", "--schedule", "geom:l=1.5,count=20"],
    "geom partial sum beyond float range": ["pipeline", "--schedule", "geom:l=1e200"],
    "explicit list shorter than K_max": ["pipeline", "--schedule", "1,2"],
    "explicit list shorter than the depth": ["couple", "--schedule", "1,2", "--depth", "8"],
    "const length not an integer": ["couple", "--schedule", "const:x"],
    "variation value not a number": ["criteria", "--variation", "power_law:c=abc,p=2"],
    "variation key without value": ["criteria", "--variation", "power_law:c"],
    "negative finite range": ["criteria", "--variation", "finite_range:M=-1"],
    "renewal d not a number": ["renewal", "--d", "0.5,x", "--b", "2,2", "--K", "1"],
    "missing model file": ["transfer", "--model", "{missing}"],
    "model table entry not a number": ["transfer", "--model", "{bad_table}"],
    "negative surrogate memory": ["transfer", "--model", "{longrange}", "--trunc-memory", "-1"],
    "surrogate memory of a finite-memory model": ["transfer", "--model", "{mem1}",
                                                  "--trunc-memory", "5"],
    "negative surrogate memory of a finite-memory model": ["transfer", "--model", "{mem1}",
                                                           "--trunc-memory", "-1"],
    "negative tail_len without dn_max": ["couple", "--tail-len", "-3"],
    "negative seed": ["couple", "--seed", "-1"],
    "negative dn_max": ["couple", "--dn-max", "-1"],
    "removed block cap option": ["couple", "--block-cap", "12"],
    "depth not an integer": ["couple", "--depth", "abc"],
    "renewal b not a number": ["renewal", "--d", "0.5", "--b", "2,x", "--K", "1"],
    "renewal n_max zero": ["renewal", "--d", "0.5", "--b", "2,2", "--K", "1", "--n-max", "0"],
    "unknown subcommand": ["bogus"],
    "lambda not finite": ["criteria", "--variation", "power_law:c=1,p=2", "--lam", "nan"],
    "epsilon not finite": ["criteria", "--variation", "power_law:c=1,p=2", "--epsilon", "nan"],
    "variation value not finite": ["criteria", "--variation", "power_law:c=nan,p=2"],
    "model coeff_mass not finite": ["transfer", "--model", "{nan_mass}"],
    "model coeff_r zero with coeff_mass": ["transfer", "--model", "{zero_ratio}"],
    "model memory not an integer": ["transfer", "--model", "{fractional_memory}"],
    "model memory 40": ["transfer", "--model", "{memory_40}"],
    "model memory 100": ["transfer", "--model", "{memory_100}"],
}

# the BAD_INPUTS rows holding a non-finite number, and what their message says
NON_FINITE = {
    "lambda not finite": "--lam must be finite",
    "epsilon not finite": "--epsilon must be finite",
    "variation value not finite": "c must be finite",
    "model coeff_mass not finite": "'coeff_mass' must be finite",
}


def bad_input_argv(case, longrange_file, tmp_path):
    paths = write_models(tmp_path)
    argv = [a.format(missing=tmp_path / "absent.gmodel", **paths) for a in BAD_INPUTS[case]]
    if argv[0] in ("pipeline", "couple"):
        argv += ["--model", str(longrange_file)]
        if "--seed" not in argv:
            argv += ["--seed", "1"]
    return argv + ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(case, longrange_file, tmp_path, capsys):
    rc = main(bad_input_argv(case, longrange_file, tmp_path))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err


def test_parser_is_built_once_and_parsing_leaves_it_unchanged():
    parser = cli._build_parser()
    renewal = ["renewal", "--d", "0.5", "--b", "2,2", "--K", "1", "--out", "r"]
    before = vars(parser.parse_args(renewal))
    parser.parse_args(["couple", "--model", "m", "--seed", "1", "--depth", "4", "--out", "c"])
    with pytest.raises(gmeasure.ConfigError):
        parser.parse_args(["couple", "--depth", "abc"])
    assert cli._build_parser() is parser
    assert vars(parser.parse_args(renewal)) == before


def test_parser_is_not_built_at_import():
    src = Path(gmeasure.__file__).resolve().parents[1]
    probe = "import gmeasure.cli as cli; print(cli._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.stdout.split() == ["0"], proc.stderr


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_is_rejected_by_name(case, longrange_file, tmp_path, capsys):
    assert main(bad_input_argv(case, longrange_file, tmp_path)) == 2
    err = capsys.readouterr().err
    assert NON_FINITE[case] in err, err


# a fresh interpreter runs one subcommand and prints its exit code and the
# scipy subpackages (first two name components) it imported
IMPORT_PROBE = """\
import sys
from gmeasure.cli import main
rc = main(sys.argv[1:])
print(rc, *sorted({".".join(m.split(".")[:2]) for m in sys.modules if m.startswith("scipy.")}))
"""


NO_SCIPY_SUBPACKAGE = {"scipy.special", "scipy.signal", "scipy.sparse"}
PIPELINE_ARGV = ["pipeline", "--depth", "8", "--trajectories", "10", "--K-max", "3", "--seed", "1"]
COUPLE_DN_ARGV = ["couple", "--depth", "8", "--trajectories", "10", "--seed", "1",
                  "--dn-max", "2", "--tail-len", "2"]


@pytest.mark.parametrize("model, argv, absent", [
    ("exponential", PIPELINE_ARGV, NO_SCIPY_SUBPACKAGE),
    ("longrange", PIPELINE_ARGV, NO_SCIPY_SUBPACKAGE),
    ("mem1", ["transfer", "--n-max", "5"], NO_SCIPY_SUBPACKAGE),
    ("exponential", ["transfer", "--n-max", "5", "--trunc-memory", "4"], NO_SCIPY_SUBPACKAGE),
    ("longrange", ["transfer", "--n-max", "5", "--trunc-memory", "4"], NO_SCIPY_SUBPACKAGE),
    (None, ["criteria", "--variation", "power_law:c=1,p=2"], NO_SCIPY_SUBPACKAGE),
    ("exponential", COUPLE_DN_ARGV, NO_SCIPY_SUBPACKAGE),
    ("longrange", COUPLE_DN_ARGV, NO_SCIPY_SUBPACKAGE),
    (None, ["renewal", "--d", "0.5", "--b", "2,2", "--K", "1"], NO_SCIPY_SUBPACKAGE),
    (None, ["selftest"], NO_SCIPY_SUBPACKAGE),
], ids=["exponential", "power_law", "transfer-finite-memory", "transfer-exponential",
        "transfer-power-law", "criteria", "couple-exponential", "couple-power-law", "renewal",
        "selftest"])
def test_pipeline_imports_only_the_scipy_it_calls(model, argv, absent, tmp_path):
    if model is not None:
        path = tmp_path / "model.gmodel"
        path.write_text(MODELS[model])
        argv = argv + ["--model", str(path)]
    argv = argv + ["--out", str(tmp_path / "out")]
    src = Path(gmeasure.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    # the probe's line comes last: selftest prints its report first
    rc, *loaded = (proc.stdout.splitlines() or ["no output"])[-1].split()
    assert rc == "0", proc.stderr
    assert not absent & set(loaded), loaded


def test_couple_dn_cells_are_plain_numbers(longrange_file, tmp_path):
    out = tmp_path / "dn"
    assert main(["couple", "--model", str(longrange_file), "--depth", "4",
                 "--trajectories", "2", "--seed", "1", "--dn-max", "2",
                 "--tail-len", "2", "--out", str(out)]) == 0
    header, rows = read_csv_rows(out / "couple_dn.csv")
    assert header == ["n", "dn_lower", "dn_upper"] and rows
    for row in rows:
        for cell in row:
            float(cell)


def test_couple_dn_upper_without_tail_is_a_bound(longrange_file, tmp_path):
    # tail length 6 finds block-1 laws 0.2267 apart; with no enumerated tail
    # the upper bound is the one law's truncation slack, and must cover that
    out = tmp_path / "dn"
    assert main(["couple", "--model", str(longrange_file), "--schedule", "const:1",
                 "--depth", "4", "--trajectories", "2", "--seed", "1", "--dn-max", "1",
                 "--tail-len", "0", "--out", str(out)]) == 0
    _, rows = read_csv_rows(out / "couple_dn.csv")
    assert float(rows[0][2]) >= 0.2267


def test_config_hash_covers_model_contents(tmp_path):
    path = tmp_path / "model.gmodel"
    hashes = []
    for text in (MEM1_MODEL, MEM1_MODEL.replace("0.3", "0.2").replace("0.7", "0.8")):
        path.write_text(text)
        out = tmp_path / f"run{len(hashes)}"
        assert main(["transfer", "--model", str(path), "--n-max", "3",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["environment"]) == {"python", "numpy", "scipy"}
        hashes.append(manifest["config_hash"])
    assert hashes[0] != hashes[1]

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmeasure
from gmeasure import cli, coupling
from gmeasure.cli import main
from oracles import csv_cell_by_cell

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
def _mc_argv(command, schedule, model="longrange"):
    context = 12 if schedule == "const:1" else 48  # long blocks need a long context
    argv = [command, "--model", f"{{{model}}}", "--schedule", schedule,
            "--depth", "12", "--trajectories", "30", "--seed", "5",
            "--context-x", "1" * context, "--context-y", "0" * context]
    return argv + ["--K-max", "4"] if command == "pipeline" else argv


PINNED = {
    "couple-const:1": (_mc_argv("couple", "const:1"), {
        "couple_mc.csv": "615afcbb7430b486f4163b1369b02f05d341f205ecabebf35a561907f17b6440",
    }),
    "couple-geom:l=1.5": (_mc_argv("couple", "geom:l=1.5"), {
        "couple_mc.csv": "7e98175ef253e01190e153a6d7881399cb7bc4623fc7a97577ed5875903c5c0f",
    }),
    "pipeline-const:1": (_mc_argv("pipeline", "const:1"), {
        "pipeline_mc.csv": "6457f77d0fa47a8b7fe6d451fbe10ac19bac18c6e58e8890f9206ef698f0af80",
        "pipeline_bounds.csv": "1654337fca0123ff4d719de938434ecff5701160a23d2b75de7fe385b8b9f523",
        "pipeline_summary.json": "10fe7a4f1cf8cbe1f34e98d204c4831721ee69d2ce97550744fec6e8f0be69c6",
    }),
    "pipeline-geom:l=1.5": (_mc_argv("pipeline", "geom:l=1.5"), {
        "pipeline_mc.csv": "a38e38af75c9677fbe3dcdbe3ab5b87e58359b85af70aae23953b1545758d2ba",
        "pipeline_bounds.csv": "c603ec905ad9773f52bb1622877e99641eb5969e158c019a039d7106bb001a00",
        "pipeline_summary.json": "52454dd4ca2191b9a5f704a0b36c3483c044381153092c41f8a1d2647177379f",
    }),
    "couple-dn": (["couple", "--model", "{longrange}", "--depth", "6", "--trajectories", "20",
                   "--seed", "3", "--dn-max", "3", "--tail-len", "2"], {
        "couple_mc.csv": "50f8226641623c8468143f9ccb88be8690e82620ac886fe54fdaa91deb3d3445",
        "couple_dn.csv": "632bd18c4b5729dba8277e47c600f0ed4d4794e277c294037badc232d11f7d08",
    }),
    # the exponential coefficient law, scaled by coeff_mass and given by coeff_c
    "pipeline-exponential": (_mc_argv("pipeline", "geom:l=1.5", "exponential"), {
        "pipeline_mc.csv": "5f4fcc7eb5af899da8a6dd32b1a0834abc58e652b60bdedf770f3a504bdb57ad",
        "pipeline_bounds.csv": "c90189c924491452b555824b247b12ebab4fdf2284eac76bb809863003965621",
        "pipeline_summary.json": "2ced4bb55869897d3f835b980bb200fe46d0048f3c58bc213267497543e9b6d5",
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
        "transfer.csv": "823c0685f3107ca942cad2aa33c258e0f6df8c2134dc8b70b40fb0d16630cea8",
    }),
    "transfer-trunc-memory-exponential": (["transfer", "--model", "{exponential_c}",
                                           "--n-max", "12", "--trunc-memory", "6"], {
        "transfer.csv": "622dcf3614c38a2f7a3eaf9b17d4808996a63fd5c94fe58dd1bdadb87b28754b",
    }),
    "renewal": (["renewal", "--d", "0.5,0.3", "--b", "1,2,3", "--K", "2"], {
        "renewal_u.csv": "82bffef2726b045ddd615bc6b4cf8d206cbbfffa059b809d838f0dc03bc16708",
        "renewal_limit.csv": "9057f7778c6620ac84702fbf54faee9a9a4b1d06916b171658c5148d90b83150",
    }),
    "renewal-n-max": (["renewal", "--d", "0.5,0.3", "--b", "1,2,3", "--K", "2",
                       "--n-max", "40"], {
        "renewal_u.csv": "bdb3d313f108ad1ef008904b0609d17c458b09e271d02597d83b2ef49d18e114",
        "renewal_limit.csv": "9057f7778c6620ac84702fbf54faee9a9a4b1d06916b171658c5148d90b83150",
    }),
    # the benchmark's renewal run: 200 001 rows, 489 distinct u_n values
    "renewal-bench": (["renewal", "--d", "0.5,0.4,0.3,0.25,0.2,0.15,0.1,0.08",
                       "--b", "1,1,2,2,3,3,4,4,5", "--K", "8", "--n-max", "200000"], {
        "renewal_u.csv": "53cb1b4800fddefd39204494a222a32f303a27e36a27ffdba6412804ea319e41",
        "renewal_limit.csv": "b6f442a21b749519cf9dfb20cde967fa9a833bde36d0fd77f7547882aee6b004",
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
}


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


@pytest.mark.parametrize("argv", [
    ["--b", "2,2", "--n-max", "4194304"],  # n_max + 1 = 2^22 + 1 rows
    ["--b", "1,90000"],  # the default n_max = 50 * B_2 = 4 500 050
], ids=["explicit", "default"])
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
    # the K sweep passes DEFAULT_BUDGET near K = 2048
    (["pipeline", "--model", "{exponential}", "--seed", "1", "--K-max", "100000"],
     ("load_model", "variation_profile")),
], ids=["transfer-n-max", "pipeline-K-max"])
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
    assert header == ["K", "ratio_bound", "renewal_bound"]
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[2]), abs=1e-12)


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


@pytest.mark.parametrize("law, absent", [
    ("exponential", {"scipy.special", "scipy.signal", "scipy.sparse"}),
    ("power_law", {"scipy.signal", "scipy.sparse"}),
], ids=["exponential", "power_law"])
def test_pipeline_imports_only_the_scipy_it_calls(law, absent, tmp_path):
    model = tmp_path / "model.gmodel"
    model.write_text(LONGRANGE_MODEL if law == "power_law" else EXPONENTIAL_MODEL)
    argv = ["pipeline", "--model", str(model), "--depth", "8", "--trajectories", "10",
            "--K-max", "3", "--seed", "1", "--out", str(tmp_path / "out")]
    src = Path(gmeasure.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    rc, *loaded = proc.stdout.split() or ["no output"]
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

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
from gmeasure import VariationProfile, cli, coupling, dbar, load_model, variation_profile
from gmeasure.cli import main
from gmeasure.criteria import block_tv_bounds
from gmeasure.renewal import (
    RenewalSpec,
    build_alphabeta,
    disagreement_bound_sweep,
    renewal_solve,
)
from conftest import use_spawned_stream
from oracles import (
    block_bound_scalar,
    closed_form_ratio,
    csv_cell_by_cell,
    profile_scalar,
    renewal_limit,
    suffix_max,
)

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

IID_MODEL = """
variant = finite_memory
alphabet = 0,1
memory = 0
table[0] = 0.3
table[1] = 0.7
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
    "iid": IID_MODEL,
    "longrange": LONGRANGE_MODEL,
    "exponential": EXPONENTIAL_MODEL,
    "exponential_c": EXPONENTIAL_MODEL.replace("coeff_mass = 0.5", "coeff_c = 0.2"),
    # strongly dependent: site ratio 0.9 / 0.02 = 45, past (1 + sqrt(2))**2
    "mem1_strong": "variant = finite_memory\nalphabet = 0,1\nmemory = 1\n"
                   "table[00] = 0.9\ntable[01] = 0.02\ntable[10] = 0.1\ntable[11] = 0.98\n",
    # model files of the BAD_INPUTS rows
    "bad_table": MEM1_MODEL.replace("0.3", "x"),
    "nan_mass": LONGRANGE_MODEL.replace("coeff_mass = 0.5", "coeff_mass = nan"),
    "zero_ratio": EXPONENTIAL_MODEL.replace("coeff_r = 0.7", "coeff_r = 0"),
    "fractional_memory": MEM1_MODEL.replace("memory = 1", "memory = 1.5"),
    "memory_40": MEM1_MODEL.replace("memory = 1", "memory = 40"),
    "memory_100": MEM1_MODEL.replace("memory = 1", "memory = 100"),
    "repeated_theta": LONGRANGE_MODEL + "theta = 0.4\n",
    "not_utf8": b"\xff\xfe\x00",
}


def write_models(tmp_path):
    """Every MODELS text (or bytes) written to ``tmp_path``: {name: path}."""
    paths = {name: tmp_path / f"{name}.gmodel" for name in MODELS}
    for name, path in paths.items():
        text = MODELS[name]
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
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


def test_criteria_json_holds_no_infinity_for_a_diverging_law(tmp_path):
    # RFC 8259 has no Infinity token: a divergent window-sum limit is null
    # in criteria.json, and inf in the CSV
    out = tmp_path / "criteria"
    assert main(["criteria", "--variation", "power_law:c=1,p=0.3", "--out", str(out)]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads((out / "criteria.json").read_text(), parse_constant=refuse)
    limits = {r["criterion"]: r["evidence"].get("limit") for r in report["reports"]}
    assert limits["geometric_window_sums"] is None
    _, rows = read_csv_rows(out / "criteria_evidence.csv")
    assert rows[-1] == ["geometric_window_sums", "violated", "inf"]


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


# SHA-256 of every artifact of a fixed set of runs, one row per run.  A
# Monte Carlo run reads one stream, default_rng(seed), and trajectory i
# reads window i of it in a fixed order (one uniform per diagonal draw,
# three otherwise), so the Monte Carlo CSVs stay fixed whatever the batching.
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
        "couple_mc.csv": "5da2b14a5aac66eb143e2b865348b6f00fe130bfc35a1c37b5d7946525e203f5",
    }),
    "couple-geom:l=1.5": (_mc_argv("couple", "geom:l=1.5"), {
        "couple_mc.csv": "6c58d4c5d8bcc03bf18ce559832540dd461e0827779a1331e808f8425ad32c35",
    }),
    "pipeline-const:1": (_mc_argv("pipeline", "const:1"), {
        "pipeline_mc.csv": "aeead6084f8e2b6356e99faa3aa3f016be13883193e7a73283a7c183cd2d4442",
        "pipeline_bounds.csv": "572e01d3179bb6af8324c4f391fe006e945b9eb5f6bd79bc892cdd5426c23638",
        "pipeline_summary.json": "3211d6ca745abad796fd74345ec15bafeafa808470cc73840ea9702788beb3f6",
    }),
    "pipeline-geom:l=1.5": (_mc_argv("pipeline", "geom:l=1.5"), {
        "pipeline_mc.csv": "da7eb0523870c48cfb691f5fe05ce301742af547a5fc5d488d63d507716d4ecc",
        "pipeline_bounds.csv": "c04623a9b614e5382b90f13fec6247d9e7cead721e776c52497ef5e2333f07d3",
        "pipeline_summary.json": "d0082c5c421757358b862a7f5996d8f584a1852718fcb4fcfca12efb9ef45770",
    }),
    # finite memory through the Monte Carlo sampler, from one-symbol contexts
    "couple-mem1-const:1": (_mc_argv("couple", "const:1", "mem1", context=1), {
        "couple_mc.csv": "c7046acfde7cd5a22971b0e8781b8393834e06f3b246f571345f14a80f127a10",
    }),
    "couple-mem1-geom:l=1.5": (_mc_argv("couple", "geom:l=1.5", "mem1", context=1), {
        "couple_mc.csv": "864934fbc7031c70d3e1037aaa7ab6cab2526c779cd1f544c44dbe5cad887867",
    }),
    "pipeline-mem1-strong": (_mc_argv("pipeline", "const:1", "mem1_strong", context=1), {
        "pipeline_mc.csv": "53d07684b81a6378ee73713475c205c4b1f5f344b0240249cca2208a1cecb45b",
        "pipeline_bounds.csv": "61114d29e81bf807785f2ebcb6e95f3e2ae8d946c82d44826de6209a9182bffb",
        "pipeline_summary.json": "c93645ab1c31623a6ee43a131a71b88863cd58cc64fadf97243d43b73c0d20f4",
    }),
    # the two Monte Carlo benchmark workloads at seed 1
    "pipeline-mc_short_blocks": (_bench_argv("longrange", "const:1", 64, 200, 64), {
        "pipeline_mc.csv": "6aa2091b303498af711a7e0060850368080b655ece2a331ba4a0a017d0d36cc9",
        "pipeline_bounds.csv": "9d0cd94b40f528001a174131f457c53e051b7e4e112693a3fad6ba23700c642f",
        "pipeline_summary.json": "15d1435c45449be1e11e39c73b991e9a88f2a6aa100e3ec64e78acd896d50e94",
    }),
    "pipeline-mc_long_blocks": (_bench_argv("exponential", "geom:l=1.5", 34, 8, 48), {
        "pipeline_mc.csv": "956b5da5be4c016bd4d02bd240664316eabe559bcf161af4842212d9cc885586",
        "pipeline_bounds.csv": "a24a3f582b33845b61d713ab9637343d1468ecc5cb370e589883359ebef1695b",
        "pipeline_summary.json": "0fef76adebe3bd15bdf3e62fb6b99de1ed02e15c6c53c8957837db3afed2e23e",
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
        "couple_mc.csv": "ae1296808542840eec506a0623136bf430c83a5176a2dfee7b5f7f5d231bcdb6",
        "couple_dn.csv": "fa00f9358a8e874e9dba1c2a46a9e095abe2b520d1331c9b079bc1f2a46f1d57",
    }),
    "couple-dn": (["couple", "--model", "{longrange}", "--depth", "6", "--trajectories", "20",
                   "--seed", "3", "--dn-max", "3", "--tail-len", "2"], {
        "couple_mc.csv": "fd56da8d95452549451b939c681d3e2a9999320bc35912256f97966e23335fef",
        "couple_dn.csv": "7ef9db64d47536baa5e8138b6859ad9e44f707e905deaa9d0dbb6cefae833da3",
    }),
    # the exponential coefficient law, scaled by coeff_mass and given by coeff_c
    "pipeline-exponential": (_mc_argv("pipeline", "geom:l=1.5", "exponential"), {
        "pipeline_mc.csv": "4f8a92c6e6e081f5835968285fb0f164beaa6d869665e471738246976240850d",
        "pipeline_bounds.csv": "2fcd4d7941b1362e39147a8f2b23d42660074069a1476033efec6a5f86c8eba6",
        "pipeline_summary.json": "0ac548629ee8c3965fd3381ba7285f92b50662adbbf93c0e2db77e993a94dba7",
    }),
    "couple-dn-exponential": (["couple", "--model", "{exponential}", "--depth", "6",
                               "--trajectories", "20", "--seed", "3", "--dn-max", "3",
                               "--tail-len", "2"], {
        "couple_mc.csv": "a0a9778912a631f39b39dc4cdf56592d76205a1570df9ede37de0c8e841b7299",
        "couple_dn.csv": "2ff8b43edc66fcb03929501d86163a61724251c1b37c8d77a4d7505047c26155",
    }),
    "transfer-finite-memory": (["transfer", "--model", "{mem1}", "--n-max", "12"], {
        "transfer.csv": "8a720e5604398a8031723189d146206f75b2d2d8956d542a48fbb698f7408917",
    }),
    # memory 0: the operator broadcasts the table along its one-symbol window
    "transfer-memory-0": (["transfer", "--model", "{iid}", "--n-max", "12"], {
        "transfer.csv": "5df448ecfd5da246fe7843f68f2f1d2b73156717f8b54e47c082e4b9ddef0ec9",
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
        # the running hash is the hash of the bytes that reached the file
        on_disk = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert manifest["outputs"][name] == on_disk, name
        assert on_disk == digest, name


def test_pipeline_on_a_strongly_dependent_table(tmp_path):
    # one site with ratio 45 separates block 1 from the agreement region:
    # d_1 = x / (2 + x) = 44/46, and every later block reads x = 0
    argv = [a.format(**write_models(tmp_path)) for a in PINNED["pipeline-mem1-strong"][0]]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    _, rows = read_csv_rows(tmp_path / "out" / "pipeline_bounds.csv")
    assert abs(float(rows[0][1]) - 44 / 46) <= 2 * np.spacing(44 / 46)
    assert [float(r[1]) for r in rows[1:]] == [0.0] * (len(rows) - 1)


@pytest.mark.parametrize("run", sorted(r for r in PINNED if r.startswith("pipeline")))
def test_pinned_pipeline_bound_paths_equal_the_scalar_routes(run, tmp_path):
    # on the pinned pipeline configs the array bound path moves no bit: the
    # profile on the B_(K_max+1) sites the bounds read, the block bounds,
    # d-bar and R_K equal the scalar routes exactly
    argv = PINNED[run][0]
    option = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    model = load_model(option["--model"].format(**write_models(tmp_path)))
    schedule, K_max = cli._parse_schedule(option["--schedule"]), int(option["--K-max"])
    horizon = schedule.B(K_max + 1) - 1
    profile = variation_profile(model, horizon)
    values = profile_scalar(model, horizon)
    assert profile.values.tolist() == values.tolist()
    bounds = block_tv_bounds(profile, schedule, K_max + 1)
    scalar = [block_bound_scalar(VariationProfile(values, profile.tail), schedule, n)
              for n in range(1, K_max + 2)]
    assert bounds.tolist() == scalar
    dbar_seq = dbar(bounds[:-1], bounds[-1])
    assert dbar_seq.tolist() == suffix_max(scalar[:-1], scalar[-1])
    lengths = [schedule.b(n) for n in range(1, K_max + 2)]
    assert np.array_equal(disagreement_bound_sweep(dbar_seq, lengths, range(1, K_max + 1)),
                          closed_form_ratio(dbar_seq.tolist(), lengths, range(1, K_max + 1)))


# the digests of the files that move when trajectory i reads the uniforms of
# the i-th spawned generator (``oracles.spawned_uniforms``) in place of
# window i of one stream; every other file keeps its PINNED digest
SPAWNED_STREAM_DIGESTS = {
    "couple-const:1": {
        "couple_mc.csv": "615afcbb7430b486f4163b1369b02f05d341f205ecabebf35a561907f17b6440",
    },
    "couple-dn": {
        "couple_mc.csv": "50f8226641623c8468143f9ccb88be8690e82620ac886fe54fdaa91deb3d3445",
    },
    "couple-dn-exponential": {
        "couple_mc.csv": "e884267bd772d0efffe580c66c47d82248d5f75ed25aab3b8dc36cf5c134aeaf",
    },
    "couple-exact_bounds": {
        "couple_mc.csv": "cb73589f1bc8da77dde8c1544458fccecb6852cfacdb28f86dcd7cb99a680d32",
    },
    "couple-geom:l=1.5": {
        "couple_mc.csv": "7e98175ef253e01190e153a6d7881399cb7bc4623fc7a97577ed5875903c5c0f",
    },
    "couple-mem1-const:1": {
        "couple_mc.csv": "40c9e7c8daaff8971a346a3ea3cf3389969587dcb8d44879a7d8a6d62436b90f",
    },
    "couple-mem1-geom:l=1.5": {
        "couple_mc.csv": "8ab01abf283d82499fb31637671073022b5ad72389f3f3d30ea6c50f024b6fad",
    },
    "pipeline-const:1": {
        "pipeline_mc.csv": "372a4f1052c5539c8251c77dd55f9ac3e0301292cb5f833ada0729a1e06ad3fd",
    },
    "pipeline-exponential": {
        "pipeline_mc.csv": "5fe0d20cb71bc68c65e7e51d09165ef2180de533e619ed3381b016445e22816d",
    },
    "pipeline-geom:l=1.5": {
        "pipeline_mc.csv": "daa3472314240e87f6eb21a2777fb8038e4be5535d623e04bec4df1c6301d83f",
        "pipeline_summary.json": "06ab8fef0f64ad79dd330c84a3b54518475ec4a999f93b2b32e7c44514264b62",
    },
    "pipeline-mc_long_blocks": {
        "pipeline_mc.csv": "1ddb14171975f299c2bf5bfd73d1f10a36246a433cd341676a3efca03f14fd4e",
    },
    "pipeline-mc_short_blocks": {
        "pipeline_mc.csv": "36d50e953b6ee699e30b7c6c6c06f1019c627798d51114d44da329917e40a97c",
    },
}


@pytest.mark.parametrize("run", sorted(SPAWNED_STREAM_DIGESTS))
def test_spawned_stream_reproduces_the_old_digests(run, monkeypatch, tmp_path):
    # only the uniforms changed: fed the spawned rows, the sampler writes
    # every file of the run as it did when it drew them itself
    argv, digests = PINNED[run]
    seed, n_traj, depth = (int(argv[argv.index(option) + 1])
                           for option in ("--seed", "--trajectories", "--depth"))
    use_spawned_stream(monkeypatch, seed, n_traj, depth)
    out = tmp_path / "out"
    argv = [a.format(**write_models(tmp_path)) for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    for name, digest in {**digests, **SPAWNED_STREAM_DIGESTS[run]}.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_pinned_digests_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # every PINNED run again, in one interpreter whose numpy may use none of
    # the SIMD code it would pick on this host: exp, log and ** on arrays
    # then round as the baseline code does, and no artifact may move
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches no SIMD target on this host: nothing to compare")
    models = write_models(tmp_path)
    runs = {run: [a.format(**models) for a in argv] + ["--out", str(tmp_path / run)]
            for run, (argv, _) in PINNED.items()}
    probe = ("import json, sys\nfrom gmeasure.cli import main\n"
             "print(*[main(argv) for argv in json.loads(sys.argv[1]).values()])")
    src = Path(gmeasure.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.stdout.splitlines()[-1:] == [" ".join(["0"] * len(runs))], proc.stderr
    moved = [f"{run}/{name}" for run, (_, digests) in sorted(PINNED.items())
             for name, digest in digests.items()
             if hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest() != digest]
    assert moved == [], f"with {' '.join(targets)} disabled"


def test_run_failing_mid_stream_publishes_nothing(monkeypatch, tmp_path, capsys):
    # renewal_u.csv's 40 001 rows are three chunks of two columns each; the
    # failure comes on the second chunk, after the first reached the file
    out = tmp_path / "out"
    argv = ["renewal", "--d", "0.5", "--b", "1,3", "--K", "1", "--out", str(out)]
    assert main(argv + ["--n-max", "20000"]) == 0
    published = {p.name: p.read_bytes() for p in out.iterdir()}
    cell_table, columns_encoded = cli._cell_table, []

    def fail_on_second_chunk(cells):
        columns_encoded.append(len(cells))
        if len(columns_encoded) > 2:
            raise gmeasure.GMeasureError("injected failure while writing")
        return cell_table(cells)

    monkeypatch.setattr(cli, "_cell_table", fail_on_second_chunk)
    capsys.readouterr()
    rc = main(argv + ["--n-max", "40000"])
    err = capsys.readouterr().err
    assert rc == 1 and "injected failure" in err, err
    assert columns_encoded == [cli._CSV_ROWS] * 3, columns_encoded
    assert {p.name: p.read_bytes() for p in out.iterdir()} == published
    assert not list(tmp_path.glob(".out.*"))


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
    assert b"".join(cli._csv(["a comment"], header, columns)) == expected


# a small pool, so that drawn columns repeat values and bit patterns
FLOAT_POOL = [0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, 1 / 3, 5e-324, 1e-05, 1e16, 2.0**-1074 * 3,
              math.inf, -math.inf, math.nan, 0.5, 1e300]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(FLOAT_POOL), max_size=40), st.integers(1, 3))
def test_csv_float_columns_match_oracle(values, step):
    column = np.array(values, dtype=np.float64)[::step]
    columns = [range(len(column)), column, column[::-1]]
    expected = csv_cell_by_cell([], ["n", "x", "y"], _python_values(columns))
    assert b"".join(cli._csv([], ["n", "x", "y"], columns)) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(int(INT64.min), int(INT64.max)), max_size=40))
def test_csv_int_columns_match_oracle(values):
    column = np.array(values, dtype=np.int64)
    columns = [column, column[::-1] // 7, tuple(values)]
    expected = csv_cell_by_cell([], ["x", "y", "z"], _python_values(columns))
    assert b"".join(cli._csv([], ["x", "y", "z"], columns)) == expected


def test_csv_rejects_a_nul_in_a_cell():
    with pytest.raises(ValueError, match="NUL"):
        b"".join(cli._csv([], ["label"], [["ok", "not\0ok"]]))


def test_csv_peak_memory_is_bounded():
    # the benchmark's renewal columns, of distinct and repeated floats, at its
    # 200 001 rows and at ten times that: the writer holds one chunk at a
    # time, so its peak does not grow with the row count
    spec = RenewalSpec((0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.08),
                       (1, 1, 2, 2, 3, 3, 4, 4, 5), 8)
    ab = build_alphabeta(spec)
    for n_max in (200_000, 2_000_000):
        columns = [range(n_max + 1), renewal_solve(ab, n_max)]
        tracemalloc.start()
        try:
            size = sum(len(chunk) for chunk in cli._csv(["u_n"], ["n", "u_n"], columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, (n_max, peak, size)


@pytest.mark.parametrize("argv", [
    ["--b", "2,2", "--n-max", "4194304"],  # n_max + 1 = 2^22 + 1 rows
    ["--b", "1,90000"],  # the default n_max = 50 * B_2 = 4 500 050
    # 250 001 rows, but (n_max + 1)(K + 1) = 5 250 021 tap reads; the later
    # --d and --K replace the test's own
    ["--d", ",".join(["0.5"] * 20), "--b", ",".join(["1"] * 21), "--K", "20",
     "--n-max", "250000"],
    # a boundary layer of B_2 = 20 000 001 entries, however few rows
    ["--b", "1,20000000", "--n-max", "10"],
    # B_2 past the int64 range
    ["--b", "1,99999999999999999999"],
], ids=["explicit", "default", "taps", "boundary-layer", "boundary-overflow"])
def test_renewal_row_budget_is_checked_first(argv, monkeypatch, tmp_path, capsys):
    # more than DEFAULT_BUDGET rows, tap reads or boundary-layer entries:
    # refused before u is solved for
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
    # K_max + B_(K_max+1) = 6 000 001 on const:1
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
    # the summary repeats nothing of the bounds table but its best row
    assert set(summary) == {"best_bound", "best_K", "max_block_truncation"}
    header, rows = read_csv_rows(out / "pipeline_bounds.csv")
    assert header == ["K", "dbar", "ratio_bound"]
    assert [int(row[0]) for row in rows] == [1, 2, 3, 4, 5]
    assert float(rows[summary["best_K"] - 1][2]) == summary["best_bound"]
    # each published R_K is the renewal-theorem limit of its K's chain
    d = [float(row[1]) for row in rows]
    for row in rows:
        K = int(row[0])
        ab = build_alphabeta(RenewalSpec(tuple(d[:K]), (1,) * (K + 1), K))
        assert float(row[2]) == pytest.approx(renewal_limit(ab), abs=1e-12)


def test_pipeline_sweep_is_linear_in_K_max(longrange_file, tmp_path):
    # 2100 truncation levels: past the quadratic sweep's budget, well inside
    # K_max + B_(K_max+1)
    out = tmp_path / "pipe"
    rc = main(["pipeline", "--model", str(longrange_file), "--schedule", "const:1",
               "--K-max", "2100", "--depth", "4", "--trajectories", "5", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out / "pipeline_bounds.csv")
    assert [int(row[0]) for row in rows] == list(range(1, 2101))
    # the summary holds the best row only, whatever K_max
    assert (out / "pipeline_summary.json").stat().st_size < 200


def test_pipeline_reads_the_schedule_as_arrays(longrange_file, tmp_path, monkeypatch):
    # the budget check and the R_K lengths share one partial-sum array, the
    # block bounds and the sampler read one each, each computed by one call;
    # one evaluation per block would make over 200 000 calls here
    calls = []
    constant_sums = coupling._constant_sums

    def counted(*args):
        calls.append(args)
        return constant_sums(*args)

    monkeypatch.setattr(coupling, "_constant_sums", counted)
    rc = main(["pipeline", "--model", str(longrange_file), "--schedule", "const:1",
               "--K-max", "100000", "--depth", "4", "--trajectories", "5", "--seed", "1",
               "--out", str(tmp_path / "pipe")])
    assert rc == 0
    assert len(calls) == 3, len(calls)


def test_sampler_computes_no_partial_sum_past_the_depth(longrange_file, tmp_path, capsys):
    # geom:l=1.1 reaches a 13-site block at run 27, and B_8001 would leave
    # float range: the run is refused for BLOCK_CAP (exit 3), not for a
    # partial sum it never needs (exit 2)
    rc = main(["couple", "--model", str(longrange_file), "--schedule", "geom:l=1.1",
               "--depth", "8000", "--trajectories", "1", "--seed", "1",
               "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "run 27 reaches a block of length 13" in err and "at most 12 sites" in err, err


def test_pipeline_profile_stops_at_the_sites_the_bounds_read(tmp_path):
    # K_max + B_(K_max+1) = 20 + 2^21 fits the budget; counting the unread
    # block 22 as well (20 + 2^22) did not
    out = tmp_path / "pipe"
    paths = write_models(tmp_path)
    rc = main(["pipeline", "--model", str(paths["exponential"]), "--schedule", "geom:l=2",
               "--K-max", "20", "--depth", "8", "--trajectories", "5", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out / "pipeline_bounds.csv")
    assert [row[0] for row in rows] == [str(K) for K in range(1, 21)]


def test_renewal_runs_at_large_K(tmp_path):
    # 50 001 alpha masses whose float sum is 1 + 1.8e-12: within the
    # rounding bound 4 (K + 1) 2^-52 of the telescoping sum
    K = 50_000
    out = tmp_path / "ren"
    rc = main(["renewal", "--d", ",".join(["1e-05"] * K), "--b", ",".join(["1"] * (K + 1)),
               "--K", str(K), "--n-max", "10", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out / "renewal_limit.csv")
    assert len(rows) == K and rows[-1][0] == str(K)


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


def test_power_budgets_never_form_the_power(longrange_file):
    # |S|^k over the budget is refused from k alone: 2^k itself takes 1.25 MB
    # at k = 10^7 (and 12.5 GB at 10^11)
    model = load_model(longrange_file)
    k = 10**7
    checks = [
        lambda: gmeasure.gmodel.finite_memory_surrogate(model, k),
        lambda: coupling.check_dn_budget(model, coupling.constant_schedule(k), 1, 0),
        lambda: coupling.check_dn_budget(model, coupling.constant_schedule(1), 1, k),
    ]
    for check in checks:
        tracemalloc.start()
        try:
            with pytest.raises(gmeasure.BudgetError, match="exceeds budget"):
                check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak


@pytest.mark.parametrize("out", ["F", "F/sub"])
def test_out_through_a_file_is_refused_before_the_run(out, tmp_path, monkeypatch, capsys):
    # --out naming an existing regular file, or a path through one, cannot
    # be published to: refused before any criterion is computed
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "check_square_summable_variation", refuse)
    (tmp_path / "F").write_text("kept")
    rc = main(["criteria", "--variation", "power_law:c=1,p=2", "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]  # no .F.* work directory
    assert (tmp_path / "F").read_text() == "kept"


@pytest.mark.parametrize("out", ["L", "L/sub"])
def test_out_through_a_dangling_symlink_is_refused_before_the_run(out, tmp_path, monkeypatch,
                                                                  capsys):
    # a symlink to a missing path is no directory to publish to, nor a path
    # through one: refused before any criterion is computed
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "check_square_summable_variation", refuse)
    (tmp_path / "L").symlink_to(tmp_path / "missing")
    rc = main(["criteria", "--variation", "power_law:c=1,p=2", "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["L"]  # no .L.* work directory
    assert os.readlink(tmp_path / "L") == str(tmp_path / "missing")


def test_missing_seed_is_config_error(longrange_file, tmp_path, capsys):
    # argparse enforces the mandatory seed for stochastic experiments
    rc = main(["couple", "--model", str(longrange_file), "--out", str(tmp_path / "z")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1 and "--seed" in err, err


# malformed input -> exit code 2 and a one-line message, never a traceback;
# the OVER_BUDGET rows ask for |S|^k states with k = 10^7 -> exit code 3
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
    "renewal K zero": ["renewal", "--d", "0.5", "--b", "2,2", "--K", "0"],
    "renewal more d than K": ["renewal", "--d", "0.5,0.4,0.3", "--b", "1,2", "--K", "1"],
    "renewal more b than K + 1": ["renewal", "--d", "0.5", "--b", "1,2,3,4,5", "--K", "1"],
    "transfer n_max zero": ["transfer", "--model", "{longrange}", "--n-max", "0"],
    "couple depth zero": ["couple", "--depth", "0"],
    "couple trajectories zero": ["couple", "--trajectories", "0"],
    "pipeline depth zero": ["pipeline", "--depth", "0"],
    "pipeline trajectories zero": ["pipeline", "--trajectories", "0"],
    "pipeline K_max zero": ["pipeline", "--K-max", "0"],
    "pipeline negative seed": ["pipeline", "--seed", "-1"],
    "unknown subcommand": ["bogus"],
    "lambda not finite": ["criteria", "--variation", "power_law:c=1,p=2", "--lam", "nan"],
    "epsilon not finite": ["criteria", "--variation", "power_law:c=1,p=2", "--epsilon", "nan"],
    "variation value not finite": ["criteria", "--variation", "power_law:c=nan,p=2"],
    "model coeff_mass not finite": ["transfer", "--model", "{nan_mass}"],
    "model coeff_r zero with coeff_mass": ["transfer", "--model", "{zero_ratio}"],
    "model memory not an integer": ["transfer", "--model", "{fractional_memory}"],
    "model memory 40": ["transfer", "--model", "{memory_40}"],
    "model memory 100": ["transfer", "--model", "{memory_100}"],
    "model key repeated": ["transfer", "--model", "{repeated_theta}", "--trunc-memory", "4"],
    "model file not UTF-8": ["transfer", "--model", "{not_utf8}"],
    "geom growth repeated": ["pipeline", "--schedule", "geom:l=1.5,l=2"],
    "variation key repeated": ["criteria", "--variation", "power_law:c=1,p=2,c=3"],
    "power-law window sums overflow": ["criteria", "--variation", "power_law:c=1e200,p=2"],
    "exponential window sums overflow": ["criteria", "--variation", "exponential:c=1e200,r=0.5"],
    "finite-range window sums overflow": ["criteria", "--variation",
                                          "finite_range:M=100,level=1e200"],
    "surrogate memory 10^7": ["transfer", "--model", "{longrange}", "--trunc-memory", "10000000"],
    "dn block of 10^7 sites": ["couple", "--schedule", "const:10000000", "--dn-max", "1"],
    "dn tails of 10^7 sites": ["couple", "--tail-len", "10000000", "--dn-max", "1"],
}
OVER_BUDGET = {"surrogate memory 10^7", "dn block of 10^7 sites", "dn tails of 10^7 sites"}

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
    assert rc == (3 if case in OVER_BUDGET else 2), err
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


# a fresh interpreter runs one subcommand and prints its exit code, then
# ru_maxrss after `import gmeasure.cli` and at the end, in KiB
RSS_PROBE = """\
import resource, sys
from gmeasure.cli import main
baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rc = main(sys.argv[1:])
print(rc, baseline, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# ru_maxrss survives exec: a probe started straight from the test process
# would start at that process's peak, so a bare interpreter, smaller than
# the probe's import baseline, starts it instead
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def test_large_artifact_peak_rss_is_bounded(tmp_path):
    # a 2 000 001-row renewal_u.csv (about 53 MB) reaches disk chunk by
    # chunk: the run's peak stays within the import baseline plus twice the
    # 16 MB u array, plus 16 MB
    n_max = 2_000_000
    argv = ["renewal", "--d", "0.5", "--b", "1,3", "--K", "1", "--n-max", str(n_max),
            "--out", str(tmp_path / "out")]
    src = Path(gmeasure.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-c", RSS_PROBE,
                           *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    rc, baseline, peak = (proc.stdout.split() or ["no output", 0, 0])[-3:]
    assert rc == "0", proc.stderr
    u_bytes = 8 * (n_max + 1)
    bound = 1024 * int(baseline) + 2 * u_bytes + 16 * 2**20
    assert 1024 * int(peak) <= bound, (baseline, peak)


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


# a fresh interpreter in which any import of scipy raises ImportError runs
# each subcommand of the JSON list argv[1] in turn and prints the exit codes
NO_SCIPY_PROBE = """\
import json, sys
sys.modules["scipy"] = None
from gmeasure.cli import main
print(*(main(argv) for argv in json.loads(sys.argv[1])))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    models = {}
    for name in ("mem1", "longrange"):
        models[name] = tmp_path / f"{name}.gmodel"
        models[name].write_text(MODELS[name])
    runs = [
        ["transfer", "--n-max", "5", "--model", str(models["mem1"])],
        ["transfer", "--n-max", "5", "--trunc-memory", "4", "--model", str(models["longrange"])],
        COUPLE_DN_ARGV + ["--model", str(models["longrange"])],
        ["renewal", "--d", "0.5", "--b", "2,2", "--K", "1"],
        ["criteria", "--variation", "power_law:c=1,p=2"],
        PIPELINE_ARGV + ["--model", str(models["longrange"])],
        ["selftest"],
    ]
    runs = [argv + ["--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(runs)]
    src = Path(gmeasure.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, json.dumps(runs)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    # the exit codes come last: selftest prints its report first
    assert proc.stdout.splitlines()[-1:] == [" ".join(["0"] * len(runs))], proc.stderr


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


# config_hash of one run of each subcommand at its default options, the
# model at a relative path: it pins the hashed record and each
# subcommand's own defaults
CONFIG_HASHES = {
    "transfer": (["transfer", "--model", "mem1.gmodel"],
                 "afc5bb257297ad2976538a38053dc08ea73bc0062f372fcb5bb411e55977b5fa"),
    "couple": (["couple", "--model", "mem1.gmodel", "--seed", "1"],
               "84afdeb7716862e1144018f20477dedf3d4f26b2f039c83b77c1b6ce45c0363f"),
    "renewal": (["renewal", "--d", "0.5", "--b", "2,2", "--K", "1"],
                "99fae05743e6f09a8c6f1ce1600f998937bfca04d160e0c466bf2de625f2d9af"),
    "criteria": (["criteria", "--variation", "power_law:c=1,p=2"],
                 "e5ea8e4f242bcc5295f02ad297eb4514f747d637530b242055680b5fe68be426"),
    "pipeline": (["pipeline", "--model", "mem1.gmodel", "--seed", "1"],
                 "d2167aca6b9c7ecaae8e9aca43fb47ee7b192d63a257129eb5a21989355882c0"),
    "selftest": (["selftest"],
                 "02ff6e79c6a3b1029d08b5ff14ccacb7eb916d1e68691ba43e9780fa11e3162d"),
}


@pytest.mark.parametrize("command", sorted(CONFIG_HASHES))
def test_config_hash_is_pinned(command, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    Path("mem1.gmodel").write_text(MEM1_MODEL)
    argv, config_hash = CONFIG_HASHES[command]
    assert main(argv + ["--out", "out"]) == 0
    assert json.loads(Path("out/manifest.json").read_text())["config_hash"] == config_hash


# a fresh interpreter prints, as JSON, the exit code and stdout of
# `gmeasure --help` and of `gmeasure <command> --help` for each argv[1:]
HELP_PROBE = """\
import contextlib, io, json, sys
from gmeasure.cli import main
results = []
for argv in [[], *([command] for command in sys.argv[1:])]:
    out, code = io.StringIO(), "no exit"
    with contextlib.redirect_stdout(out):
        try:
            main(argv + ["--help"])
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_help_exits_0_with_a_usage_line():
    commands = ["transfer", "couple", "renewal", "criteria", "pipeline", "selftest"]
    src = Path(gmeasure.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", HELP_PROBE, *commands], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    progs = ["gmeasure", *(f"gmeasure {c}" for c in commands)]
    assert len(results) == len(progs), results
    for prog, (code, text) in zip(progs, results):
        assert code == 0, (prog, code)
        assert text.startswith(f"usage: {prog} "), (prog, text)


def test_config_hash_covers_model_contents(tmp_path):
    path = tmp_path / "model.gmodel"
    hashes = []
    for text in (MEM1_MODEL, MEM1_MODEL.replace("0.3", "0.2").replace("0.7", "0.8")):
        path.write_text(text)
        out = tmp_path / f"run{len(hashes)}"
        assert main(["transfer", "--model", str(path), "--n-max", "3",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["environment"]) == {"python", "numpy"}
        hashes.append(manifest["config_hash"])
    assert hashes[0] != hashes[1]

"""Command line driver checks, run in-process through main(argv).

Exit codes are part of the contract: 0 success, 1 verification failure,
2 usage error. File outputs must be byte-reproducible from the flags.
"""

import contextlib
import csv
import io
import json
import tracemalloc

import pytest
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from coinprune.cli import OUT_DIR_ENV, main

SCENARIO = """\
seed = 3
blocks = 460
roles = miner:3:coinprune full:1:legacy joining:1:coinprune
params = delta_p=200 delta_r=50 delta_d=6 k=5
"""


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("chain")
    code = main(["chain", "gen", "--blocks", "420", "--seed", "5",
                 "--out", "chain.blk", "--headers", "chain.hdr",
                 "--out-dir", str(d)])
    assert code == 0
    return d


def test_chain_gen_outputs(chain_dir):
    assert (chain_dir / "chain.blk").exists()
    assert (chain_dir / "chain.hdr").stat().st_size == 421 * 140


def test_chain_gen_deterministic(chain_dir, tmp_path):
    assert main(["chain", "gen", "--blocks", "420", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "chain.blk").read_bytes() \
        == (chain_dir / "chain.blk").read_bytes()
    assert main(["chain", "gen", "--blocks", "420", "--seed", "6",
                 "--out", "other.blk", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "other.blk").read_bytes() \
        != (tmp_path / "chain.blk").read_bytes()


@pytest.fixture(scope="module")
def snap_dir(chain_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("snap")
    code = main(["snapshot", "create", "--chain", str(chain_dir / "chain.blk"),
                 "--height", "400", "--out", "state.snap", "--out-dir", str(d)])
    assert code == 0
    return d


def test_snapshot_create_and_id(snap_dir, capsys):
    assert (snap_dir / "state.snap").exists()
    assert (snap_dir / "state.snap.hashes").exists()
    assert main(["snapshot", "id", "--snap", str(snap_dir / "state.snap")]) == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert len(bytes.fromhex(printed)) == 32


def test_snapshot_verify_roundtrip(snap_dir, capsys):
    assert main(["snapshot", "id", "--snap", str(snap_dir / "state.snap")]) == 0
    snap_id = capsys.readouterr().out.strip().splitlines()[-1]
    code = main(["snapshot", "verify", "--snap", str(snap_dir / "state.snap"),
                 "--id", snap_id])
    assert code == 0
    assert "snapshot ok" in capsys.readouterr().out


def test_snapshot_verify_detects_tamper(snap_dir, tmp_path, capsys):
    raw = bytearray((snap_dir / "state.snap").read_bytes())
    raw[80] ^= 0x01  # inside the first chunk, header is 40 bytes
    tampered = tmp_path / "tampered.snap"
    tampered.write_bytes(bytes(raw))
    assert main(["snapshot", "id", "--snap", str(snap_dir / "state.snap")]) == 0
    snap_id = capsys.readouterr().out.strip().splitlines()[-1]
    code = main(["snapshot", "verify", "--snap", str(tampered),
                 "--id", snap_id,
                 "--hashes", str(snap_dir / "state.snap.hashes")])
    assert code == 1
    err = capsys.readouterr().err
    assert "verification failed" in err and "chunk 0" in err


def test_snapshot_verify_wrong_id(snap_dir, capsys):
    code = main(["snapshot", "verify", "--snap", str(snap_dir / "state.snap"),
                 "--id", "ab" * 32])
    assert code == 1
    capsys.readouterr()


def test_snapshot_verify_usage_errors(snap_dir, capsys):
    snap = str(snap_dir / "state.snap")
    assert main(["snapshot", "verify", "--snap", snap, "--id", "zz"]) == 2
    assert main(["snapshot", "verify", "--snap", snap, "--id", "abcd"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("manifest, snap, snap_id, code, message", [
    # --hashes names a file that is not there
    (None, "state.snap", None, 1, "cannot read hash manifest"),
    ("ab\n", "state.snap", None, 1, "bad hash manifest"),
    ("zz" * 32 + "\n", "state.snap", None, 1, "bad hash manifest"),
    # a usage error is reported before the snapshot is read
    ("", "nope.snap", "zz", 2, "--id must be hex"),
], ids=["missing-manifest", "short-line", "non-hex-line", "id-before-snapshot"])
def test_snapshot_verify_fails_closed_on_its_inputs(
        snap_dir, tmp_path, capsys, manifest, snap, snap_id, code, message):
    assert main(["snapshot", "id", "--snap", str(snap_dir / "state.snap")]) == 0
    real_id = capsys.readouterr().out.strip().splitlines()[-1]
    hashes = tmp_path / "named.hashes"
    if manifest:
        hashes.write_text(manifest)
    assert main(["snapshot", "verify", "--snap", str(snap_dir / snap),
                 "--id", snap_id or real_id, "--hashes", str(hashes)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_missing_input_files(tmp_path, capsys):
    assert main(["snapshot", "id", "--snap", str(tmp_path / "nope.snap")]) == 1
    assert main(["sim", "bootstrap",
                 "--scenario", str(tmp_path / "nope.scn")]) == 1
    assert main(["snapshot", "create", "--chain", str(tmp_path / "nope.blk"),
                 "--height", "10"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("raw", [
    b"CPB1\x01\x00\x00",  # ends inside the block count
    b"CPB1" + (1).to_bytes(4, "little") + (82).to_bytes(4, "little")
    + b"\x00" * 82,  # one record: a header, then half a transaction count
], ids=["7-byte", "82-byte-record"])
def test_snapshot_create_rejects_truncated_chain(tmp_path, capsys, raw):
    chain = tmp_path / "short.blk"
    chain.write_bytes(raw)
    code = main(["snapshot", "create", "--chain", str(chain), "--height", "0",
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot read chain") and "Traceback" not in err


def _block_starts(raw: bytes) -> list[int]:
    """Where each block record of a block file begins (after its size)."""
    starts, offset = [], 8
    for _ in range(int.from_bytes(raw[4:8], "little")):
        starts.append(offset + 4)
        offset += 4 + int.from_bytes(raw[offset:offset + 4], "little")
    return starts


@pytest.mark.parametrize("malformed, invalid", [
    (420, None), (None, 10), (420, 10), (200, 10)],
    ids=["malformed-past-height", "invalid", "both", "both-below-height"])
def test_snapshot_create_reports_the_first_fault_of_the_file(
        chain_dir, tmp_path, capsys, malformed, invalid):
    # blocks are parsed as the replay reaches them, yet a malformed block
    # past --height is still a read error, and it wins over an earlier
    # block that fails validation, as when the whole file was parsed first
    raw = bytearray((chain_dir / "chain.blk").read_bytes())
    starts = _block_starts(bytes(raw))
    if malformed is not None:  # claims more transactions than it holds
        raw[starts[malformed] + 80:starts[malformed] + 84] = b"\xff" * 4
    if invalid is not None:  # names another parent
        raw[starts[invalid] + 4] ^= 1
    chain = tmp_path / "edited.blk"
    chain.write_bytes(raw)
    code = main(["snapshot", "create", "--chain", str(chain), "--height",
                 "400", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot read chain" if malformed
                          else f"error: chain invalid: height {invalid}")
    assert "Traceback" not in err


def test_snapshot_create_holds_one_parsed_block_at_a_time(chain_dir, tmp_path,
                                                          capsys):
    # the file stays on disk and one block is parsed at a time, so the
    # traced peak is the set plus one block, about 0.46 times the
    # 420-block file's size; the file's bytes held as well read 1.45 times
    chain = chain_dir / "chain.blk"
    tracemalloc.start()
    try:
        code = main(["snapshot", "create", "--chain", str(chain), "--height",
                     "400", "--out-dir", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 0.75 * chain.stat().st_size


@pytest.mark.parametrize("raw", [
    b"roles = miner:x:coinprune\n",
    b"roles = miner:1:coinprune\nparams = delta_p\n",
    b"roles = miner:1:coinprune\nparams = delta_p=0\n",
    b"roles = archivist:1:coinprune\n",
    b"roles = miner:1:coinprune\nseed = \xff\n",
    b"roles = miner:1:coinprune\nneighbors = -1\n",
    b"roles = miner:1:coinprune\nseed = 9223372036854775808\n",
    b"seed = 1\nblocks = 80\n"
    b"roles = miner:3:coinprune full:1:coinprune joining:1:coinprune\n"
    b"params = delta_p=10 delta_r=20 delta_d=1 k=2\n",
    b"roles = miner:1:coinprune\nprune = false\n",
    b"roles = miner:1:coinprune\nblcoks = 10\n",
    b"roles = miner:1:coinprune\nappdata = false\n",
    b"roles = miner:1:coinprune\nblocks = 5\nparams = delta_p=200 delta_R=50\n",
    b"roles = miner:1:coinprune\nblocks = 5\nblocks = 6\n",
    b"roles = miner:1:coinprune\nblocks = 5\n"
    b"params = delta_p=200 delta_p=300\n",
    b"roles = miner:1:coinprune full:-3:legacy\nblocks = 5\n",
    b"roles = miner:1:coinprune\nblocks = -5\n",
    b"roles = miner:1:coinprune\nblocks = 5\ntxs_per_block = -1\n",
], ids=["count", "param-pair", "param-value", "role", "not-utf8",
        "neighbors", "seed", "overlapping-windows", "prune-key",
        "misspelt-key", "appdata-false", "misspelt-param", "repeated-key",
        "repeated-param", "negative-role-count", "negative-blocks",
        "negative-txs-per-block"])
def test_sim_bootstrap_rejects_bad_scenario(tmp_path, capsys, raw):
    scn = tmp_path / "bad.scn"
    scn.write_bytes(raw)
    code = main(["sim", "bootstrap", "--scenario", str(scn),
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot load scenario") \
        and "Traceback" not in err


def test_sim_bootstrap_run(tmp_path, capsys):
    scn = tmp_path / "plain.scn"
    scn.write_text(SCENARIO)
    code = main(["sim", "bootstrap", "--scenario", str(scn), "--trace",
                 "--prefix", "run", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("run_storage.csv", "run_breakdown.csv", "run_pulses.csv",
                 "run_joins.csv", "run_trace.txt", "run_meta.json"):
        assert (tmp_path / name).exists(), name
    with open(tmp_path / "run_joins.csv", newline="") as fh:
        joins = list(csv.DictReader(fh))
    assert joins and all(row["status"] == "accepted" for row in joins)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["seed"] == 3 and meta["chain_length"] == 460
    assert "pulse 2 at height 400: accepted" in out
    assert "join join0: accepted" in out

    # a seed override lands in the metadata and changes the artifacts
    assert main(["sim", "bootstrap", "--scenario", str(scn), "--seed", "9",
                 "--prefix", "alt", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    alt_meta = json.loads((tmp_path / "alt_meta.json").read_text())
    assert alt_meta["seed"] == 9


@pytest.mark.parametrize("seed", [str(2**63), str(-2**63 - 1)])
def test_sim_bootstrap_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys,
                                                            seed):
    scn = tmp_path / "plain.scn"
    scn.write_text(SCENARIO)
    code = main(["sim", "bootstrap", "--scenario", str(scn), "--seed", seed,
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--seed" in err and seed in err
    assert [p.name for p in tmp_path.iterdir()] == ["plain.scn"]


def test_sim_bootstrap_reports_failed_join(tmp_path, capsys):
    scn = tmp_path / "stranded.scn"
    scn.write_text("seed = 1\nblocks = 460\n"
                   "roles = miner:2:coinprune joining:1:legacy\n"
                   "params = delta_p=200 delta_r=50 delta_d=6 k=5\n")
    code = main(["sim", "bootstrap", "--scenario", str(scn),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "no neighbor serves historic blocks" in capsys.readouterr().out


def test_sim_security_deterministic_across_runs_and_jobs(tmp_path, capsys):
    base = ["sim", "security", "--delta-r", "100", "--k", "5", "--trials",
            "200", "--seed", "7", "--step", "10", "--out-dir", str(tmp_path)]
    assert main(base + ["--prefix", "a"]) == 0
    assert main(base + ["--prefix", "b"]) == 0
    assert main(base + ["--prefix", "c", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "min f_A compromising at full support" in out
    first = (tmp_path / "a_sweep.csv").read_bytes()
    assert (tmp_path / "b_sweep.csv").read_bytes() == first
    assert (tmp_path / "c_sweep.csv").read_bytes() == first
    assert (tmp_path / "a_thresholds.csv").read_bytes() \
        == (tmp_path / "c_thresholds.csv").read_bytes()
    for svg in ("a_thresholds.svg", "a_skip.svg"):
        assert (tmp_path / svg).read_text().startswith("<svg")
    meta = json.loads((tmp_path / "a_meta.json").read_text())
    assert meta["trials"] == 200 and meta["mode"] == "binomial"


def test_sim_security_rejects_bad_step(tmp_path, capsys):
    assert main(["sim", "security", "--step", "7",
                 "--out-dir", str(tmp_path)]) == 2
    assert "step" in capsys.readouterr().err


def test_sim_security_rejects_k_above_delta_r(tmp_path, capsys):
    # a 10-block window can never hold 50 reaffirmations
    assert main(["sim", "security", "--k", "50", "--delta-r", "10",
                 "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


def test_report_from_csvs(tmp_path, capsys):
    assert main(["sim", "security", "--delta-r", "100", "--k", "5",
                 "--trials", "100", "--step", "20", "--prefix", "s",
                 "--out-dir", str(tmp_path)]) == 0
    scn = tmp_path / "plain.scn"
    scn.write_text(SCENARIO)
    assert main(["sim", "bootstrap", "--scenario", str(scn),
                 "--prefix", "run", "--out-dir", str(tmp_path)]) == 0
    code = main(["report", "--sweep", str(tmp_path / "s_sweep.csv"),
                 "--storage", str(tmp_path / "run_storage.csv"),
                 "--prefix", "rep", "--out-dir", str(tmp_path)])
    assert code == 0
    for name in ("rep_thresholds.svg", "rep_skip.svg", "rep_storage.svg"):
        assert (tmp_path / name).read_text().startswith("<svg")
    capsys.readouterr()


def test_report_ignores_sweep_row_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sim", "security", "--delta-r", "100", "--k", "5", "10",
                 "--trials", "100", "--step", "10", "--prefix", "s",
                 "--out-dir", "fwd"]) == 0
    header, *rows = (tmp_path / "fwd" / "s_sweep.csv").read_text().splitlines()
    (tmp_path / "rev").mkdir()
    (tmp_path / "rev" / "s_sweep.csv").write_text(
        "\n".join([header] + rows[::-1]) + "\n")
    for side in ("fwd", "rev"):
        assert main(["report", "--sweep", f"{side}/s_sweep.csv",
                     "--prefix", side, "--out-dir", "charts"]) == 0
    capsys.readouterr()
    for chart in ("thresholds", "skip"):
        fwd = (tmp_path / "charts" / f"fwd_{chart}.svg").read_text()
        rev = (tmp_path / "charts" / f"rev_{chart}.svg").read_text()
        assert "<polyline" in fwd
        assert rev == fwd.replace("source=fwd/", "source=rev/")


@pytest.mark.parametrize("cut", [
    lambda rows: rows + rows[:1],
    lambda rows: rows[:-1] + rows[:1],
    lambda rows: rows[:-1],
], ids=["extra-repeat", "repeat-in-place-of-a-cell", "missing-cell"])
def test_report_rejects_a_sweep_that_does_not_fill_its_grid(tmp_path, capsys,
                                                            cut):
    assert main(["sim", "security", "--delta-r", "100", "--k", "5",
                 "--trials", "20", "--step", "50", "--prefix", "s",
                 "--out-dir", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "s_sweep.csv").read_text().splitlines()
    source = tmp_path / "cut.csv"
    source.write_text("\n".join([header] + cut(rows)) + "\n")
    capsys.readouterr()
    code = main(["report", "--sweep", str(source),
                 "--out-dir", str(tmp_path / "charts")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot read sweep csv") \
        and err.count("\n") == 1
    assert not any((tmp_path / "charts").iterdir())


def test_report_without_inputs_is_usage_error(tmp_path, capsys):
    assert main(["report", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_out_dir_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["chain", "gen", "--blocks", "5", "--out", "env.blk"]) == 0
    assert (tmp_path / "env.blk").exists()
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    for argv in (["chain", "frobnicate"], [], ["chain", "gen"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["chain", "gen", "--blocks", "5"],
    ["snapshot", "create", "--chain", "chain.blk", "--height", "5"],
    ["sim", "bootstrap", "--scenario", "plain.scn"],
    ["sim", "security", "--trials", "10", "--step", "50"],
    ["report", "--storage", "storage.csv"],
], ids=["chain-gen", "snapshot-create", "sim-bootstrap", "sim-security",
        "report"])
def test_unwritable_out_dir_fails_closed(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["chain", "gen", "--blocks", "5"]) == 0
    (tmp_path / "plain.scn").write_text(SCENARIO)
    (tmp_path / "storage.csv").write_text("node,bytes_stored\nm0,10\n")
    capsys.readouterr()
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory should go")
    code = main(argv + ["--out-dir", str(blocker / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["chain", "gen", "--blocks", "-5"],
    ["chain", "gen", "--blocks", "5", "--txs-per-block", "-1"],
    ["sim", "security", "--delta-r", "0"],
    ["sim", "security", "--k", "5", "0"],
    ["sim", "security", "--jobs", "0"],
    ["sim", "security", "--seed", "-1"],
    ["snapshot", "create", "--chain", "chain.blk", "--height", "-1"],
], ids=["blocks", "txs-per-block", "delta-r", "k", "jobs", "security-seed",
        "snapshot-height"])
def test_out_of_range_arguments_are_usage_errors(tmp_path, capsys, argv):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be at least" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind,text", [
    ("storage", "node,bytes_stored\nm0,10\nm1,inf\n"),
    ("storage", "node,bytes_stored\nm0,nan\n"),
    ("sweep", "f_C,f_A,delta_r,k,p_correct,p_adversary,p_skipped\n"
              "1.0,0.0,100,5,1.0,inf,0.0\n"),
    ("sweep", "f_C,f_A,delta_r,k,p_correct,p_adversary,p_skipped\n"
              "1.0,0.0,100,5,1.0,0.0,nan\n"),
    # a field past the csv module's size limit, which it raises on
    ("storage", "node,bytes_stored\nm0," + "9" * 200_000 + "\n"),
    ("sweep", "f_C,f_A,delta_r,k,p_correct,p_adversary,p_skipped\n"
              "1.0," + "0" * 200_000 + ",100,5,1.0,0.0,0.0\n"),
], ids=["storage-inf", "storage-nan", "sweep-inf", "sweep-nan",
        "storage-oversized-field", "sweep-oversized-field"])
def test_report_rejects_non_finite_numbers(tmp_path, capsys, kind, text):
    source = tmp_path / f"{kind}.csv"
    source.write_text(text)
    code = main(["report", f"--{kind}", str(source),
                 "--out-dir", str(tmp_path / "charts")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {kind} csv")
    assert not any((tmp_path / "charts").iterdir())


def test_report_rejects_negative_delta_r(tmp_path, capsys):
    source = tmp_path / "sweep.csv"
    source.write_text("f_C,f_A,delta_r,k,p_correct,p_adversary,p_skipped\n"
                      "1.0,0.0,-100,5,1.0,0.0,0.0\n")
    code = main(["report", "--sweep", str(source),
                 "--out-dir", str(tmp_path / "charts")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot read sweep csv")
    assert not any((tmp_path / "charts").iterdir())


# generated input files for `report --sweep`/`--storage` and `snapshot
# verify --hashes`: raw bytes, or lines built from each format's own
# words, with one field just past the csv module's field size limit
_SWEEP_HEADER = "f_C,f_A,delta_r,k,p_correct,p_adversary,p_skipped"
_BIG_FIELD = "9" * (csv.field_size_limit() + 1)
_FIELD = st.one_of(
    st.sampled_from(["0.0", "0.05", "1.0", "5", "100", "-1", "inf", "nan",
                     "1e308", "\"", "", _BIG_FIELD]),
    st.integers(-5, 10**6).map(str),
    st.text(max_size=4))
_REPORT_CSV = st.tuples(
    st.sampled_from([_SWEEP_HEADER, _SWEEP_HEADER[:-2], "node,bytes_stored"]),
    st.lists(st.lists(_FIELD, max_size=8).map(",".join), max_size=5)
).map(lambda parts: "\n".join([parts[0], *parts[1]]))
_MANIFEST_LINE = st.one_of(
    st.binary(min_size=32, max_size=32).map(bytes.hex),
    st.sampled_from(["", "ab", "zz" * 32, "0" * 65, _BIG_FIELD]),
    st.text(max_size=66))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None)
@given(command=st.sampled_from(["sweep", "storage", "hashes"]),
       data=st.data())
def test_report_and_verify_fail_closed_on_generated_files(
        snap_dir, fuzz_dir, command, data):
    snap = snap_dir / "state.snap"
    source = fuzz_dir / "input"
    if command == "hashes":
        real = (snap_dir / "state.snap.hashes").read_text().split()
        text = st.lists(st.one_of(_MANIFEST_LINE, st.sampled_from(real)),
                        max_size=4).map("\n".join)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["snapshot", "id", "--snap", str(snap)]) == 0
        argv = ["snapshot", "verify", "--snap", str(snap),
                "--id", out.getvalue().split()[-1], "--hashes", str(source)]
    else:
        text = _REPORT_CSV
        argv = ["report", f"--{command}", str(source),
                "--out-dir", str(fuzz_dir / "charts")]
    source.write_bytes(data.draw(st.one_of(st.binary(), text.map(
        lambda t: t.encode("utf-8", "surrogatepass")))))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ") \
            and err.getvalue().count("\n") == 1


# generated argv for every leaf command, over generated input files: the
# valid files of a small run, cut, with one byte flipped, or raw bytes,
# and scenario files built from the format's own words. Counts stay small
# so that one example runs well under a second.
def _pick(valid: list, invalid: list):
    """Mostly valid values, so that most examples get past the parser."""
    return st.sampled_from(valid * 3 + invalid)


def _often(usual, *others):
    """Draws from `usual` three times as often as from each of `others`."""
    return _pick([usual], list(others)).flatmap(lambda strategy: strategy)


def _mutated(valid: bytes):
    def flip(at_mask):
        at, mask = at_mask
        at %= len(valid)
        return valid[:at] + bytes([valid[at] ^ mask]) + valid[at + 1:]
    return _often(
        st.just(valid), st.integers(0, len(valid)).map(lambda n: valid[:n]),
        st.tuples(st.integers(0), st.integers(1, 255)).map(flip),
        st.binary(max_size=64))


_SCENARIO_VALUES = {
    "seed": _pick(["0", "1", "-1"], [str(2**63), "x"]),
    "blocks": _pick(["0", "3", "12", "30"], ["-2", "x"]),
    "nodes": _pick(["1", "3"], ["-1", "x"]),
    "roles": st.lists(_often(
        st.tuples(st.sampled_from(["miner", "full", "joining"]),
                  st.sampled_from(["0", "1", "2"]),
                  st.sampled_from(["coinprune", "legacy", "adversarial"])
                  ).map(":".join),
        st.sampled_from(["archivist:1:coinprune", "miner:x:legacy",
                         "full:-1:legacy", "joining:1:x", "miner:1"])),
        max_size=4).map(" ".join).flatmap(lambda roles: _pick(
            [f"miner:1:coinprune {roles}"], [roles])),
    "params": st.one_of(
        st.sampled_from(["delta_p=5 delta_r=3 delta_d=1 k=2",
                         "delta_p=10 delta_r=4 delta_d=0 k=1", ""]),
        st.lists(st.sampled_from(
            ["delta_p=0", "delta_r=20", "k=9", "delta_d=-1", "delta_R=5",
             "delta_p", "k=1=2", "delta_p=x"]), max_size=3).map(" ".join)),
    "faults": st.lists(st.sampled_from(
        ["bogus_tags", "bogus_chunks", "bogus_snapshot", "eclipse", "x"]),
        max_size=3).map(" ".join),
    "obfuscate": _pick(["true", "false"], ["yes", "0", "maybe"]),
    "appdata": _pick(["true"], ["false", "x"]),
    "txs_per_block": _pick(["0", "1", "4"], ["-1"]),
    "neighbors": _pick(["0", "1", "3"], ["-1"]),
    "prune": st.just("true"),
}
_SCENARIO_LINE = st.sampled_from(sorted(_SCENARIO_VALUES)).flatmap(
    lambda key: _SCENARIO_VALUES[key].map(lambda value: f"{key} = {value}"))
_SCENARIO = st.tuples(
    _SCENARIO_VALUES["blocks"], _SCENARIO_VALUES["roles"],
    st.lists(_often(_SCENARIO_LINE, st.sampled_from(["# note", "junk"])),
             max_size=4),
).map(lambda t: "\n".join([f"blocks = {t[0]}", f"roles = {t[1]}", *t[2]]))

_NAME = _pick(["a.out"], ["", ".", "sub/x"])
_INT = _pick(["0", "1", "2"], ["-1", "x"])
# flags an example gives nine times in ten: those the command requires,
# and report's --sweep, without which it has nothing to do
_USUAL = {("chain", "gen"): ["--blocks"],
          ("snapshot", "create"): ["--chain", "--height"],
          ("snapshot", "verify"): ["--snap", "--id"],
          ("snapshot", "id"): ["--snap"],
          ("sim", "bootstrap"): ["--scenario"],
          ("report",): ["--sweep"]}
# flags always given: without them sim security sweeps the full grid
_ALWAYS = {("sim", "security"): ["--delta-r", "--trials", "--step"]}


def _leaf_flags(files: dict, ids: list[str]) -> dict:
    """Each leaf command's flags: a value strategy, None for a switch,
    or a list strategy for a flag that takes several values."""
    def path(name: str):
        return _pick([str(files[name])], [str(files["missing"])])

    out_dir = _pick([str(files["out"])], [str(files["blocker"] / "o")])
    return {
        ("chain", "gen"): {
            "--blocks": _pick(["0", "3", "12"], ["-1", "x"]),
            "--seed": _INT, "--txs-per-block": _INT, "--out": _NAME,
            "--headers": _NAME, "--out-dir": out_dir},
        ("snapshot", "create"): {
            "--chain": path("chain"),
            "--height": _pick(["0", "12", "20"], ["-1", "99", "x"]),
            "--obfuscate": None, "--out": _NAME, "--out-dir": out_dir},
        ("snapshot", "verify"): {
            "--snap": path("snap"),
            "--id": _pick(ids, ["zz", "ab", "ab" * 32]),
            "--hashes": path("hashes")},
        ("snapshot", "id"): {"--snap": path("snap")},
        ("sim", "bootstrap"): {
            "--scenario": path("scenario"),
            "--seed": _pick(["0", "7"], [str(2**63), "x"]),
            "--trace": None, "--prefix": _NAME, "--out-dir": out_dir},
        ("sim", "security"): {
            "--delta-r": _often(st.lists(_pick(["5", "20", "1"], ["0", "x"]),
                                         min_size=1, max_size=2), st.just([])),
            "--k": _often(st.lists(_pick(["1", "3"], ["0", "30"]),
                                   min_size=1, max_size=2), st.just([])),
            "--trials": _pick(["1", "3"], ["0", "x"]), "--seed": _INT,
            "--jobs": _pick(["1"], ["0", "x"]),
            "--mode": _pick(["binomial", "blockwise"], ["x"]),
            "--step": _pick(["10", "25", "50", "100"], ["0", "7"]),
            "--n-miners": _pick(["1", "10", "100"], ["-1", "0"]),
            "--prefix": _NAME, "--out-dir": out_dir},
        ("report",): {
            "--sweep": path("sweep"), "--storage": path("storage"),
            "--prefix": _NAME, "--out-dir": out_dir},
    }


@pytest.fixture(scope="module")
def argv_fuzz_files(tmp_path_factory):
    """Paths of the generated inputs, and the valid bytes they start from."""
    d = tmp_path_factory.mktemp("argv")
    files = {name: d / name for name in (
        "chain", "snap", "scenario", "sweep", "storage", "out", "missing")}
    files["hashes"] = d / "snap.hashes"  # also the snapshot's sidecar
    files["blocker"] = d / "blocker"
    files["blocker"].write_text("a file where a directory should go")
    valid = d / "valid"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["chain", "gen", "--blocks", "20", "--seed", "2",
                     "--out", "chain.blk", "--out-dir", str(valid)]) == 0
        assert main(["snapshot", "create", "--chain", str(valid / "chain.blk"),
                     "--height", "12", "--out", "state.snap",
                     "--out-dir", str(valid)]) == 0
        assert main(["sim", "security", "--delta-r", "10", "--k", "2",
                     "--trials", "3", "--step", "50", "--prefix", "s",
                     "--out-dir", str(valid)]) == 0
    snap_id = out.getvalue().split("snapshot id ")[1].split()[0]
    sources = {"chain": valid / "chain.blk", "snap": valid / "state.snap",
               "hashes": valid / "state.snap.hashes",
               "sweep": valid / "s_sweep.csv"}
    start = {name: path.read_bytes() for name, path in sources.items()}
    start["storage"] = b"node,bytes_stored\nm0,10\nm1,2\n"
    return files, start, [snap_id, "00" * 32]


@pytest.mark.parametrize("command", [
    ("chain", "gen"), ("snapshot", "create"), ("snapshot", "verify"),
    ("snapshot", "id"), ("sim", "bootstrap"), ("sim", "security"),
    ("report",)], ids=" ".join)
# no explain phase: it replays a failing example under a line tracer,
# which through the sweep's loops stretched a failing run to minutes
@settings(deadline=None, max_examples=60,
          phases=[phase for phase in Phase if phase is not Phase.explain])
@given(data=st.data())
def test_every_command_fails_closed_on_generated_argv(argv_fuzz_files,
                                                      command, data):
    files, start, ids = argv_fuzz_files
    for name in ("chain", "snap", "sweep", "storage"):
        files[name].write_bytes(data.draw(_mutated(start[name]), label=name))
    files["hashes"].write_bytes(data.draw(st.one_of(
        _mutated(start["hashes"]),
        st.lists(_MANIFEST_LINE, max_size=3).map(
            lambda lines: "\n".join(lines).encode())), label="hashes"))
    files["scenario"].write_bytes(data.draw(_often(
        _SCENARIO.map(str.encode), st.binary(max_size=64)), label="scenario"))

    flags = _leaf_flags(files, ids)
    argv = list(command)
    usual = _USUAL.get(command, [])
    always = _ALWAYS.get(command, [])
    optional = sorted(set(flags[command]) - set(usual) - set(always))
    chosen = always + [flag for flag in usual if data.draw(
        st.sampled_from([True] * 9 + [False]), label=f"{flag} given")]
    chosen += data.draw(st.lists(st.sampled_from(optional), unique=True)
                        if optional else st.just([]), label="flags")
    for flag in chosen:
        value = flags[command][flag]
        argv.append(flag)
        if value is not None:
            drawn = data.draw(value, label=flag)
            argv += drawn if isinstance(drawn, list) else [drawn]
    argv += data.draw(st.sampled_from(
        [[]] * 9 + [["--bogus"], ["extra"], ["--help"]]), label="tail")

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), pytest.MonkeyPatch.context() as mp:
        mp.setenv(OUT_DIR_ENV, str(files["out"]))  # for a left-out --out-dir
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ") \
            and err.getvalue().count("\n") == 1, err.getvalue()

"""Command line driver checks, run in-process through main(argv).

Exit codes are part of the contract: 0 success, 1 verification failure,
2 usage error. File outputs must be byte-reproducible from the flags.
"""

import csv
import json

import pytest

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
], ids=["count", "param-pair", "param-value", "role", "not-utf8",
        "neighbors", "seed", "overlapping-windows"])
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
    with pytest.raises(SystemExit) as err:
        main(["chain", "frobnicate"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()

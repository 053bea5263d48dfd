"""Command-line interface."""

import re

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "200 us" in out
    assert "0.1021" in out


def test_zonemap(capsys):
    assert main(["zonemap"]) == 0
    out = capsys.readouterr().out
    assert "realized zones:" in out
    assert " 63" in out


def test_chronogram(capsys):
    assert main(["chronogram", "--dev", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "NDF(+10% f0)" in out
    assert "paper: 0.1021" in out


def test_sweep(capsys):
    assert main(["sweep", "--points", "5"]) == 0
    out = capsys.readouterr().out
    assert "linearity R^2" in out


def test_test_command_pass(capsys):
    assert main(["test", "--dev", "0.02", "--tolerance", "0.05"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_test_command_fail_unit(capsys):
    # A bad unit correctly failing still exits 0 (expected outcome).
    assert main(["test", "--dev", "0.15", "--tolerance", "0.05"]) == 0
    assert "FAIL" in capsys.readouterr().out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_campaign_mc(capsys):
    assert main(["campaign", "--dies", "8", "--seed", "1",
                 "--samples", "512"]) == 0
    out = capsys.readouterr().out
    assert "campaign: mc (8 dies" in out
    verdicts = re.search(r"(\d+) PASS / (\d+) FAIL", out)
    assert verdicts is not None
    # Mild 3% spread vs a 5% band: most of the 8 dies must pass.
    assert int(verdicts.group(1)) >= 6
    assert "golden cache" in out


def test_campaign_json(capsys):
    import json

    assert main(["campaign", "--dies", "4", "--samples", "512",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dies"] == 4
    assert payload["pass"] + payload["fail"] == 4
    assert payload["threshold"] > 0


def test_campaign_corners(capsys):
    assert main(["campaign", "--scenario", "corners",
                 "--samples", "512"]) == 0
    assert "5 dies" in capsys.readouterr().out


def test_campaign_faults(capsys):
    assert main(["campaign", "--scenario", "faults",
                 "--samples", "512"]) == 0
    out = capsys.readouterr().out
    verdicts = re.search(r"(\d+) PASS / (\d+) FAIL", out)
    assert verdicts is not None
    # Opens/shorts are gross defects: most of the universe must fail.
    assert int(verdicts.group(2)) > int(verdicts.group(1))


def test_campaign_executor_pool(capsys):
    assert main(["campaign", "--dies", "6", "--samples", "512",
                 "--executor", "pool", "--workers", "2",
                 "--json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["executor"].startswith("process-pool")
    assert payload["pass"] + payload["fail"] == 6


def test_campaign_stream_matches_monolithic(capsys):
    assert main(["campaign", "--dies", "20", "--samples", "512",
                 "--seed", "3", "--json"]) == 0
    import json

    monolithic = json.loads(capsys.readouterr().out)
    assert main(["campaign", "--dies", "20", "--samples", "512",
                 "--seed", "3", "--stream", "--chunk", "6",
                 "--json"]) == 0
    streamed = json.loads(capsys.readouterr().out)
    assert streamed["executor"] == "serial+stream"
    assert (streamed["pass"], streamed["fail"]) \
        == (monolithic["pass"], monolithic["fail"])
    assert streamed["ndf_mean"] == monolithic["ndf_mean"]


def test_campaign_noise_repeats(capsys):
    assert main(["campaign", "--dies", "4", "--samples", "512",
                 "--repeats", "5", "--json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "mc+noise"
    assert payload["repeats"] == 5
    assert payload["dies"] == 4
    assert 0.0 <= payload["detection_rate_mean"] <= 1.0


def test_campaign_noise_human_readable(capsys):
    assert main(["campaign", "--dies", "3", "--samples", "512",
                 "--repeats", "4", "--noise", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "3 dies x 4 repeats" in out
    assert "detection:" in out


def test_campaign_stream_requires_mc_scenario(capsys):
    assert main(["campaign", "--scenario", "corners", "--stream",
                 "--samples", "512"]) == 2
    assert main(["campaign", "--stream", "--repeats", "2",
                 "--samples", "512"]) == 2


def test_campaign_noise_flag_requires_repeats(capsys):
    assert main(["campaign", "--dies", "4", "--samples", "512",
                 "--noise", "0.01"]) == 2
    assert "--repeats" in capsys.readouterr().err


def test_campaign_noise_pool_executor_matches_serial(capsys):
    import json

    assert main(["campaign", "--dies", "4", "--samples", "512",
                 "--repeats", "3", "--json"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(["campaign", "--dies", "4", "--samples", "512",
                 "--repeats", "3", "--executor", "pool",
                 "--workers", "2", "--json"]) == 0
    pooled = json.loads(capsys.readouterr().out)
    assert pooled["executor"].startswith("process-pool")
    assert pooled["detection_rate_mean"] == serial["detection_rate_mean"]
    assert pooled["ndf_mean"] == serial["ndf_mean"]


def test_campaign_faults_names_failing_dies(capsys):
    assert main(["campaign", "--scenario", "faults",
                 "--samples", "512"]) == 0
    out = capsys.readouterr().out
    assert "detected:" in out
    assert "r1-open" in out  # failing dies named by fault, not index


def test_campaign_faults_json_carries_fault_labels(capsys):
    import json

    assert main(["campaign", "--scenario", "faults",
                 "--samples", "512", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["faults"]) == 14
    by_label = {entry["label"]: entry for entry in payload["faults"]}
    assert by_label["r1-open"]["kind"] == "open"
    assert by_label["r1-open"]["target"] == "r1"
    assert by_label["r1-open"]["detected"]
    # The matched inverter pair is invisible by construction.
    assert set(payload["fault_escapes"]) == {"r4-open", "r4-short"}


def test_diagnose_human_readable(capsys):
    assert main(["diagnose", "--samples", "512", "--per-fault", "2",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "fault dictionary: 20 faults" in out
    assert "coverage:" in out
    assert "ambiguity:" in out
    assert "group top-1:" in out
    assert "diagnosed:" in out


def test_diagnose_json_and_save_load(capsys, tmp_path):
    import json

    path = str(tmp_path / "dictionary.npz")
    assert main(["diagnose", "--samples", "512", "--per-fault", "0",
                 "--save", path, "--json"]) == 0
    compiled = json.loads(capsys.readouterr().out)
    assert compiled["saved"] == path
    assert len(compiled["faults"]) == 20
    assert "confusion" not in compiled  # --per-fault 0: report only
    assert main(["diagnose", "--samples", "512", "--per-fault", "2",
                 "--load", path, "--top-k", "2", "--json"]) == 0
    loaded = json.loads(capsys.readouterr().out)
    assert loaded["faults"] == compiled["faults"]
    assert loaded["ndfs"] == compiled["ndfs"]
    assert 0.0 <= loaded["accuracy"] <= 1.0
    assert loaded["group_accuracy"] >= loaded["accuracy"]
    assert all(len(m["candidates"]) == 2
               for m in loaded["diagnosis"]["matches"])


def test_diagnose_catastrophic_only(capsys):
    import json

    assert main(["diagnose", "--samples", "512", "--per-fault", "0",
                 "--no-parametric", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["faults"]) == 14


def test_campaign_chunk_must_be_positive():
    with pytest.raises(SystemExit):
        main(["campaign", "--stream", "--chunk", "0",
              "--samples", "512"])


def test_diagnose_load_rejects_mismatched_grid(capsys, tmp_path):
    path = str(tmp_path / "dictionary.npz")
    assert main(["diagnose", "--samples", "512", "--per-fault", "0",
                 "--save", path]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--samples", "1024", "--per-fault", "0",
                 "--load", path]) == 2
    assert "different bench configuration" in capsys.readouterr().err


def test_diagnose_load_honours_tolerance(capsys, tmp_path):
    import json

    path = str(tmp_path / "dictionary.npz")
    assert main(["diagnose", "--samples", "512", "--per-fault", "0",
                 "--save", path, "--json"]) == 0
    saved = json.loads(capsys.readouterr().out)
    assert main(["diagnose", "--samples", "512", "--per-fault", "0",
                 "--load", path, "--tolerance", "0.10", "--json"]) == 0
    loose = json.loads(capsys.readouterr().out)
    # The wider band re-resolves the threshold instead of keeping the
    # stale saved one, so fewer (or equal) faults stay detectable.
    assert loose["threshold"] > saved["threshold"]
    assert loose["coverage"] <= saved["coverage"]


def test_diagnose_load_excludes_compile_flags(capsys, tmp_path):
    path = str(tmp_path / "dictionary.npz")
    assert main(["diagnose", "--samples", "512", "--per-fault", "0",
                 "--save", path]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--load", path, "--save", path]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert main(["diagnose", "--load", path, "--no-parametric"]) == 2
    assert "--no-parametric" in capsys.readouterr().err


def test_diagnose_save_normalizes_npz_suffix(capsys, tmp_path):
    import os

    bare = str(tmp_path / "dict_no_ext")
    assert main(["diagnose", "--samples", "512", "--per-fault", "0",
                 "--save", bare]) == 0
    out = capsys.readouterr().out
    assert f"saved:       {bare}.npz" in out
    assert os.path.exists(bare + ".npz")
    # Loading by the bare name the user typed works too.
    assert main(["diagnose", "--samples", "512", "--per-fault", "0",
                 "--load", bare]) == 0


def test_diagnose_json_is_strict_with_top_k_1(capsys):
    """Top-1-only matches have an infinite margin; the payload must
    encode it as null, not the non-standard Infinity literal."""
    import json

    assert main(["diagnose", "--samples", "512", "--per-fault", "1",
                 "--top-k", "1", "--json"]) == 0
    raw = capsys.readouterr().out
    assert "Infinity" not in raw and "NaN" not in raw
    payload = json.loads(raw)
    assert all(m["margin"] is None
               for m in payload["diagnosis"]["matches"])


def test_diagnose_second_signature_auto(capsys):
    import json

    assert main(["diagnose", "--samples", "512", "--per-fault", "2",
                 "--seed", "1", "--second-signature", "auto",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    second = payload["second_signature"]
    assert second["chosen"] is not None
    assert ["r1-open", "r5-short"] in second["resolved_groups"]
    assert ["r4-open", "r4-short"] in second["invisible_groups"]
    # One-die slack: only group-aware accuracy is provably no-regress.
    assert second["accuracy"] >= payload["accuracy"] - 0.05


def test_diagnose_second_signature_named(capsys):
    assert main(["diagnose", "--samples", "512", "--per-fault", "0",
                 "--second-signature", "bias-0.10_level1e-05"]) == 0
    out = capsys.readouterr().out
    assert "second bank: bias-0.10_level1e-05" in out
    assert "resolved" in out and "invisible" in out


def test_diagnose_second_signature_bad_name(capsys):
    assert main(["diagnose", "--samples", "512", "--per-fault", "0",
                 "--second-signature", "bogus"]) == 2
    assert "--second-signature" in capsys.readouterr().err


def test_campaign_second_signature_named(capsys):
    import json

    assert main(["campaign", "--scenario", "faults", "--samples",
                 "512", "--second-signature", "bias-0.10_level1e-05",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["second_signature"] == "bias-0.10_level1e-05"
    assert len(payload["channels"]) == 2
    assert payload["combined_fail"] >= payload["fail"]


def test_campaign_second_signature_rejects_noise(capsys):
    assert main(["campaign", "--dies", "4", "--samples", "512",
                 "--repeats", "2",
                 "--second-signature", "auto"]) == 2
    assert "single-channel" in capsys.readouterr().err


def test_campaign_second_signature_rejects_monitor_mc(capsys):
    assert main(["campaign", "--scenario", "monitor-mc", "--dies", "2",
                 "--samples", "512",
                 "--second-signature", "auto"]) == 2
    assert "CUT population" in capsys.readouterr().err


def test_diagnose_pinned_second_signature_honoured_when_no_split(capsys):
    """A pinned bank that splits nothing is still used for the
    two-channel study (only 'auto' degrades to single-channel)."""
    assert main(["diagnose", "--samples", "512", "--per-fault", "2",
                 "--second-signature", "bias-0.05"]) == 0
    out = capsys.readouterr().out
    assert "second bank: (none)" in out  # the search found no split
    assert "with 2nd signature:" in out  # ... but the bank is used


def test_campaign_sharded_matches_serial(capsys):
    import json

    assert main(["campaign", "--dies", "8", "--seed", "1",
                 "--samples", "512", "--shards", "2",
                 "--shard-chunk", "2", "--json"]) == 0
    sharded = json.loads(capsys.readouterr().out)
    assert main(["campaign", "--dies", "8", "--seed", "1",
                 "--samples", "512", "--json"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert sharded["executor"] == "sharded[2]"
    assert sharded["shards"]["completed"] == 2.0
    for key in ("pass", "fail", "threshold", "ndf_mean", "ndf_p95"):
        assert sharded[key] == serial[key], key


def test_campaign_shards_exclusions(capsys):
    assert main(["campaign", "--shards", "2", "--stream"]) == 2
    assert "checkpointed streams" in capsys.readouterr().err
    assert main(["campaign", "--shards", "2", "--repeats", "3"]) == 2
    capsys.readouterr()
    assert main(["campaign", "--shards", "2",
                 "--executor", "pool"]) == 2
    assert "worker processes" in capsys.readouterr().err
    assert main(["campaign", "--shards", "2", "--scenario",
                 "corners"]) == 2
    assert "streaming-capable" in capsys.readouterr().err
    assert main(["campaign", "--shards", "2",
                 "--second-signature", "auto"]) == 2
    assert "single-channel" in capsys.readouterr().err
    assert main(["campaign", "--shard-chunk", "4"]) == 2
    assert "--shards N" in capsys.readouterr().err


def test_campaign_listen_and_autotune_require_shards(capsys):
    assert main(["campaign", "--listen", "127.0.0.1:9100"]) == 2
    assert "--shards N" in capsys.readouterr().err
    assert main(["campaign", "--shard-autotune", "5"]) == 2
    assert "--shards N" in capsys.readouterr().err
    assert main(["campaign", "--shards", "2",
                 "--listen", "nonsense"]) == 2
    assert "HOST:PORT" in capsys.readouterr().err


def test_shard_worker_is_a_visible_command(capsys):
    import pytest as _pytest

    with _pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert "shard-worker" in capsys.readouterr().out
    # Its own --help comes from the worker's parser (the protocol
    # intercept), and documents the TCP dial-in flag.
    with _pytest.raises(SystemExit) as excinfo:
        main(["shard-worker", "--help"])
    assert excinfo.value.code == 0
    assert "--connect" in capsys.readouterr().out


def test_shard_worker_rejects_bad_endpoint(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["shard-worker", "--connect", "nonsense"])
    assert excinfo.value.code == 2
    assert "HOST:PORT" in capsys.readouterr().err


def test_campaign_autotuned_sharded_runs(capsys):
    import json

    assert main(["campaign", "--dies", "8", "--seed", "1",
                 "--samples", "512", "--shards", "2",
                 "--shard-chunk", "2", "--shard-autotune", "0.5",
                 "--json"]) == 0
    sharded = json.loads(capsys.readouterr().out)
    assert main(["campaign", "--dies", "8", "--seed", "1",
                 "--samples", "512", "--json"]) == 0
    serial = json.loads(capsys.readouterr().out)
    for key in ("pass", "fail", "threshold", "ndf_mean", "ndf_p95"):
        assert sharded[key] == serial[key], key


def test_cli_import_loads_no_scipy():
    """``import repro.cli`` stays off scipy (about a second of import).

    scipy is imported inside the three functions that use it
    (``BandLimiter.apply``, the placement optimizer, the regression
    solve).  A fresh interpreter counts the modules, so the check is
    a count, not a timing.
    """
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import sys, repro.cli; print(sum(m == 'scipy' or "
             "m.startswith('scipy.') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"

"""The on-disk layout of every persisted archive, pinned.

Checkpoints, dictionary files and store payloads are each one ``.npz``
with a JSON meta member.  Files users have saved must keep loading, so
these tests read each kind back with plain ``np.load`` and assert the
member names and meta keys, independent of the package's own readers.
"""

import json
import os

import numpy as np
import pytest

from repro.campaign import CampaignEngine, GoldenCache, StreamCheckpoint
from repro.diagnosis import (
    compile_fault_dictionary,
    compile_multi_fault_dictionary,
)
from repro.filters.faults import catastrophic_fault_universe
from repro.monitor.configurations import table1_encoder
from repro.monitor.second_signature import candidate_by_name
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
from repro.store import ArtifactStore

pytestmark = pytest.mark.campaign

DICTIONARY_ARRAYS = {"codes", "durations", "row_offsets", "periods",
                     "ndfs", "features", "golden_codes",
                     "golden_durations"}
DICTIONARY_META = {"num_bits", "period", "threshold", "faults"}
FAULT_ENTRY = {"kind", "target", "deviation"}


def _read(path, meta_name):
    with np.load(path, allow_pickle=False) as archive:
        members = set(archive.files)
        meta = json.loads(str(archive[meta_name]))
    return members, meta


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """A store-backed 256-sample engine plus one- and two-channel
    dictionaries over three faults."""
    store = ArtifactStore(str(tmp_path_factory.mktemp("store")))
    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=256, cache=GoldenCache(store=store))
    faults = catastrophic_fault_universe()[:3]
    single = compile_fault_dictionary(engine, faults=faults)
    multi = compile_multi_fault_dictionary(
        engine, [table1_encoder(), candidate_by_name("bias-0.10").encoder],
        faults=faults)
    return store, single, multi


def test_checkpoint_layout(tmp_path):
    state = StreamCheckpoint("config-key", 0.25, start_index=4)
    state.extend(np.array([0.1, 0.2]), np.array([0.01, -0.02]),
                 np.array([0.0, 0.0]), ["die4", "die5"], {"ndf": 0.5})
    path = str(tmp_path / "campaign.npz")
    state.save(path)
    members, meta = _read(path, "meta")
    assert members == {"meta", "ndfs", "f0", "q"}
    assert set(meta) == {"version", "config_key", "threshold",
                         "start_index", "next_index", "labels", "timing",
                         "fallback_dies", "chunks_done", "complete"}
    assert meta["version"] == 1


def test_dictionary_file_layout(bench, tmp_path):
    __, single, __ = bench
    members, meta = _read(single.save(tmp_path / "dictionary"), "meta")
    assert members == {"meta"} | DICTIONARY_ARRAYS
    assert set(meta) == DICTIONARY_META
    assert all(set(entry) == FAULT_ENTRY for entry in meta["faults"])


def test_two_channel_dictionary_file_layout(bench, tmp_path):
    __, __, multi = bench
    members, meta = _read(multi.save(tmp_path / "multi"), "meta")
    assert members == {"meta"} | {f"ch{k}_{name}" for k in (0, 1)
                                  for name in DICTIONARY_ARRAYS}
    assert set(meta) == {"num_channels", "channels", "faults"}
    assert meta["num_channels"] == 2
    assert all(set(entry) == {"num_bits", "period", "threshold",
                              "encoder_fingerprint"}
               for entry in meta["channels"])
    assert all(set(entry) == FAULT_ENTRY for entry in meta["faults"])


def test_store_payload_layouts(bench):
    store, __, __ = bench
    with open(store.index_path, encoding="utf-8") as handle:
        index = json.load(handle)
    assert index["version"] == 1
    expected = {
        "golden": ({"times", "x", "y", "codes", "sig_codes",
                    "sig_durations"}, {"period"}),
        "calibration": ({"deviations", "ndfs"}, set()),
        "fault_dictionary": (DICTIONARY_ARRAYS, DICTIONARY_META),
    }
    kinds = set()
    for entry in index["entries"].values():
        arrays, meta_keys = expected[entry["kind"]]
        members, meta = _read(os.path.join(store.root, entry["file"]),
                              "__meta__")
        assert members == {"__meta__"} | arrays
        assert set(meta) == meta_keys
        kinds.add(entry["kind"])
    assert kinds == set(expected)

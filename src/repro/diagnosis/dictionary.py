"""Fault-dictionary compilation: the signature of every known fault.

The paper's digital signature is more than a pass/fail oracle -- a
failing die's signature *shape* says which defect produced it.  The
classic fault-dictionary flow compiles that knowledge once per test
configuration:

1. every fault of the universe (catastrophic opens/shorts of the
   Tow-Thomas components plus parametric deviation classes) is injected
   into the structural netlist and simulated through the *same*
   :class:`~repro.campaign.engine.CampaignEngine` front half that
   screens production dies -- the faulted circuits share the
   Tow-Thomas topology, so their traces synthesize through one
   stacked-MNA sweep (:func:`repro.circuits.ac.ac_analysis_batch`:
   one batched ``np.linalg.solve`` per tone frequency plus one
   batched DC pass) instead of per-cut, per-frequency rebuild/solve
   loops, with bit-identical rows to the sequential compile;
2. each fault's packed signature row, its NDF against the golden and a
   code-space feature vector (fraction of the period dwelt in each
   zone code) are stored in a :class:`FaultDictionary`;
3. the dictionary is content-keyed in the campaign's
   :class:`~repro.campaign.cache.GoldenCache` -- recompiling for the
   same (stimulus, encoder, golden, sampling, fault universe,
   component values) is a cache hit, exactly like golden signatures --
   and serializes to ``.npz`` for cross-process reuse
   (:meth:`FaultDictionary.save` / :meth:`FaultDictionary.load`).

The matcher (:mod:`repro.diagnosis.matcher`) scores failing fleets
against the dictionary; the analysis module
(:mod:`repro.diagnosis.analysis`) quantifies which faults the
dictionary can actually tell apart.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.campaign.scenarios import CutListPopulation
from repro.core.signature import Signature
from repro.core.signature_batch import SignatureBatch
from repro.filters.faults import (
    Fault,
    FaultKind,
    catastrophic_fault_universe,
    parametric_sweep,
)
from repro.filters.towthomas import TowThomasValues
from repro.obs.trace import span
from repro.store import (
    atomic_write_bytes,
    pack_archive,
    signature_from_runs,
    signature_runs,
    unpack_archive,
)

#: Name of a dictionary file's JSON meta member (part of the format).
_META = "meta"

#: Parametric deviation classes compiled into the default dictionary:
#: clearly-failing shifts of each behavioural parameter, one class per
#: sign, mirroring the paper's "different degrees of deviation".
DEFAULT_PARAMETRIC_CLASSES: Tuple[Tuple[str, float], ...] = (
    ("f0", -0.15), ("f0", +0.15),
    ("q", -0.35), ("q", +0.35),
    ("gain", -0.35), ("gain", +0.35),
)


def default_fault_universe(parametric: bool = True) -> List[Fault]:
    """The dictionary's default universe.

    All single opens/shorts of the Tow-Thomas components, plus (unless
    ``parametric`` is False) the :data:`DEFAULT_PARAMETRIC_CLASSES`
    deviation classes.
    """
    faults = catastrophic_fault_universe()
    if parametric:
        for target, deviation in DEFAULT_PARAMETRIC_CLASSES:
            faults.extend(parametric_sweep((target,), (deviation,)))
    return faults


def fault_key(fault: Fault) -> Tuple:
    """Hashable content key of one fault."""
    return (fault.kind.value, fault.target, float(fault.deviation))


def values_key(values: TowThomasValues) -> Tuple:
    """Hashable content key of a Tow-Thomas component set."""
    return (values.r1, values.r2, values.r3, values.r4, values.r5,
            values.c1, values.c2)


def dwell_features(batch: SignatureBatch, num_bits: int) -> np.ndarray:
    """Code-space feature vectors: per-row zone-dwell fractions.

    Row ``i`` of the result is the fraction of the period row ``i``
    spends in each of the ``2**num_bits`` zone codes -- an
    alignment-free summary of the signature used by the fast
    ``"dwell"`` matching metric and by human-readable fault reports.
    One scatter-add pass over the flat CSR arrays, no per-row loops.
    """
    n = len(batch)
    width = 1 << int(num_bits)
    if batch.codes.size and int(batch.codes.max()) >= width:
        raise ValueError("batch carries codes wider than num_bits")
    features = np.zeros((n, width))
    if n == 0 or batch.codes.size == 0:
        return features
    rows = np.repeat(np.arange(n), batch.runs_per_row)
    np.add.at(features, (rows, batch.codes), batch.durations)
    return features / batch.periods[:, None]


@dataclass
class FaultDictionary:
    """Signature-space dictionary of a fault universe.

    Attributes
    ----------
    batch:
        Packed signatures, one row per fault (universe order).
    ndfs:
        Per-fault NDF against the golden signature -- the fault's
        "distance from healthy", which decides detectability.
    features:
        ``(F, 2**num_bits)`` zone-dwell fractions per fault.
    faults:
        The fault universe, aligned with the rows.
    golden_signature:
        The configuration's golden reference (matching is relative to
        the same capture the dies were screened with).
    num_bits:
        Monitor-bank width (codes live in ``[0, 2**num_bits)``).
    period:
        Signature period in seconds.
    threshold:
        NDF decision threshold of the compiling engine's calibrated
        band (None when compiled without a band); used by the
        detectability analysis.
    """

    batch: SignatureBatch
    ndfs: np.ndarray
    features: np.ndarray
    faults: List[Fault]
    golden_signature: Signature
    num_bits: int
    period: float
    threshold: Optional[float] = None
    _signatures: Optional[List[Signature]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.ndfs = np.asarray(self.ndfs, dtype=float)
        f = len(self.faults)
        if len(self.batch) != f or self.ndfs.shape != (f,) \
                or self.features.shape[0] != f:
            raise ValueError("dictionary rows must align with the "
                             "fault universe")

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def labels(self) -> List[str]:
        """Human-readable fault identifiers, row order."""
        return [fault.label for fault in self.faults]

    def signature(self, i: int) -> Signature:
        """Unpack fault ``i``'s signature (report edge only)."""
        return self.batch.row(i)

    def signatures(self) -> List[Signature]:
        """Every fault's signature, unpacked once per dictionary.

        They are the references each NDF column of the matcher scores
        against.  Threads sharing a dictionary (the service's handlers)
        may both unpack it on a first call; either list is the same.
        """
        if self._signatures is None:
            self._signatures = self.batch.to_signatures()
        return self._signatures

    def detectable(self, threshold: Optional[float] = None) -> np.ndarray:
        """Boolean mask of faults the decision band flags at all.

        A fault whose own NDF sits inside the acceptance band never
        reaches the diagnosis stage -- it is a test escape, not a
        diagnosis candidate.
        """
        threshold = threshold if threshold is not None else self.threshold
        if threshold is None:
            raise ValueError("need a decision threshold (compile with "
                             "a band or pass one explicitly)")
        return self.ndfs > float(threshold)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict]:
        """The dictionary as archive ``(arrays, meta)``.

        This is the one dictionary codec: :meth:`save`, each channel
        of :meth:`MultiFaultDictionary.save` and the artifact store all
        write it.  The arrays are the packed CSR rows, NDFs, features
        and the golden signature's runs; ``meta`` holds the scalars and
        the fault universe.
        """
        golden_codes, golden_durations = signature_runs(
            self.golden_signature)
        arrays = {
            "codes": self.batch.codes,
            "durations": self.batch.durations,
            "row_offsets": self.batch.row_offsets,
            "periods": self.batch.periods,
            "ndfs": self.ndfs,
            "features": self.features,
            "golden_codes": golden_codes,
            "golden_durations": golden_durations,
        }
        meta = {
            "num_bits": int(self.num_bits),
            "period": float(self.period),
            "threshold": (None if self.threshold is None
                          else float(self.threshold)),
            "faults": [{"kind": fault.kind.value,
                        "target": fault.target,
                        "deviation": float(fault.deviation)}
                       for fault in self.faults],
        }
        return arrays, meta

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray],
                    meta: Dict) -> "FaultDictionary":
        """Inverse of :meth:`to_arrays`."""
        period = float(meta["period"])
        batch = SignatureBatch(arrays["codes"], arrays["durations"],
                               arrays["row_offsets"], arrays["periods"])
        faults = [Fault(FaultKind(entry["kind"]), entry["target"],
                        entry["deviation"]) for entry in meta["faults"]]
        return cls(batch=batch, ndfs=arrays["ndfs"],
                   features=arrays["features"], faults=faults,
                   golden_signature=signature_from_runs(
                       arrays["golden_codes"],
                       arrays["golden_durations"], period),
                   num_bits=int(meta["num_bits"]), period=period,
                   threshold=meta["threshold"])

    def save(self, path) -> str:
        """Serialize to a ``.npz`` archive (portable, content-complete).

        Everything needed to rebuild the dictionary travels in the
        archive (:meth:`to_arrays`).  The write is atomic: a crash
        mid-save leaves the previous file.  Returns the actual file
        path written: ``.npz`` is appended to bare names, as
        ``numpy.savez`` does.
        """
        return _write_archive(path, *self.to_arrays())

    @classmethod
    def load(cls, path) -> "FaultDictionary":
        """Rebuild a dictionary saved with :meth:`save`.

        Accepts the path with or without the ``.npz`` suffix (save
        normalizes to ``.npz``).
        """
        return cls.from_arrays(*_read_archive(path))


def _write_archive(path, arrays: Dict[str, np.ndarray], meta: Dict
                   ) -> str:
    """Atomically write a dictionary file; the path written.

    Bare names gain the ``.npz`` suffix.
    """
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    atomic_write_bytes(path, pack_archive(arrays, meta, _META))
    return path


def _read_archive(path) -> Tuple[Dict[str, np.ndarray], Dict]:
    """``(arrays, meta)`` of a dictionary file, found by the name
    given or, for a bare name, that name plus ``.npz``."""
    path = str(path)
    if not os.path.exists(path) and not path.endswith(".npz") \
            and os.path.exists(path + ".npz"):
        path += ".npz"
    with open(path, "rb") as handle:
        return unpack_archive(handle.read(), _META)


@dataclass
class MultiFaultDictionary:
    """K per-channel fault dictionaries over one fault universe.

    The multi-signature analogue of :class:`FaultDictionary`: channel
    ``k`` holds the fault universe's packed signatures as seen through
    monitor bank ``k`` (channel 0 is the production bank -- its
    dictionary is bit-identical to a plain
    :func:`compile_fault_dictionary` run).  The matcher sums the
    per-channel distance matrices, so faults that collide in channel
    0's signature space separate as soon as *any* channel tells them
    apart -- this is what splits ambiguity groups.

    Attributes
    ----------
    channels:
        One :class:`FaultDictionary` per signature channel, all over
        the same fault universe (row-aligned).
    encoders:
        The monitor banks the channels were compiled with, in channel
        order; pass these to ``engine.run(..., encoders=...)`` so the
        screened fleet lives in the same K signature spaces.
    """

    channels: List[FaultDictionary]
    encoders: List

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("need at least one channel dictionary")
        if len(self.encoders) != len(self.channels):
            raise ValueError("need one encoder per channel")
        head = self.channels[0].labels
        for channel in self.channels[1:]:
            if channel.labels != head:
                raise ValueError("channel dictionaries must share the "
                                 "fault universe, row for row")

    def __len__(self) -> int:
        return len(self.channels[0])

    @property
    def num_channels(self) -> int:
        """Signature channels K."""
        return len(self.channels)

    @property
    def faults(self) -> List[Fault]:
        """The shared fault universe (channel order = row order)."""
        return self.channels[0].faults

    @property
    def labels(self) -> List[str]:
        """Human-readable fault identifiers, row order."""
        return self.channels[0].labels

    @property
    def threshold(self) -> Optional[float]:
        """Channel 0's decision threshold (the production screen)."""
        return self.channels[0].threshold

    def channel(self, k: int) -> FaultDictionary:
        """The single-channel dictionary of channel ``k``."""
        return self.channels[k]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path) -> str:
        """Serialize all K channels into one ``.npz`` archive.

        Channel ``k``'s :meth:`FaultDictionary.to_arrays` arrays travel
        under ``ch{k}_``-prefixed names, and one JSON header carries
        the shared fault universe plus per-channel scalars and encoder
        fingerprints.  Encoders themselves are *not* serialized (they
        are live objects); :meth:`load` re-attaches the ones you pass
        it after checking their fingerprints against the header.  The
        write is atomic, like :meth:`FaultDictionary.save`, and returns
        the actual path written (``.npz`` suffix normalized).
        """
        from repro.campaign.cache import encoder_key

        arrays = {}
        channel_meta = []
        for k, (channel, encoder) in enumerate(zip(self.channels,
                                                   self.encoders)):
            channel_arrays, entry = channel.to_arrays()
            faults = entry.pop("faults")
            arrays.update((f"ch{k}_{name}", value)
                          for name, value in channel_arrays.items())
            entry["encoder_fingerprint"] = (None if encoder is None
                                            else encoder_key(encoder))
            channel_meta.append(entry)
        meta = {"num_channels": len(self.channels),
                "channels": channel_meta, "faults": faults}
        return _write_archive(path, arrays, meta)

    @classmethod
    def load(cls, path, encoders=None) -> "MultiFaultDictionary":
        """Rebuild a multi-channel dictionary saved with :meth:`save`.

        ``encoders`` re-attaches the live monitor banks in channel
        order; each one's fingerprint is verified against the saved
        header, so a dictionary can never be silently matched through
        the wrong bank.  When omitted, the loaded dictionary carries
        ``None`` placeholders -- fine for inspection and matching
        (the matcher only reads signature rows), but
        ``engine.run(..., encoders=...)`` then needs the real banks
        from elsewhere.
        """
        from repro.campaign.cache import encoder_key

        arrays, meta = _read_archive(path)
        num_channels = int(meta["num_channels"])
        if encoders is not None:
            encoders = list(encoders)
            if len(encoders) != num_channels:
                raise ValueError(
                    f"archive holds {num_channels} channels but "
                    f"{len(encoders)} encoders were given")
        channels = []
        for k in range(num_channels):
            entry = meta["channels"][k]
            if encoders is not None and encoders[k] is not None:
                saved = entry.get("encoder_fingerprint")
                live = encoder_key(encoders[k])
                if saved is not None and saved != live:
                    raise ValueError(
                        f"channel {k} encoder fingerprint "
                        f"mismatch: archive has {saved!r}, "
                        f"given bank has {live!r}")
            prefix = f"ch{k}_"
            channels.append(FaultDictionary.from_arrays(
                {name[len(prefix):]: value
                 for name, value in arrays.items()
                 if name.startswith(prefix)},
                {**entry, "faults": meta["faults"]}))
        return cls(channels,
                   encoders if encoders is not None
                   else [None] * num_channels)


def compile_multi_fault_dictionary(engine, encoders,
                                   faults: Optional[Sequence[Fault]] = None,
                                   values: Optional[TowThomasValues] = None,
                                   band="auto") -> MultiFaultDictionary:
    """Compile K-channel dictionary rows through one front-half pass.

    The fault universe's netlists solve and synthesize **once**
    (stacked MNA + batched through-evaluation, exactly like
    :func:`compile_fault_dictionary`); every listed encoder then
    re-encodes the same trace stacks into its own signature channel.
    Channel 0 -- compiled through ``encoders[0]`` -- is bit-identical
    to the single-channel dictionary of an engine configured with that
    encoder.

    Rows are content-cached under the engine cache like single-channel
    dictionaries, keyed by every channel's golden key; per-channel
    detectability thresholds resolve from each channel's own Fig. 8
    calibration (``band="auto"``) or from the raw value given.
    """
    encoders = list(encoders)
    if not encoders:
        raise ValueError("need at least one encoder")
    multi_engine = engine.with_encoders(encoders)
    config = multi_engine.config
    fault_list = list(faults) if faults is not None \
        else default_fault_universe()
    if values is None:
        values = TowThomasValues.from_spec(config.golden_spec)
    key = ("multi_fault_dictionary",
           tuple(config.channel_config(k).golden_key()
                 for k in range(config.num_channels)),
           values_key(values), tuple(fault_key(f) for f in fault_list))

    def compute() -> MultiFaultDictionary:
        with span("dictionary.compile", faults=len(fault_list),
                  channels=config.num_channels):
            return _compute_multi()

    def _compute_multi() -> MultiFaultDictionary:
        cuts = [fault.apply_to_biquad(values) for fault in fault_list]
        population = CutListPopulation(
            cuts, [fault.label for fault in fault_list])
        result = multi_engine.run(population, band=None,
                                  keep_signatures=True)
        channels = []
        for k in range(config.num_channels):
            sub = multi_engine.channel_engine(k)
            num_bits = sub.config.encoder.num_bits
            if result.multi_signature_batch is not None:
                batch = result.multi_signature_batch.channel(k)
                ndfs = result.channel_ndfs[:, k]
            else:
                # K = 1 degenerates to the single-channel flow (an
                # encoder list of one is valid: the search returns it
                # when no group is resolvable).
                batch = result.signature_batch
                ndfs = result.ndfs
            channels.append(FaultDictionary(
                batch=batch, ndfs=ndfs,
                features=dwell_features(batch, num_bits),
                faults=fault_list,
                golden_signature=sub.golden().signature,
                num_bits=num_bits,
                period=sub.golden().period, threshold=None))
        return MultiFaultDictionary(channels, encoders)

    dictionary = engine.cache.get_or_compute(key, compute)
    thresholds = multi_engine.channel_thresholds(band)
    channels = []
    for k, channel in enumerate(dictionary.channels):
        threshold = None if thresholds is None else float(thresholds[k])
        if threshold != channel.threshold:
            channel = replace(channel, threshold=threshold)
        channels.append(channel)
    return MultiFaultDictionary(channels, dictionary.encoders)


def compile_fault_dictionary(engine, faults: Optional[Sequence[Fault]] = None,
                             values: Optional[TowThomasValues] = None,
                             band="auto") -> FaultDictionary:
    """Compile (or fetch from cache) the dictionary for one engine.

    Every fault is injected into the structural Tow-Thomas netlist
    (``values``, synthesized from the engine's golden spec when
    omitted) and simulated through the engine's own campaign front
    half -- same stimulus, capture grid and encoder as production
    screening, so dictionary rows live in the same signature space as
    the dies they will be matched against.  The faulted netlists share
    one topology, so the front half solves them as a single stacked
    MNA sweep (:func:`repro.circuits.ac.ac_analysis_batch`) rather
    than one AC analysis per fault per frequency; rows stay
    bit-identical to the sequential compile.

    The compiled rows are content-keyed in ``engine.cache`` under the
    engine's golden key plus the fault universe and component values,
    so repeated compilations (including across campaigns sharing a
    configuration) are cache hits.  ``band`` resolves the detectability
    threshold exactly like :meth:`CampaignEngine.run` and is attached
    after the cache lookup -- dictionaries compiled at different
    tolerances share their signature rows.
    """
    config = engine.config
    fault_list = list(faults) if faults is not None \
        else default_fault_universe()
    if values is None:
        values = TowThomasValues.from_spec(config.golden_spec)
    key = ("fault_dictionary", config.golden_key(),
           values_key(values), tuple(fault_key(f) for f in fault_list))

    def compute() -> FaultDictionary:
        with span("dictionary.compile", faults=len(fault_list),
                  channels=1):
            cuts = [fault.apply_to_biquad(values)
                    for fault in fault_list]
            population = CutListPopulation(
                cuts, [fault.label for fault in fault_list])
            result = engine.run(population, band=None,
                                keep_signatures=True)
            num_bits = config.encoder.num_bits
            return FaultDictionary(
                batch=result.signature_batch, ndfs=result.ndfs,
                features=dwell_features(result.signature_batch,
                                        num_bits),
                faults=fault_list,
                golden_signature=engine.golden().signature,
                num_bits=num_bits,
                period=engine.golden().period, threshold=None)

    dictionary = engine.cache.get_or_compute(key, compute)
    threshold = engine._resolve_threshold(band)
    if threshold != dictionary.threshold:
        dictionary = replace(dictionary, threshold=threshold)
    return dictionary

"""Wire-codec microbench.

Measures, on one core:

* small-frame encode+decode round-trips through :mod:`repro.mpi.codec`
  vs the pre-codec baseline (pickling the whole envelope), as
  round-trips/s and as a gated speedup cell — the acceptance criterion
  is a >= 2x median speedup;
* large-frame decode bandwidth (zero-copy ``np.frombuffer`` path),
  trend only.

Writes ``benchmarks/out/microbench_comms.txt`` and the
``BENCH_comms.json`` trajectory cells (committed baseline at the repo
root; CI regenerates and gates against it).
"""

from __future__ import annotations

import os
import pickle

import numpy as np

from benchmarks.conftest import SMOKE, median_us, paired_median_us, write_out
from repro.bench import record_cell, record_cell_samples
from repro.mpi import codec
from repro.mpi.message import Envelope

TRAJECTORY = os.path.join(os.path.dirname(__file__), "out",
                          "BENCH_comms.json")

_KIND = 0  # _KIND_DELIVER; the codec treats it as opaque

#: per-measurement inner iterations (one timed sample encodes+decodes this
#: many frames, so a sample is ~ms-scale and clock-resolution-proof)
INNER = 200


def _small_env() -> Envelope:
    # A halo-exchange-sized control frame: the regime the packed header
    # exists for.
    return Envelope(source=0, dest=1, tag=7,
                    payload=np.arange(64, dtype=np.float64),
                    nbytes=512, cost_us=41.0)


def _samples(fn, n):
    return [median_us(fn, n=1, warmup=0) for _ in range(n)]


def test_codec_small_frame_speedup(out_dir):
    # Each sample is ~ms-scale, so even smoke keeps a real sample count;
    # A/B interleaving (paired timing) cancels CPU-frequency drift.
    repeats = 10 if SMOKE else 30
    env = _small_env()

    def codec_roundtrips():
        for _ in range(INNER):
            frame = codec.encode_bytes(_KIND, "world", env)
            codec.decode(frame)

    def pickle_roundtrips():
        # The pre-codec wire format: the whole envelope as one pickle.
        for _ in range(INNER):
            blob = pickle.dumps((_KIND, "world", env),
                                protocol=pickle.HIGHEST_PROTOCOL)
            pickle.loads(blob)

    ta, tb, diff = [], [], []
    for _ in range(repeats):
        a, b, d = paired_median_us(codec_roundtrips, pickle_roundtrips,
                                   n=1, warmup=1)
        ta.append(a); tb.append(b); diff.append(d)
    t_codec, t_pickle = ta, tb
    rps_codec = [1e6 * INNER / t for t in t_codec]
    rps_pickle = [1e6 * INNER / t for t in t_pickle]
    speedup = float(np.median(t_pickle) / np.median(t_codec))

    record_cell_samples(TRAJECTORY, "codec_small_roundtrips_per_s",
                        rps_codec, unit="1/s", higher_is_better=True,
                        gate=False,
                        meta={"note": "machine-speed trend: 512B ndarray "
                                      "envelope, encode_bytes+decode"})
    record_cell_samples(TRAJECTORY, "pickle_small_roundtrips_per_s",
                        rps_pickle, unit="1/s", higher_is_better=True,
                        gate=False,
                        meta={"note": "pre-codec baseline: whole-envelope "
                                      "pickle.dumps+loads"})
    record_cell(TRAJECTORY, "codec_small_speedup", speedup, unit="x",
                higher_is_better=True, gate=True,
                meta={"note": "acceptance: packed-header codec must stay "
                              ">= ~2x whole-envelope pickling on small "
                              "frames (committed cell is a conservative "
                              "floor)"})

    lines = [
        f"Small-frame codec bench ({INNER} round-trips/sample, median of "
        f"{repeats}):",
        f"  codec:  {np.median(t_codec):9.1f} us  "
        f"({np.median(rps_codec):12.0f} frames/s)",
        f"  pickle: {np.median(t_pickle):9.1f} us  "
        f"({np.median(rps_pickle):12.0f} frames/s)",
        f"  speedup: {speedup:.2f}x",
    ]
    write_out(out_dir, "microbench_comms.txt", "\n".join(lines))
    print("\n".join(lines))
    assert speedup >= 2.0, (
        f"codec is only {speedup:.2f}x whole-envelope pickling")


def test_codec_large_frame_bandwidth(out_dir):
    repeats = 3 if SMOKE else 15
    arr = np.arange(1 << 21, dtype=np.float64)  # 16 MiB
    env = Envelope(source=0, dest=1, tag=7, payload=arr,
                   nbytes=arr.nbytes, cost_us=0.0)
    frame = bytearray(codec.encode_bytes(_KIND, "world", env))

    t_dec = _samples(lambda: codec.decode(frame), repeats)
    mbps = [arr.nbytes / t for t in t_dec]  # bytes/us == MB/s
    record_cell_samples(TRAJECTORY, "codec_large_decode_mb_per_s", mbps,
                        unit="MB/s", higher_is_better=True, gate=False,
                        meta={"note": "16 MiB float64 frame; zero-copy "
                                      "frombuffer path, machine-speed "
                                      "trend"})
    line = (f"Large-frame decode: {np.median(mbps):9.0f} MB/s "
            f"(16 MiB, median of {repeats})")
    with open(os.path.join(out_dir, "microbench_comms.txt"), "a",
              encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    # Zero-copy decode must run at memory speed, not serialization speed.
    assert np.median(mbps) > 1000.0

#!/usr/bin/env python3
"""Re-serialize every .gdf file in a directory and report byte fidelity.

Usage: python scripts/roundtrip_report.py [DIR]

With no directory the standing synthetic corpus is checked in memory. Each
file is read leniently and written back twice: at once with ``to_bytes``, and
record by record through a ``StreamWriter``. Exit code 0 means every file
round-tripped byte-identically through both writers.
"""

import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gdfkit.fileio import GdfFile, StreamWriter, read_file, to_bytes
from gdfkit.synth import corpus_specs, synthesize


def streamed(f: GdfFile) -> bytes:
    """``f`` appended one record at a time to a StreamWriter, then finalized."""
    sink = io.BytesIO()
    writer = StreamWriter(sink, f.header, f.channels, f.tlv)
    spr = [ch.samples_per_record for ch in f.channels]
    for r in range(f.signals.n_records):
        writer.append_record([None if s is None else s[r * k:(r + 1) * k]
                              for s, k in zip(f.signals.samples, spr)])
    writer.finalize(f.events)
    return sink.getvalue()


def check(name: str, blob: bytes) -> bool:
    start = time.perf_counter()
    f, diags = read_file(blob, lenient=True)
    rewritten = to_bytes(f)
    elapsed = (time.perf_counter() - start) * 1000
    differs = [writer for writer, out in (("to_bytes", rewritten), ("stream", streamed(f)))
               if out != blob]
    status = f"DIFFERS ({', '.join(differs)})" if differs else "ok"
    notes = f" ({len(diags)} diagnostics)" if diags else ""
    print(f"{name:32} {len(blob):>9} bytes  {elapsed:7.2f} ms  {status}{notes}")
    return not differs


def main() -> int:
    if len(sys.argv) > 1:
        blobs = [(p.name, p.read_bytes())
                 for p in sorted(Path(sys.argv[1]).glob("*.gdf"))]
        if not blobs:
            print(f"no .gdf files under {sys.argv[1]}", file=sys.stderr)
            return 2
    else:
        blobs = [(name, to_bytes(synthesize(spec))) for name, spec in corpus_specs()]
    failures = sum(not check(name, blob) for name, blob in blobs)
    print(f"\n{len(blobs) - failures}/{len(blobs)} files byte-identical "
          "through to_bytes and StreamWriter")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

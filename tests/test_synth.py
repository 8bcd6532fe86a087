"""The synthetic recordings draw their event types as the `rng.choice` loop
did: the same random stream, so the same tables and the same bytes."""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

from gdfkit import synth
from gdfkit.errors import DomainError
from gdfkit.events import SPARSE_SAMPLE_TYPE, EventTable, _encode_sparse, \
    default_event_rate, write_event_table
from gdfkit.fileio import to_bytes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's recording geometries)


def _old_make_events(rng, spec, channels, total_event_samples):
    """The event loop before the type draw became an index into the pool."""
    rate = default_event_rate(channels, *spec.duration)
    pos, typ, chn, dur = [], [], [], []
    if spec.with_sparse:
        sparse_index = next(i for i, ch in enumerate(channels) if ch.is_sparse)
        ch = channels[sparse_index]
        for _ in range(max(2, spec.events // 2)):
            pos.append(int(rng.integers(1, max(total_event_samples, 2))))
            dur.append(int(rng.integers(int(ch.cal.dig_min), int(ch.cal.dig_max) + 1)))
        typ, chn = [SPARSE_SAMPLE_TYPE] * len(dur), [sparse_index + 1] * len(dur)
        dur = _encode_sparse(dur, ch.gdf_type).tolist()
    if spec.event_mode == 1 and pos:
        raise DomainError("sparse channels need a mode-3 event table")
    if not spec.events and not pos:
        return None
    for _ in range(spec.events):
        pos.append(int(rng.integers(1, max(total_event_samples, 2))))
        typ.append(int(rng.choice(synth.EVENT_POOL)))
        chn.append(0)
        dur.append(int(rng.integers(0, max(total_event_samples - pos[-1], 1)))
                   if spec.event_mode == 3 else 0)
    columns = (pos, typ, chn, dur) if spec.event_mode == 3 else (pos, typ)
    order = np.lexsort(columns[::-1])
    return EventTable(spec.event_mode, rate, *(np.array(c)[order] for c in columns))


@pytest.fixture
def against_old_loop(monkeypatch):
    """Every event table synthesised is also drawn by the old loop from a
    copy of the generator: the same table, and the generators end in the
    same state. Yields the list of tables compared."""
    compared = []
    new = synth._make_events

    def both(rng, spec, channels, total):
        old_rng = copy.deepcopy(rng)
        want = _old_make_events(old_rng, spec, channels, total)
        got = new(rng, spec, channels, total)
        assert rng.bit_generator.state == old_rng.bit_generator.state
        assert (got is None) == (want is None)
        if got is not None:
            assert write_event_table(got) == write_event_table(want)
            compared.append(got)
        return got
    monkeypatch.setattr(synth, "_make_events", both)
    yield compared


def test_corpus_as_the_old_loop(against_old_loop):
    files = [to_bytes(synth.synthesize(spec)) for _, spec in synth.corpus_specs()]
    assert len(against_old_loop) >= len(files) - 2  # nearly every corpus file has events
    against_old_loop.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "_make_events", _old_make_events)
        assert [to_bytes(synth.synthesize(spec)) for _, spec in synth.corpus_specs()] == files


@pytest.mark.parametrize("geometry", sorted(workloads.GEOMETRIES))
def test_benchmark_geometries_as_the_old_loop(against_old_loop, geometry):
    workloads.GEOMETRIES[geometry](False).make(np.random.default_rng(7))
    assert against_old_loop and max(t.n_events for t in against_old_loop) > 40

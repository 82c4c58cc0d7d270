"""In-memory spans, and timing of the simulator's stage calls from outside.

``traced_program`` swaps the stage functions that ``scckm.sim`` calls through
its module namespace for timing wrappers while a traced ``run_point`` runs,
so the spans follow whatever ``scckm.sim`` actually calls.  ``src/scckm`` is
not edited; the originals are restored on exit.
"""

from __future__ import annotations

import contextlib
import time

# names that scckm.sim looks up at call time, and the span each call makes;
# a name scckm.sim no longer has is skipped, and its time counts as self time
PROGRAM_STAGES = {
    "_symbol_rng": "sim.substream",
    "generate_channel": "channel.generate",
    "scck_map": "modem.map",
    "sm_map": "modem.map",
    "ofdm_modulate": "ofdm.modulate",
    "apply_channel": "channel.apply",
    "ofdm_demodulate": "ofdm.demodulate",
    "freq_response": "channel.freq_response",
    "zf_equalize_grid": "modem.zf",
    "ml_detect_scck_grid": "modem.detect",
    "ml_detect_sm_equalized_grid": "modem.detect",
}


class Tracer:
    """Collects spans in memory: (name, parent index, point, frame, symbol,
    start ns, end ns).  A span's parent is an index into ``spans``; -1 marks
    a root."""

    def __init__(self):
        self.spans: list = []

    def open(self, name, parent, point=-1, frame=-1, symbol=-1) -> int:
        self.spans.append([name, parent, point, frame, symbol,
                           time.perf_counter_ns(), 0])
        return len(self.spans) - 1

    def close(self, index) -> None:
        self.spans[index][6] = time.perf_counter_ns()

    def call(self, name, parent, key, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.spans.append([name, parent, *key, start, time.perf_counter_ns()])
        return out

    def totals_ns(self) -> dict:
        """Summed duration per span name."""
        totals: dict = {}
        for name, _, _, _, _, start, end in self.spans:
            totals[name] = totals.get(name, 0) + end - start
        return totals

    def child_totals_ns(self, name) -> dict:
        """Summed duration per name of the direct children of spans called ``name``."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == name}
        totals: dict = {}
        for child, parent, _, _, _, start, end in self.spans:
            if parent in parents:
                totals[child] = totals.get(child, 0) + end - start
        return totals


@contextlib.contextmanager
def traced_program(tracer: Tracer, parent: int, point: int):
    """Within the block, each stage call scckm.sim makes adds a span under
    ``parent``.  Single-threaded use only."""
    from scckm import sim
    originals = {attr: getattr(sim, attr) for attr in PROGRAM_STAGES if hasattr(sim, attr)}

    def wrap(name, fn):
        return lambda *args, **kwargs: tracer.call(name, parent, (point, -1, -1),
                                                   fn, *args, **kwargs)

    try:
        for attr, fn in originals.items():
            setattr(sim, attr, wrap(PROGRAM_STAGES[attr], fn))
        yield
    finally:
        for attr, fn in originals.items():
            setattr(sim, attr, fn)

#!/usr/bin/env python
"""Tutorial: plugging your own write scheme into the harness.

Shows the full extension path a downstream user takes:

1. subclass :class:`repro.schemes.base.WriteScheme` — here a toy
   "EagerHalf" scheme that behaves like Three-Stage-Write but skips the
   read-before-write whenever the previous write left the line with the
   same flip tags (a silly heuristic, on purpose — this is a template);
2. the subclass self-registers by declaring ``name``;
3. drive it through a cache-line write, then through the whole
   full-system simulator next to the paper's schemes using the
   functional service model (no precompute branch needed).

Run:  python examples/custom_scheme.py
"""

import numpy as np

from repro.analysis.report import format_table
from repro.core.read_stage import read_stage
from repro.experiments.fullsystem import run_fullsystem
from repro.pcm.state import LineState
from repro.schemes import get_scheme
from repro.schemes.base import WriteOutcome, WriteScheme
from repro.trace.synthetic import generate_trace


class EagerHalfWrite(WriteScheme):
    """Template scheme: 3SW timing, with a (toy) read-skip heuristic.

    The point is the shape of a scheme implementation:

    * ``worst_case_units`` — the closed-form bound the controller uses;
    * ``_write_once`` — decide timing, count programmed cells, COMMIT
      the new image via ``state.store``, and return an outcome via
      ``self._outcome`` so time/energy stay consistent.  The base class
      ``write`` wraps it with wear accounting and (when enabled) the
      program-and-verify fault loop — implement one pristine pass and
      retries come for free.
    """

    name = "eager_half"          # <- registers under this name
    requires_read = True

    def worst_case_units(self) -> float:
        nm = self.config.units_per_line
        return nm / (2 * self.config.K) + nm / (2 * self.config.L)

    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        new_logical = np.asarray(new_logical, dtype=np.uint64)
        rs = read_stage(state.physical, state.flip, new_logical)
        skip_read = bool((rs.flip == state.flip).all())  # toy heuristic
        state.store(rs.physical, rs.flip)
        return self._outcome(
            units=self.worst_case_units(),
            read_ns=0.0 if skip_read else self.t_read,
            analysis_ns=0.0,
            n_set=int(rs.n_set.sum()),
            n_reset=int(rs.n_reset.sum()),
            flipped_units=int(rs.flip.sum()),
        )


# Registration happened at class creation; the registry can build it:
scheme = get_scheme("eager_half")
rng = np.random.default_rng(5)
old = rng.integers(0, np.iinfo(np.uint64).max, size=8, dtype=np.uint64)
new = old ^ np.uint64(0b1111)
out = scheme.write(LineState.from_logical(old.copy()), new)
print(f"one write under eager_half: {out.service_ns:.1f} ns, "
      f"{out.n_set + out.n_reset} cells programmed\n")

# Full-system comparison via the functional path (works for any
# registered scheme with zero extra plumbing).
trace = generate_trace("dedup", requests_per_core=250, seed=5)
rows = []
for name in ("dcw", "three_stage", "eager_half", "tetris"):
    res = run_fullsystem(trace, name, functional=True)
    rows.append([name, res.mean_read_latency_ns, res.mean_write_latency_ns,
                 res.runtime_ns / 1e6])
print(format_table(
    ["scheme", "read lat (ns)", "write lat (ns)", "runtime (ms)"],
    rows,
    title="Custom scheme running inside the Fig 11-14 harness (dedup)",
))
print("\nTo price it vectorized for big sweeps, add a PricingRule to"
      "\nrepro.core.pricing.PRICING; until then the precompute path raises"
      "\nKeyError for it and run_fullsystem(..., functional=True) runs it.")

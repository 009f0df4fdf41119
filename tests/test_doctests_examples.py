"""Documentation executability: doctests and the quickstart example.

The README's quickstart snippet and the package docstring's example are
load-bearing documentation — they must keep running; likewise the
fastest example script end-to-end.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent


class TestDocstringExamples:
    def test_package_quickstart_snippet(self):
        """The `repro` package docstring's quick-start code, verbatim."""
        from repro import analyze, default_config, read_stage
        from repro.pcm.state import LineState

        cfg = default_config()
        old = LineState.from_logical(np.zeros(8, dtype=np.uint64))
        new = np.full(8, 0x0F0F, dtype=np.uint64)
        rs = read_stage(old.physical, old.flip, new)
        sched = analyze(
            rs.n_set, rs.n_reset,
            K=cfg.K, L=cfg.L, power_budget=cfg.bank_power_budget,
        )
        assert sched.service_time_ns(cfg.timings.t_set_ns) > 0

    def test_readme_quickstart_snippet(self):
        """The README's quickstart, verbatim."""
        from repro import analyze, default_config, read_stage
        from repro.pcm.state import LineState

        cfg = default_config()
        line = LineState.from_logical(np.zeros(8, dtype=np.uint64))
        new = np.full(8, 0x0F0F_0F0F, dtype=np.uint64)
        rs = read_stage(line.physical, line.flip, new)
        sched = analyze(
            rs.n_set, rs.n_reset,
            K=cfg.K, L=cfg.L, power_budget=cfg.bank_power_budget,
        )
        assert sched.result >= 1


class TestExampleScripts:
    def test_quickstart_example_runs(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-1000:]
        assert "tetris" in proc.stdout

    def test_timing_diagram_example_runs(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / "timing_diagram.py")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-1000:]
        assert "result=2" in proc.stdout  # the Fig-4 outcome


class TestToolScripts:
    def test_api_doc_generator_runs(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "gen_api_docs.py")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-1000:]
        api = (REPO / "docs" / "API.md").read_text()
        assert "repro.core.analysis" in api
        assert "TetrisScheduler" in api

    def test_api_doc_signatures_show_annotations_as_written(self):
        """A ``NamedTuple`` declared under postponed annotations renders
        its fields as written, not as ``ForwardRef(...)`` objects."""
        from repro.parallel.engine import CellPayload

        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", REPO / "tools" / "gen_api_docs.py"
        )
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        sig = gen.signature_of(CellPayload)
        assert "ForwardRef" not in sig
        assert "index: 'int'" in sig and "trace: 'Trace | None'" in sig

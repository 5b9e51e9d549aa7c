"""Edge-case coverage across small utility surfaces."""

import io

import numpy as np
import pytest

from repro.errors import (
    AttackError,
    CircuitError,
    ReproError,
    TraceError,
)
from repro.experiments.runner import ExperimentRecord, print_table, \
    records_table
from repro.power.trace import TraceGrid, _deposit_triangles
from repro.spice import Waveform


class TestExperimentRunner:
    def test_record_ratio(self):
        rec = ExperimentRecord("x", measured=2.0, paper=4.0, unit="um2")
        assert rec.ratio == pytest.approx(0.5)

    def test_record_without_paper_value(self):
        rec = ExperimentRecord("x", measured=2.0)
        assert rec.ratio is None
        assert rec.row()[2] == "-"

    def test_record_zero_paper_value(self):
        rec = ExperimentRecord("x", measured=2.0, paper=0.0)
        assert rec.ratio is None

    def test_print_table_returns_text(self, capsys):
        text = print_table([["a", "1"], ["bb", "22"]], ["col", "val"])
        out = capsys.readouterr().out
        assert "col" in text and text in out

    def test_print_table_empty_rejected(self):
        with pytest.raises(ReproError):
            print_table([], ["h"])

    def test_records_table(self, capsys):
        text = records_table([ExperimentRecord("q", 1.0, 2.0, "V")])
        assert "quantity" in text


class TestDepositTriangle:
    def grid(self):
        return TraceGrid(0.0, 1e-9, 1e-11)

    def test_charge_conserved(self):
        """The integral of the deposited pulse equals the charge."""
        grid = self.grid()
        samples = np.zeros(grid.n)
        charge = 5e-15
        _deposit_triangles(samples, grid, np.array([0.3e-9]),
                           np.array([charge]), 100e-12)
        integral = np.trapezoid(samples, grid.times()) if hasattr(
            np, "trapezoid") else np.trapz(samples, grid.times())
        assert integral == pytest.approx(charge, rel=0.05)

    def test_pulse_is_local(self):
        grid = self.grid()
        samples = np.zeros(grid.n)
        _deposit_triangles(samples, grid, np.array([0.5e-9]),
                           np.array([1e-15]), 100e-12)
        times = grid.times()
        outside = samples[(times < 0.49e-9) | (times > 0.61e-9)]
        assert np.all(outside == 0.0)

    def test_pulse_clipped_at_grid_edges(self):
        grid = self.grid()
        samples = np.zeros(grid.n)
        _deposit_triangles(samples, grid, np.array([0.97e-9]),
                           np.array([1e-15]), 100e-12)
        assert np.isfinite(samples).all()

    def test_off_grid_pulse_ignored(self):
        grid = self.grid()
        samples = np.zeros(grid.n)
        _deposit_triangles(samples, grid, np.array([5e-9]),
                           np.array([1e-15]), 100e-12)
        assert np.all(samples == 0.0)


class TestErrorTaxonomy:
    def test_all_derive_from_repro_error(self):
        from repro import errors
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not Exception:
                assert issubclass(obj, errors.ReproError) or \
                    obj is errors.ReproError

    def test_convergence_error_carries_diagnostics(self):
        from repro.errors import ConvergenceError
        err = ConvergenceError("no", iterations=7, residual=1e-3)
        assert err.iterations == 7
        assert err.residual == pytest.approx(1e-3)

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise TraceError("x")
        with pytest.raises(ReproError):
            raise AttackError("x")
        with pytest.raises(ReproError):
            raise CircuitError("x")


class TestWaveformEdges:
    def test_crossing_exactly_at_sample(self):
        w = Waveform([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
        times = w.crossings(0.5, "rise")
        assert len(times) == 1
        assert times[0] == pytest.approx(1.0)

    def test_flat_segments_skipped(self):
        w = Waveform([0, 1, 2, 3], [0.0, 0.5, 0.5, 1.0])
        # The flat 0.5 plateau must not double-count a crossing of 0.5.
        assert len(w.crossings(0.5, "rise")) == 1

    def test_settle_value_single_point_window(self):
        # Slicing is sample-based: a trailing window holding only the
        # final sample settles to that sample's value.
        w = Waveform([0.0, 10.0], [1.0, 3.0])
        assert w.settle_value(0.5) == pytest.approx(3.0)


class TestDisassemblerListing:
    def test_every_encoded_word_disassembles(self):
        from repro.cpu import aes_firmware, disassemble
        from repro.cpu.assembler import assemble
        fw = aes_firmware(n_blocks=1, use_ise=True,
                          expand_key_on_core=True)
        image = assemble(fw.source)
        # Walk the code region word by word until the halt NOP.
        addr = 0
        count = 0
        while True:
            word = (image.get(addr, 0) << 24) | \
                (image.get(addr + 1, 0) << 16) | \
                (image.get(addr + 2, 0) << 8) | image.get(addr + 3, 0)
            text = disassemble(word)
            assert text  # every instruction word must round-trip
            count += 1
            if text == "l.nop 1":
                break
            addr += 4
        assert count > 500  # the unrolled AES body


class TestImportFootprint:
    def test_program_imports_leave_scipy_out(self):
        """Only the opt-in sparse assembly needs scipy; importing the
        attack, cell, experiment and service layers must not load it."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys, repro.sca, repro.cells, repro.experiments, "
                "repro.service; print('scipy' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

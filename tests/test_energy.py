"""Tests for the energy model (current x time per programmed cell)."""

import numpy as np
import pytest

from repro.core.energy import EnergyModel


class TestEnergyModel:
    def test_paper_operating_point(self):
        em = EnergyModel()
        assert em.e_set == pytest.approx(430.0)       # 1 x 430 ns
        assert em.e_reset == pytest.approx(106.0)     # 2 x 53 ns

    def test_set_about_4x_reset(self):
        em = EnergyModel()
        assert em.e_set / em.e_reset == pytest.approx(430.0 / 106.0)

    def test_write_energy_scalar(self):
        em = EnergyModel()
        assert float(em.write_energy(2, 3)) == pytest.approx(2 * 430 + 3 * 106)

    def test_write_energy_array(self):
        em = EnergyModel()
        e = em.write_energy(np.array([1, 0]), np.array([0, 1]))
        assert e.tolist() == [430.0, 106.0]

    def test_total_includes_reads(self):
        em = EnergyModel(read_energy_per_line=10.0)
        assert em.total(1, 1, n_reads=3) == pytest.approx(430 + 106 + 30)

    def test_zero_cost_for_silent_write(self):
        em = EnergyModel()
        assert float(em.write_energy(0, 0)) == 0.0

    def test_custom_operating_point(self):
        em = EnergyModel(t_set_ns=100.0, t_reset_ns=50.0, reset_current_ratio=3.0)
        assert em.e_set == 100.0
        assert em.e_reset == 150.0

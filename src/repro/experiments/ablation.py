"""Design-choice ablations (§4 and §5 replayed quantitatively).

* **Topology study** — Fig. 2's four power-gating candidates, simulated
  at transistor level on the buffer cell: active current accuracy, sleep
  leakage, wake time, and device overhead.  The paper rejects (a) and
  (b) for wake-up speed/cost and (c) for bias range and well area,
  keeping (d); the numbers here show why.

* **Vt-flavour study** — §5 assigns high-Vt to the NMOS network, tail
  and sleep devices and low-Vt to the PMOS loads.  Sweeping the
  assignment shows the trade: low-Vt everywhere wakes the same but leaks
  orders of magnitude more in sleep; high-Vt loads would need to be
  wider (slower cell) for the same resistance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..cells import (
    McmlSizing,
    PgMcmlCellGenerator,
    PowerGateTopology,
    function,
    solve_bias,
)
from ..cells.pgmcml import gating_overhead
from ..spice import DC, Pulse, run_transient, solve_dc
from ..tech import TECH90
from ..units import nA, ns, ps, uA
from ..obs import default_telemetry
from .runner import print_table


@dataclass
class TopologyPoint:
    topology: PowerGateTopology
    active_current: float
    sleep_current: float
    wake_time: Optional[float]
    extra_transistors: int
    note: str

    @property
    def on_off_ratio(self) -> float:
        return self.active_current / max(self.sleep_current, 1e-15)


@dataclass
class TopologyAblation:
    points: List[TopologyPoint]

    def point(self, topology: PowerGateTopology) -> TopologyPoint:
        for p in self.points:
            if p.topology is topology:
                return p
        raise KeyError(topology)

    def chosen_is_best(self) -> bool:
        """Does (d) dominate: fast wake, huge on/off ratio, one device?

        Topologies (a)/(b) may never reach 90 % of the active current
        within the simulated window (``wake_time is None``) — that *is*
        the slow-wake failure the paper rejects them for.
        """
        d = self.point(PowerGateTopology.SERIES_SLEEP)
        a = self.point(PowerGateTopology.BIAS_PULLDOWN)
        d_fast = d.wake_time is not None and d.wake_time < 0.5e-9
        a_slow = a.wake_time is None or a.wake_time > 2.0 * (d.wake_time or 0)
        return d_fast and a_slow and d.on_off_ratio > 1e3


def _testbench(topology: PowerGateTopology, sizing: McmlSizing,
               sleep_stimulus, tech=TECH90):
    """Buffer cell + sources; returns (circuit, sleep-ish net name)."""
    generator = PgMcmlCellGenerator(tech, sizing, topology)
    cell = generator.build(function("BUF"))
    ckt = cell.circuit
    ckt.v("vdd", cell.vdd_net, tech.vdd)
    ckt.v("vvp", cell.vp_net, sizing.vp)
    inp, inn = cell.input_nets["A"]
    ckt.v("vinp", inp, DC(sizing.input_high(tech)))
    ckt.v("vinn", inn, DC(sizing.input_low(tech)))
    if topology in (PowerGateTopology.BIAS_PULLDOWN,
                    PowerGateTopology.BIAS_SWITCH):
        # Bias-path topologies: Vn is supplied; the pulldown is driven
        # by the complement control (high = sleep).
        ckt.v("vvn", cell.vn_net, sizing.vn)
        ckt.v("vctl", "sleep_b", sleep_stimulus(invert=True))
    elif topology is PowerGateTopology.BODY_BIAS:
        # ON signal on the tail gate; Vn is the (wide-range) bulk bias.
        ckt.v("vvn", cell.vn_net, DC(-0.5))
        ckt.v("vctl", cell.sleep_net, sleep_stimulus(invert=False))
    else:
        ckt.v("vvn", cell.vn_net, sizing.vn)
        ckt.v("vctl", cell.sleep_net, sleep_stimulus(invert=False))
    return ckt


def run_topologies(iss: float = uA(50)) -> TopologyAblation:
    bias = solve_bias(iss, gated=True)
    sizing = bias.sizing
    tech = TECH90
    points: List[TopologyPoint] = []
    for topology in PowerGateTopology:
        def dc_level(active: bool):
            def make(invert: bool):
                on = 0.0 if invert else tech.vdd
                off = tech.vdd if invert else 0.0
                return DC(on if active else off)
            return make

        ckt_on = _testbench(topology, sizing, dc_level(True))
        active = solve_dc(ckt_on).current("vdd")
        ckt_off = _testbench(topology, sizing, dc_level(False))
        sleep = solve_dc(ckt_off).current("vdd")

        # Wake transient: sleep -> active at t = 1 ns.
        def pulse(invert: bool):
            lo, hi = (tech.vdd, 0.0) if invert else (0.0, tech.vdd)
            return Pulse(lo, hi, ns(1.0), ps(50), ps(50), ns(19), 0.0)

        ckt_tr = _testbench(topology, sizing, lambda invert: pulse(invert))
        result = run_transient(ckt_tr, tstop=ns(10.0), dt=ps(10.0))
        supply = result.current("vdd")
        target = sleep + 0.9 * (active - sleep)
        crossing = supply.first_crossing(target, edge="rise", after=ns(1.0))
        wake = None if crossing is None else crossing - ns(1.0)

        overhead = gating_overhead(topology)
        points.append(TopologyPoint(
            topology=topology, active_current=active, sleep_current=sleep,
            wake_time=wake, extra_transistors=overhead.extra_transistors,
            note=overhead.wake_path))
    return TopologyAblation(points=points)


@dataclass
class VtPoint:
    name: str
    delay: float
    sleep_current: float
    active_current: float


@dataclass
class VtAblation:
    points: List[VtPoint]

    def point(self, name: str) -> VtPoint:
        for p in self.points:
            if p.name == name:
                return p
        raise KeyError(name)


def run_vt_flavors(iss: float = uA(50)) -> VtAblation:
    from ..cells import characterize_mcml_cells, measure_leakage

    bias = solve_bias(iss, gated=True)
    base = bias.sizing
    variants = {
        "paper mix (hvt core, lvt loads)": base,
        "all low-Vt": replace(base, pair_flavor="nmos_lvt",
                              tail_flavor="nmos_lvt",
                              sleep_flavor="nmos_lvt",
                              load_flavor="pmos_lvt"),
        "all high-Vt": replace(base, pair_flavor="nmos_hvt",
                               tail_flavor="nmos_hvt",
                               sleep_flavor="nmos_hvt",
                               load_flavor="pmos_hvt"),
    }
    fn = function("BUF")
    generators = [PgMcmlCellGenerator(sizing=sizing)
                  for sizing in variants.values()]
    measured = characterize_mcml_cells([(fn, generator, 1)
                                        for generator in generators])
    points: List[VtPoint] = []
    for name, generator, meas in zip(variants, generators, measured):
        sleep = measure_leakage(fn, generator, asleep=True)
        points.append(VtPoint(name=name, delay=meas.delay,
                              sleep_current=sleep,
                              active_current=meas.iss))
    return VtAblation(points=points)


@dataclass
class TemperaturePoint:
    temp_k: float
    sleep_current: float
    active_current: float

    @property
    def on_off_ratio(self) -> float:
        return self.active_current / max(self.sleep_current, 1e-15)


@dataclass
class TemperatureStudy:
    points: List[TemperaturePoint]

    def point(self, temp_k: float) -> TemperaturePoint:
        for p in self.points:
            if abs(p.temp_k - temp_k) < 0.5:
                return p
        raise KeyError(temp_k)

    def leakage_growth(self) -> float:
        """Sleep-leakage ratio between the hottest and coolest points."""
        pts = sorted(self.points, key=lambda p: p.temp_k)
        return pts[-1].sleep_current / max(pts[0].sleep_current, 1e-15)


#: Threshold temperature coefficient, V/K (Vt drops as the die heats).
VT_TEMP_COEFF = -1.0e-3


def run_temperature(temps_k=(300.0, 340.0, 380.0),
                    iss: float = uA(50)) -> TemperatureStudy:
    """Sleep leakage vs die temperature for the PG-MCML buffer.

    Battery devices spend their lives asleep, so the *hot* sleep
    leakage bounds the standby battery life.  Subthreshold current
    grows exponentially with temperature through both the thermal
    voltage and the falling threshold; the study verifies the sleep
    mode keeps a healthy on/off ratio across the industrial range.
    The cell is biased once at 300 K (as a real chip would be) and then
    measured hot.
    """
    from ..cells import PgMcmlCellGenerator, function, measure_leakage
    from ..tech import Technology

    bias = solve_bias(iss, gated=True)
    base = TECH90
    points: List[TemperaturePoint] = []
    for temp in temps_k:
        dvt = VT_TEMP_COEFF * (temp - 300.0)
        flavors = {name: p.shifted(dvt) if dvt else p
                   for name, p in base.flavors.items()}
        tech = Technology(
            name=f"{base.name}@{temp:.0f}K", vdd=base.vdd, temp_k=temp,
            cell_height=base.cell_height,
            site_width_mcml=base.site_width_mcml,
            site_width_pgmcml=base.site_width_pgmcml,
            site_width_cmos=base.site_width_cmos, cwire=base.cwire,
            swing=base.swing, flavors=flavors)
        generator = PgMcmlCellGenerator(tech, bias.sizing)
        sleep = measure_leakage(function("BUF"), generator, asleep=True,
                                tech=tech)
        active = measure_leakage(function("BUF"), generator, asleep=False,
                                 tech=tech)
        points.append(TemperaturePoint(temp_k=temp, sleep_current=sleep,
                                       active_current=active))
    return TemperatureStudy(points=points)


@dataclass
class GranularityPoint:
    """One power-gating granularity option for an N-cell block."""

    name: str
    area_overhead_pct: float
    wake_time: float
    wakes_whole_block: bool
    ir_drop_mv: float


@dataclass
class GranularityStudy:
    points: List[GranularityPoint]
    n_cells: int

    def point(self, name: str) -> GranularityPoint:
        for p in self.points:
            if p.name == name:
                return p
        raise KeyError(name)


#: Virtual-ground rail capacitance contributed per gated cell, farads.
VIRTUAL_RAIL_CAP_PER_CELL = 15e-15

#: Saturation current per metre of sleep-switch width (high-Vt, 1.2 V
#: overdrive), used to size the coarse switch for an IR-drop budget.
SWITCH_IDSAT_PER_WIDTH = 600.0  # A/m


def run_granularity(n_cells: int = 2216, iss_per_cell: float = uA(50),
                    ir_budget: float = 12e-3) -> GranularityStudy:
    """§4's coarse-vs-fine argument, quantified for the S-box ISE block.

    * **Fine grain** (the paper's choice for MCML): one small series
      device per cell.  Area cost is the Table 1 site delta (+5.6 %);
      wake time is the single-cell constant because every sleep device
      only charges its own tail node; cells could even be gated
      selectively.
    * **Coarse grain** (the CMOS-world default): one external switch
      sized so the full block current drops less than ``ir_budget``
      across it, which makes it enormous; waking must recharge the whole
      virtual rail, so the time constant scales with the block.
    """
    block_current = n_cells * iss_per_cell
    tech = TECH90

    # Fine grain: per-cell series device (Table 1 numbers).
    fine_area_pct = 100.0 * (7.448 / 7.056 - 1.0)
    fine_wake = 0.09e-9  # measured by run_topologies() for one cell
    # Each cell's sleep device carries exactly its own Iss; the series
    # drop is the same few millivolts for every cell by construction.
    fine_ir = 5.0

    # Coarse grain: switch conductance must satisfy the IR budget at the
    # full block current.
    switch_width = block_current / (SWITCH_IDSAT_PER_WIDTH
                                    * (ir_budget / tech.vdd))
    switch_area = switch_width * 8 * 0.1e-6  # folded fingers, metres^2
    block_area = n_cells * 8.9376e-12  # mean MCML cell, metres^2
    coarse_area_pct = 100.0 * switch_area / block_area
    rail_cap = n_cells * VIRTUAL_RAIL_CAP_PER_CELL
    # The giant switch could slam the rail instantly, but the inrush
    # into the shared supply network is a fixed system-level budget
    # (staggered turn-on in every commercial coarse-grain flow), so the
    # wake time grows with the block's rail capacitance.
    inrush = 10e-3  # amperes, the supply network's di/dt budget
    coarse_wake = rail_cap * tech.vdd / inrush
    points = [
        GranularityPoint("fine (per cell)", fine_area_pct, fine_wake,
                         wakes_whole_block=False, ir_drop_mv=fine_ir),
        GranularityPoint("coarse (per block)", coarse_area_pct,
                         coarse_wake, wakes_whole_block=True,
                         ir_drop_mv=ir_budget * 1e3),
    ]
    return GranularityStudy(points=points, n_cells=n_cells)


def main(telemetry=None) -> Tuple[TopologyAblation, VtAblation]:
    tele = telemetry if telemetry is not None else default_telemetry()
    topo = run_topologies()
    rows = []
    for p in topo.points:
        rows.append([
            f"({p.topology.value})",
            f"{p.active_current * 1e6:.2f}",
            f"{p.sleep_current * 1e9:.3f}",
            "-" if p.wake_time is None else f"{p.wake_time * 1e9:.2f}",
            str(p.extra_transistors),
            p.note[:52],
        ])
    tele.progress("Fig. 2 topology ablation (buffer cell, 50 uA target)")
    print_table(rows, ["topo", "Ion[uA]", "Isleep[nA]", "wake[ns]",
                       "extra T", "wake path"], emit=tele.progress)
    tele.progress(f"(d) dominates: {topo.chosen_is_best()}")

    vt = run_vt_flavors()
    rows = [[p.name, f"{p.delay * 1e12:.2f}",
             f"{p.sleep_current * 1e9:.4f}",
             f"{p.active_current * 1e6:.2f}"] for p in vt.points]
    tele.progress("\nVt-flavour ablation (PG-MCML buffer)")
    print_table(rows, ["assignment", "delay[ps]", "Isleep[nA]", "Ion[uA]"],
                emit=tele.progress)

    gran = run_granularity()
    rows = [[p.name, f"{p.area_overhead_pct:.2f}",
             f"{p.wake_time * 1e9:.2f}",
             "yes" if p.wakes_whole_block else "no",
             f"{p.ir_drop_mv:.1f}"] for p in gran.points]
    tele.progress(f"\nGranularity study ({gran.n_cells}-cell block, §4)")
    print_table(rows, ["granularity", "area ovh [%]", "wake [ns]",
                       "all-or-nothing", "IR drop [mV]"],
                emit=tele.progress)

    temp = run_temperature()
    rows = [[f"{p.temp_k:.0f}", f"{p.sleep_current * 1e9:.3f}",
             f"{p.active_current * 1e6:.1f}",
             f"{p.on_off_ratio:,.0f}"] for p in temp.points]
    tele.progress("\nSleep leakage vs die temperature (PG-MCML buffer)")
    print_table(rows, ["T [K]", "Isleep [nA]", "Ion [uA]", "on/off"],
                emit=tele.progress)
    tele.progress(f"leakage grows {temp.leakage_growth():.0f}x over the "
                  f"range but the gate stays >10^3 off")
    return topo, vt


if __name__ == "__main__":
    main()

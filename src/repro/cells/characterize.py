"""Cell characterisation by transistor-level simulation.

Reproduces what the authors did with HSPICE on every library cell:
stimulate one input with a differential pulse while holding the others at
sensitising values, simulate the transient, and measure the differential
propagation delay, output swing, and supply current — plus DC leakage in
active and sleep modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import CharacterizationError
from ..spice import (
    DC,
    Circuit,
    Pulse,
    TransientResult,
    differential_delay,
)
# Characterisation goes through the backend seam: the dispatch calls
# resolve to the internal engine by default (byte-identical call) and
# to an external simulator under REPRO_SPICE_BACKEND / --backend.
from ..spice.backend.dispatch import (
    run_transient,
    run_transient_batch,
    solve_dc,
)
from ..spice.batch import lockstep_signature
from ..tech import Technology, TECH90
from ..units import ns, ps
from .functions import CellFunction
from .mcml import McmlCellGenerator


@dataclass(frozen=True)
class CellMeasurement:
    """What one characterisation run produced."""

    cell_name: str
    delay: float
    swing: float
    iss: float
    toggled_pin: str
    sleep_leak: Optional[float] = None

    def __repr__(self) -> str:
        base = (f"CellMeasurement({self.cell_name}: d={self.delay * 1e12:.4g}ps, "
                f"swing={self.swing:.3g}V, iss={self.iss * 1e6:.4g}uA")
        if self.sleep_leak is not None:
            base += f", sleep={self.sleep_leak * 1e9:.3g}nA"
        return base + ")"


def sensitising_assignment(fn: CellFunction) -> Tuple[str, Dict[str, bool], str]:
    """Find a pin and side-input assignment that toggles an output.

    Returns ``(pin, side_values, output)`` such that flipping ``pin``
    under ``side_values`` flips ``output`` — the boolean-difference
    condition every delay measurement needs.
    """
    if fn.sequential:
        raise CharacterizationError(
            f"{fn.name}: use latch-specific stimuli for sequential cells")
    others_of = {pin: [x for x in fn.inputs if x != pin] for pin in fn.inputs}
    for pin in fn.inputs:
        others = others_of[pin]
        for code in range(1 << len(others)):
            side = {
                other: bool((code >> k) & 1)
                for k, other in enumerate(others)
            }
            low = fn.evaluate({**side, pin: False})
            high = fn.evaluate({**side, pin: True})
            for out in fn.outputs:
                if low[out] != high[out]:
                    return pin, side, out
    raise CharacterizationError(
        f"{fn.name}: no input toggles any output (constant function?)")


#: Routing capacitance per output rail: a stub plus one fat-wire branch
#: per fanout destination.  Unlike the destination gate capacitance this
#: does NOT scale with the cell's own bias current, which is what makes
#: the Fig. 3 delay saturate at high Iss.
WIRE_CAP_BASE = 0.8e-15
WIRE_CAP_PER_FANOUT = 0.7e-15


class _Testbench(NamedTuple):
    """One characterisation run, built and waiting for its transient."""

    circuit: Circuit
    record: Tuple[str, str, str, str, str]  # in_p, in_n, out_p, out_n, vdd
    cell_name: str
    pin: str


def _mcml_testbench(fn: CellFunction, generator: McmlCellGenerator,
                    fanout: int, tech: Technology,
                    window: float) -> _Testbench:
    """The toggling input gets a differential pulse; each output rail is
    loaded with ``fanout`` buffer inputs plus the routing capacitance."""
    pin, side, out = sensitising_assignment(fn)
    sizing = generator.sizing
    load = (fanout * generator.input_capacitance()
            + WIRE_CAP_BASE + WIRE_CAP_PER_FANOUT * fanout)
    cell = generator.build(fn, load_cap=load)
    ckt = cell.circuit

    vhi, vlo = sizing.input_high(tech), sizing.input_low(tech)
    ckt.v("vdd", cell.vdd_net, tech.vdd)
    ckt.v("vvn", cell.vn_net, sizing.vn)
    ckt.v("vvp", cell.vp_net, sizing.vp)
    if cell.has_sleep:
        ckt.v("vsleep", cell.sleep_net, tech.vdd)

    edge = ps(10)
    half = window / 2
    in_p, in_n = cell.input_nets[pin]
    ckt.v("vstim_p", in_p, Pulse(vlo, vhi, half, edge, edge, window, 0.0))
    ckt.v("vstim_n", in_n, Pulse(vhi, vlo, half, edge, edge, window, 0.0))
    for other, value in side.items():
        o_p, o_n = cell.input_nets[other]
        ckt.v(f"vside_{other.lower()}_p", o_p, DC(vhi if value else vlo))
        ckt.v(f"vside_{other.lower()}_n", o_n, DC(vlo if value else vhi))

    out_p, out_n = cell.output_nets[out]
    return _Testbench(circuit=ckt,
                      record=(in_p, in_n, out_p, out_n, cell.vdd_net),
                      cell_name=fn.name, pin=pin)


def _measure(bench: _Testbench, result: TransientResult,
             window: float) -> CellMeasurement:
    """Differential delay, settled swing and late supply current."""
    in_p, in_n, out_p, out_n, _ = bench.record
    delay = differential_delay(result, in_p, in_n, out_p, out_n,
                               after=window / 2 * 0.9)
    swing = result.differential(out_p, out_n).settle_value(0.1)
    iss = result.current("vdd").average(t0=window * 0.75)
    return CellMeasurement(cell_name=bench.cell_name, delay=delay,
                           swing=abs(swing), iss=iss, toggled_pin=bench.pin)


def characterize_mcml_cells(
        requests: Sequence[Tuple[CellFunction, McmlCellGenerator, int]],
        tech: Technology = TECH90, dt: float = ps(0.5),
        window: float = ns(0.8)) -> List[CellMeasurement]:
    """Measure delay/swing/current of several generated MCML or PG-MCML
    cells; one :class:`CellMeasurement` per ``(fn, generator, fanout)``
    request, in request order.

    Every testbench is built first.  Testbenches with one
    :func:`~repro.spice.batch.lockstep_signature` and record list form
    a group, and each group is one backend batch call: the internal
    engine marches a group in lockstep, and a group of one runs as a
    plain transient.
    """
    benches = [_mcml_testbench(fn, generator, fanout, tech, window)
               for fn, generator, fanout in requests]
    groups: Dict[tuple, List[int]] = {}
    for k, bench in enumerate(benches):
        key = (lockstep_signature(bench.circuit), bench.record)
        groups.setdefault(key, []).append(k)
    measurements: List[Optional[CellMeasurement]] = [None] * len(benches)
    for members in groups.values():
        results = run_transient_batch(
            [benches[k].circuit for k in members], tstop=window, dt=dt,
            record=list(benches[members[0]].record))
        for k, result in zip(members, results):
            measurements[k] = _measure(benches[k], result, window)
    return measurements


def characterize_mcml_cell(fn: CellFunction, generator: McmlCellGenerator,
                           fanout: int = 1, tech: Technology = TECH90,
                           dt: float = ps(0.5),
                           window: float = ns(0.8)) -> CellMeasurement:
    """Measure delay/swing/current of one generated MCML or PG-MCML cell
    (:func:`characterize_mcml_cells` with a single request)."""
    return characterize_mcml_cells([(fn, generator, fanout)], tech=tech,
                                   dt=dt, window=window)[0]


def characterize_mcml_dff(generator: McmlCellGenerator,
                          tech: Technology = TECH90, dt: float = ps(0.5),
                          window: float = ns(1.6)) -> CellMeasurement:
    """Clock-to-Q measurement of the master-slave CML flip-flop.

    D is held high throughout; CK rises mid-window; the measurement is
    the differential CK crossing to the differential Q crossing.
    """
    from .functions import function  # local import avoids a cycle

    fn = function("DFF")
    sizing = generator.sizing
    load = generator.input_capacitance()
    cell = generator.build(fn, load_cap=load)
    ckt = cell.circuit

    vhi, vlo = sizing.input_high(tech), sizing.input_low(tech)
    ckt.v("vdd", cell.vdd_net, tech.vdd)
    ckt.v("vvn", cell.vn_net, sizing.vn)
    ckt.v("vvp", cell.vp_net, sizing.vp)
    if cell.has_sleep:
        ckt.v("vsleep", cell.sleep_net, tech.vdd)

    d_p, d_n = cell.input_nets["D"]
    ckt.v("vd_p", d_p, DC(vhi))
    ckt.v("vd_n", d_n, DC(vlo))
    edge = ps(10)
    half = window / 2
    ck_p, ck_n = cell.input_nets["CK"]
    ckt.v("vck_p", ck_p, Pulse(vlo, vhi, half, edge, edge, window, 0.0))
    ckt.v("vck_n", ck_n, Pulse(vhi, vlo, half, edge, edge, window, 0.0))

    q_p, q_n = cell.output_nets["Q"]
    result = run_transient(ckt, tstop=window, dt=dt,
                           record=[ck_p, ck_n, q_p, q_n, cell.vdd_net])
    delay = differential_delay(result, ck_p, ck_n, q_p, q_n,
                               after=half * 0.9)
    swing = abs(result.differential(q_p, q_n).settle_value(0.1))
    iss = result.current("vdd").average(t0=window * 0.75)
    return CellMeasurement(cell_name="DFF", delay=delay, swing=swing,
                           iss=iss, toggled_pin="CK")


def measure_leakage(fn: CellFunction, generator: McmlCellGenerator,
                    asleep: bool, tech: Technology = TECH90) -> float:
    """DC supply current with static inputs, optionally in sleep mode."""
    sizing = generator.sizing
    cell = generator.build(fn)
    ckt = cell.circuit
    ckt.v("vdd", cell.vdd_net, tech.vdd)
    ckt.v("vvn", cell.vn_net, sizing.vn)
    ckt.v("vvp", cell.vp_net, sizing.vp)
    if cell.has_sleep:
        ckt.v("vsleep", cell.sleep_net, 0.0 if asleep else tech.vdd)
    elif asleep:
        raise CharacterizationError(
            f"{fn.name}: conventional MCML has no sleep mode")
    vhi, vlo = sizing.input_high(tech), sizing.input_low(tech)
    for pin in fn.inputs:
        in_p, in_n = cell.input_nets[pin]
        ckt.v(f"vin_{pin.lower()}_p", in_p, DC(vhi))
        ckt.v(f"vin_{pin.lower()}_n", in_n, DC(vlo))
    op = solve_dc(ckt)
    return op.current("vdd")

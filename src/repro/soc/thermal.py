"""Lumped-RC thermal network for the simulated MPSoC.

The paper reads two temperatures: the big-cluster on-die sensor and a
"virtual" device temperature computed by a proprietary vendor formula from
battery and SoC sensors.  The simulator replaces the silicon with a standard
lumped thermal network: each cluster contributes heat to its own node, nodes
exchange heat through pairwise conductances, and every node leaks heat to the
ambient.  The device node has a large thermal capacitance (phone body and
battery) and is driven purely by coupling, which reproduces the slow-moving
"device temperature" the paper plots.

The network is integrated with forward Euler.  Mobile thermal time constants
are seconds to minutes, so the default sub-step of 10 ms is far below the
stability limit for any sane parameterisation; the integrator additionally
splits long steps to stay stable.

Hot-loop kernel
---------------
The network is *compiled* at construction into an index-based representation:
node order is frozen into flat parallel lists (temperatures, capacitances,
ambient conductances) and the coupling graph into per-node ``(index, g)``
neighbour tuples.  :meth:`ThermalNetwork.step_flat` advances that
representation with zero per-substep allocation, which is what the simulation
engine drives 60 times per simulated second.  The kernel iterates nodes and
neighbours in exactly the order the original dict-based stepper did and keeps
every float operation (including the division by the capacitance) in the same
sequence, so integration results are bit-identical to the reference stepper
-- a guarantee the golden-trace and hypothesis suites pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class ThermalNodeSpec:
    """Static description of one node of the thermal network.

    Attributes
    ----------
    name:
        Node identifier; cluster nodes use the cluster name.
    capacitance_j_per_k:
        Thermal capacitance of the node in joules per kelvin.
    conductance_to_ambient_w_per_k:
        Direct conductance from the node to the ambient in watts per kelvin.
    """

    name: str
    capacitance_j_per_k: float
    conductance_to_ambient_w_per_k: float

    def __post_init__(self) -> None:
        if self.capacitance_j_per_k <= 0:
            raise ValueError("thermal capacitance must be positive")
        if self.conductance_to_ambient_w_per_k < 0:
            raise ValueError("conductance to ambient must be non-negative")


@dataclass
class ThermalState:
    """Snapshot of node temperatures in Celsius."""

    temperatures_c: Dict[str, float] = field(default_factory=dict)

    def copy(self) -> "ThermalState":
        """Return an independent copy of the state."""
        return ThermalState(dict(self.temperatures_c))

    def __getitem__(self, name: str) -> float:
        return self.temperatures_c[name]

    def __contains__(self, name: str) -> bool:
        return name in self.temperatures_c

    def max_temperature_c(self) -> float:
        """Hottest node temperature."""
        return max(self.temperatures_c.values())


class ThermalNetwork:
    """Lumped-RC thermal network with forward-Euler integration.

    Internally the live state is a flat list of temperatures indexed by node
    (see module docstring); the mapping-based API converts at the boundary.
    """

    #: Maximum integration sub-step in seconds; longer steps are subdivided.
    MAX_SUBSTEP_S = 0.05

    def __init__(
        self,
        nodes: Mapping[str, ThermalNodeSpec],
        couplings: Mapping[Tuple[str, str], float],
        ambient_c: float = 21.0,
        initial_temperature_c: Optional[float] = None,
    ) -> None:
        if not nodes:
            raise ValueError("a thermal network needs at least one node")
        self._nodes: Dict[str, ThermalNodeSpec] = dict(nodes)
        self._couplings: Dict[Tuple[str, str], float] = {}
        for (a, b), g in couplings.items():
            if a not in self._nodes or b not in self._nodes:
                raise ValueError(f"coupling ({a}, {b}) references an unknown node")
            if a == b:
                raise ValueError("a node cannot be coupled to itself")
            if g < 0:
                raise ValueError("coupling conductance must be non-negative")
            key = (a, b) if a < b else (b, a)
            self._couplings[key] = self._couplings.get(key, 0.0) + g
        self.ambient_c = float(ambient_c)
        start = self.ambient_c if initial_temperature_c is None else float(initial_temperature_c)
        # Adjacency in registration order (kept for inspection and because the
        # kernel must iterate neighbours in exactly this order).
        self._neighbours: Dict[str, List[Tuple[str, float]]] = {n: [] for n in self._nodes}
        for (a, b), g in self._couplings.items():
            self._neighbours[a].append((b, g))
            self._neighbours[b].append((a, g))
        # -- compiled index-based representation --------------------------------
        self._names: List[str] = list(self._nodes)
        self._name_index: Dict[str, int] = {n: i for i, n in enumerate(self._names)}
        index = self._name_index
        self._cap: List[float] = [self._nodes[n].capacitance_j_per_k for n in self._names]
        self._g_amb: List[float] = [
            self._nodes[n].conductance_to_ambient_w_per_k for n in self._names
        ]
        #: Per-node neighbour edges as ``(other_index, conductance)`` tuples,
        #: in the same order as ``self._neighbours[name]``.
        self._nbrs: List[Tuple[Tuple[int, float], ...]] = [
            tuple((index[other], g) for other, g in self._neighbours[n])
            for n in self._names
        ]
        #: Flattened edge list ``(i, j, g)`` (each undirected coupling once).
        self.edges: Tuple[Tuple[int, int, float], ...] = tuple(
            (index[a], index[b], g) for (a, b), g in self._couplings.items()
        )
        self._temps: List[float] = [start] * len(self._names)
        # Preallocated scratch buffers for the zero-allocation kernel.
        self._derivs: List[float] = [0.0] * len(self._names)
        self._heat: List[float] = [0.0] * len(self._names)
        #: NumPy form of the compiled network for the batch kernel, built on
        #: first use (see :meth:`_batch_rounds`).
        self._batch_compiled = None

    # -- inspection -------------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        """All node names."""
        return list(self._names)

    def node_index(self, name: str) -> int:
        """Index of ``name`` in the compiled flat representation."""
        return self._name_index[name]

    @property
    def state(self) -> ThermalState:
        """Current temperatures as a :class:`ThermalState` snapshot."""
        return ThermalState(dict(zip(self._names, self._temps)))

    def temperature_c(self, name: str) -> float:
        """Current temperature of ``name`` in Celsius."""
        return self._temps[self._name_index[name]]

    def temperatures_c(self) -> Dict[str, float]:
        """Current temperatures of every node."""
        return dict(zip(self._names, self._temps))

    # -- manipulation -----------------------------------------------------------

    def reset(self, temperature_c: Optional[float] = None) -> None:
        """Reset all node temperatures (to ambient by default)."""
        value = self.ambient_c if temperature_c is None else float(temperature_c)
        temps = self._temps
        for i in range(len(temps)):
            temps[i] = value

    def set_temperature(self, name: str, temperature_c: float) -> None:
        """Force one node to a temperature (used by tests and scenarios)."""
        if name not in self._name_index:
            raise KeyError(name)
        self._temps[self._name_index[name]] = float(temperature_c)

    def step(self, power_in_w: Mapping[str, float], dt_s: float) -> ThermalState:
        """Advance the network by ``dt_s`` seconds.

        Parameters
        ----------
        power_in_w:
            Heat injected into each node in watts.  Missing nodes receive no
            heat (e.g. the ``device`` node is usually driven only by
            conduction from the silicon nodes).
        dt_s:
            Time to advance, in seconds.  Internally subdivided so that each
            Euler sub-step is at most :data:`MAX_SUBSTEP_S`.

        Returns
        -------
        ThermalState
            A snapshot of the state after the step.
        """
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        if dt_s == 0:
            return self.state
        heat = self._heat
        for i, name in enumerate(self._names):
            heat[i] = float(power_in_w.get(name, 0.0))
        self.step_flat(heat, dt_s)
        return self.state

    def step_flat(self, heat_in_w: List[float], dt_s: float) -> None:
        """Advance the network by ``dt_s`` with heat given in node-index order.

        This is the zero-allocation hot-loop entry point: ``heat_in_w`` is a
        flat sequence aligned with the compiled node order (callers typically
        reuse one preallocated buffer).  Long steps are subdivided exactly as
        :meth:`step` does.
        """
        remaining = dt_s
        max_sub = self.MAX_SUBSTEP_S
        while remaining > 1e-12:
            sub = min(max_sub, remaining)
            self._euler_substep(heat_in_w, sub)
            remaining -= sub

    def step_flat_batch(self, temps_2d, heat_in_2d, dt_s: float) -> None:
        """Batched :meth:`step_flat` over a device axis.

        ``temps_2d`` and ``heat_in_2d`` are ``(nodes, devices)`` float64
        arrays; lane ``d`` of every row is one independent device.  The
        sub-step subdivision is identical to :meth:`step_flat` and every lane
        sees exactly the scalar kernel's float-operation sequence, so each
        device's temperatures stay bit-identical to a scalar run.
        """
        remaining = dt_s
        max_sub = self.MAX_SUBSTEP_S
        while remaining > 1e-12:
            sub = min(max_sub, remaining)
            self.euler_substep_batch(temps_2d, heat_in_2d, sub)
            remaining -= sub

    def euler_substep_batch(self, temps_2d, heat_in_2d, dt_s: float) -> None:
        """Batched :meth:`_euler_substep`: one Euler sub-step for every lane.

        Each step is one whole-array call over all nodes and lanes, and each
        lane's operation sequence stays the scalar kernel's: ambient loss,
        then the neighbours in coupling registration order, then the
        division by the capacitance.  Every coupling term ``g * (t_i -
        t_j)`` is computed at once; they are then subtracted in neighbour-
        rank rounds (see :meth:`_batch_rounds`): round ``r`` subtracts every
        node's ``r``-th term, over only the nodes that have one.  Padding
        the rounds with zero conductances instead would not be exact:
        ``-0.0 - 0.0 * x`` is ``+0.0`` for ``x < 0``.
        """
        import numpy as np

        ambient = self.ambient_c
        g_amb, cap, nodes, others, g, rounds = self._batch_rounds()
        heat_w = heat_in_2d - g_amb * (temps_2d - ambient)
        terms = g * (temps_2d[nodes] - temps_2d[others])
        for rows, start, stop in rounds:
            if rows is None:
                heat_w = heat_w - terms[start:stop]
            else:
                heat_w[rows] = heat_w[rows] - terms[start:stop]
        value = temps_2d + (heat_w / cap) * dt_s
        # Same physical floor as the scalar kernel (lanes at exactly the
        # ambient value are untouched either way).
        np.copyto(temps_2d, value)
        np.copyto(temps_2d, ambient, where=value < ambient)

    def _batch_rounds(self):
        """The network's NumPy form for :meth:`euler_substep_batch`, built once.

        Returns ``(g_amb, cap, nodes, others, g, rounds)``.  ``g_amb`` and
        ``cap`` are ``(nodes, 1)`` columns.  ``nodes`` / ``others`` / ``g``
        list every directed coupling ``(i, j, g)`` grouped by rank -- the
        position of ``j`` in ``i``'s neighbour order -- and by node within a
        rank (``g`` as a column).  Round ``r`` is ``(rows, start, stop)``:
        its couplings are ``start:stop`` of those lists and belong to the
        nodes ``rows`` (``None`` when that is every node, in order).
        """
        compiled = self._batch_compiled
        if compiled is None:
            import numpy as np

            nbrs = self._nbrs
            n = len(nbrs)
            nodes, others, conductances, rounds = [], [], [], []
            for rank in range(max(len(edges) for edges in nbrs)):
                rows = [i for i in range(n) if len(nbrs[i]) > rank]
                rounds.append(
                    (
                        None if len(rows) == n else np.array(rows, dtype=np.int64),
                        len(nodes),
                        len(nodes) + len(rows),
                    )
                )
                nodes.extend(rows)
                others.extend(nbrs[i][rank][0] for i in rows)
                conductances.extend(nbrs[i][rank][1] for i in rows)
            compiled = self._batch_compiled = (
                np.array(self._g_amb, dtype=np.float64)[:, None],
                np.array(self._cap, dtype=np.float64)[:, None],
                np.array(nodes, dtype=np.int64),
                np.array(others, dtype=np.int64),
                np.array(conductances, dtype=np.float64)[:, None],
                tuple(rounds),
            )
        return compiled

    def _euler_substep(self, heat_in_w: List[float], dt_s: float) -> None:
        # The compiled kernel: identical float-operation sequence to the
        # reference dict stepper (ambient loss, then neighbours in coupling
        # registration order, then the division by the capacitance).
        temps = self._temps
        derivs = self._derivs
        ambient = self.ambient_c
        g_amb = self._g_amb
        cap = self._cap
        nbrs = self._nbrs
        for i in range(len(temps)):
            t = temps[i]
            heat_w = heat_in_w[i]
            # Heat loss to ambient.
            heat_w -= g_amb[i] * (t - ambient)
            # Conduction to neighbouring nodes.
            for j, g in nbrs[i]:
                heat_w -= g * (t - temps[j])
            derivs[i] = heat_w / cap[i]
        for i in range(len(temps)):
            value = temps[i] + derivs[i] * dt_s
            # Physical floor: without an active cooler nothing drops below ambient.
            if value < ambient:
                value = ambient
            temps[i] = value

    # -- analysis helpers --------------------------------------------------------

    def steady_state(
        self, power_in_w: Mapping[str, float], tolerance_c: float = 0.01, max_time_s: float = 3600.0
    ) -> ThermalState:
        """Integrate with constant power until the network settles.

        Returns a copy of the settled state and restores the original state,
        so the call has no side effect on the live simulation.
        """
        saved = list(self._temps)
        try:
            elapsed = 0.0
            step = 1.0
            temps = self._temps
            while elapsed < max_time_s:
                before = list(temps)
                self.step(power_in_w, step)
                elapsed += step
                delta = max(
                    abs(temps[i] - before[i]) for i in range(len(temps))
                )
                if delta < tolerance_c:
                    break
            return self.state
        finally:
            self._temps[:] = saved

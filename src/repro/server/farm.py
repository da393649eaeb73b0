"""Server farm: several parallel service units behind one driver.

Storage arrays serve multiple requests concurrently (per-spindle or
per-channel parallelism).  A :class:`ServerFarm` aggregates ``k`` service
units: the driver dispatches whenever *any* unit is idle, so the farm
behaves like an M/D/k station rather than the single-unit M/D/1 of
:class:`~repro.server.base.Server`.

The shaping theory carries over with ``C = k * unit_rate`` as the
aggregate capacity: RTT's queue bound uses the aggregate, and the test
suite checks the deadline guarantee degrades only by the one-quantum
discretization the paper's fluid model ignores.
"""

from __future__ import annotations

from typing import Callable

from ..core.request import Request
from ..exceptions import ConfigurationError, SchedulerError
from ..sim.engine import Simulator
from .base import Server, ServiceTimeModel
from .constant_rate import ConstantRateModel


class ServerFarm:
    """``k`` independent service units presented as one server.

    Implements the same ``busy`` / ``dispatch`` / ``on_completion``
    surface as :class:`Server`, so :class:`~repro.server.driver.
    DeviceDriver` drives it unchanged: ``busy`` means *no idle unit*.

    Failover is structural: a crashed :class:`~repro.faults.server.
    FaultableServer` unit reports ``busy`` while down, so dispatch
    naturally flows to the surviving units, and unit-level fault hooks
    (``on_requeue`` / ``on_loss`` / ``on_recovery``) are re-raised at
    the farm level for the driver to wire.

    Parameters
    ----------
    sim, models, name:
        Engine, one service-time model per unit, and a label.
    unit_factory:
        Constructor for each unit, ``(sim, model, name=...) -> Server``;
        defaults to :class:`Server`.  Pass
        :class:`~repro.faults.server.FaultableServer` (or a partial of
        it) to build a crash-capable farm.
    """

    def __init__(
        self,
        sim: Simulator,
        models: list[ServiceTimeModel],
        name: str = "farm",
        unit_factory: Callable[..., Server] | None = None,
    ):
        if not models:
            raise ConfigurationError("a farm needs at least one unit")
        self.sim = sim
        self.name = name
        self.on_completion: Callable[[Request], None] | None = None
        factory = unit_factory if unit_factory is not None else Server
        self._units = [
            factory(sim, model, name=f"{name}[{i}]")
            for i, model in enumerate(models)
        ]
        self._faultable = [u for u in self._units if hasattr(u, "on_requeue")]
        for unit in self._units:
            unit.on_completion = self._unit_completed
        # Farm-level fault hooks, present only when some unit can fault —
        # the driver wires them by the same hasattr probe it uses for a
        # single FaultableServer.
        if self._faultable:
            self.on_requeue: Callable[[Request], None] | None = None
            self.on_loss: Callable[[Request], None] | None = None
            self.on_recovery: Callable[[], None] | None = None
            for unit in self._faultable:
                unit.on_requeue = self._unit_requeued
                unit.on_loss = self._unit_lost
                unit.on_recovery = self._unit_recovered

    @property
    def size(self) -> int:
        return len(self._units)

    @property
    def units(self) -> list[Server]:
        """The underlying units (fault injectors target these)."""
        return list(self._units)

    @property
    def concurrency(self) -> int:
        """Service units — the AQM window floor for a farm."""
        return len(self._units)

    @property
    def busy(self) -> bool:
        """True iff every unit is serving a request (or down)."""
        return all(unit.busy for unit in self._units)

    @property
    def in_service(self) -> int:
        return sum(1 for unit in self._units if unit.busy)

    @property
    def available(self) -> int:
        """Units currently up (equal to ``size`` for plain farms)."""
        return sum(1 for u in self._units if not getattr(u, "down", False))

    @property
    def completed(self) -> int:
        return sum(unit.completed for unit in self._units)

    def dispatch(self, request: Request) -> None:
        """Start ``request`` on the first idle unit."""
        for unit in self._units:
            if not unit.busy:
                unit.dispatch(request)
                return
        raise SchedulerError(f"{self.name}: dispatch with all units busy")

    def abort(self, request: Request) -> bool:
        """Abort ``request`` on whichever crash-capable unit serves it."""
        for unit in self._faultable:
            if unit.current is request:
                return unit.abort(request)
        return False

    def _unit_completed(self, request: Request) -> None:
        if self.on_completion is not None:
            self.on_completion(request)

    def _unit_requeued(self, request: Request) -> None:
        if self.on_requeue is not None:
            self.on_requeue(request)

    def _unit_lost(self, request: Request) -> None:
        if self.on_loss is not None:
            self.on_loss(request)

    def _unit_recovered(self) -> None:
        if self.on_recovery is not None:
            self.on_recovery()

    def utilization(self, horizon: float | None = None) -> float:
        """Mean per-unit utilization."""
        return sum(u.utilization(horizon) for u in self._units) / self.size


def constant_rate_farm(
    sim: Simulator,
    total_capacity: float,
    units: int,
    name: str = "farm",
    unit_factory: Callable[..., Server] | None = None,
) -> ServerFarm:
    """A farm of ``units`` equal units summing to ``total_capacity`` IOPS."""
    if units <= 0:
        raise ConfigurationError(f"units must be positive, got {units}")
    per_unit = total_capacity / units
    return ServerFarm(
        sim,
        [ConstantRateModel(per_unit) for _ in range(units)],
        name=name,
        unit_factory=unit_factory,
    )

"""Workload sources: feed arrival streams into the simulation.

A :class:`WorkloadSource` delivers arrival records into a sink
(normally a :class:`~repro.server.driver.DeviceDriver`), creating one
:class:`~repro.core.request.Request` per arrival.  Its records are a
:class:`~repro.core.workload.Workload`'s columns (replay), or records
staged one at a time while the clock runs (the serving plane's
ingestion path).  Arrivals are injected lazily — one pending event at a
time — so memory stays O(1) in the trace length beyond the records
themselves.

:class:`ClosedLoopSource` is the other traffic shape: instead of
replaying a pre-materialized arrival array (open loop), it models N users
in think-time loops — each user submits a request, waits for its
completion, thinks for an exponentially distributed pause, and submits
again.  Arrival times therefore *depend on completions*, which is the
defining property of closed-loop traffic: a slow server self-throttles
its own arrival stream.  Completions are observed through the sink's
``add_completion_hook`` callback registry
(:meth:`repro.server.driver.DeviceDriver.add_completion_hook`).
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from ..core.request import Request
from ..core.workload import Workload
from ..exceptions import ConfigurationError
from .engine import Simulator
from .events import PRIORITY_ARRIVAL
from .rng import derive_seed, make_rng


class RequestSink(Protocol):
    """Anything that accepts arriving requests (drivers, schedulers)."""

    def on_arrival(self, request: Request) -> None: ...


class WorkloadSource:
    """Delivers arrival records into a sink at their instants.

    A source built on a :class:`~repro.core.workload.Workload` replays
    its numpy columns in place; one built on ``None`` starts empty and
    is fed by :meth:`stage`/:meth:`stage_workload` (the serving plane's
    ingestion path), which may append records even while the clock
    runs.  Either way delivery is the same: one pending event at a time
    at arrival priority, the next arrival scheduled *before* the current
    one is delivered, so a staged replay of a workload is event-for-event
    identical to replaying the workload itself.

    Sized records are honored: each materialized request gets the
    record's ``service_demand``; an unsized record gets the default
    demand of 1.0.
    """

    def __init__(
        self,
        sim: Simulator,
        workload: Workload | None,
        sink: RequestSink,
        client_id: int = 0,
        on_request: Callable[[Request], None] | None = None,
    ):
        self.sim = sim
        self.workload = workload
        self.sink = sink
        self.client_id = client_id
        self.on_request = on_request
        if workload is None:
            self._arrivals: list | np.ndarray = []
            self._sizes: list | np.ndarray | None = None
        else:  # read in place: replay allocates nothing per record
            self._arrivals = workload.arrivals
            self._sizes = workload.sizes
        self._next = 0
        self._started = False
        self._armed = False
        self.requests: list[Request] = []

    def stage(self, arrival: float, size: float | None = None) -> int:
        """Append one arrival record to a source built on ``None``;
        returns its index.

        Records must be staged in arrival order (the contract a sorted
        :class:`~repro.core.workload.Workload` provides for free); a
        live-staged arrival in the simulator's past is delivered *now*
        (the ingest front end clamps, it cannot rewrite history).
        """
        arrival = float(arrival)
        arrivals = self._arrivals
        if arrivals and arrival < arrivals[-1]:
            raise ConfigurationError(
                f"staged arrival {arrival} precedes the last staged "
                f"arrival {arrivals[-1]}; stage in order"
            )
        if size is not None and size <= 0:
            raise ConfigurationError(f"size must be positive, got {size}")
        if size is not None and self._sizes is None:
            self._sizes = [None] * len(arrivals)
        arrivals.append(arrival)
        if self._sizes is not None:
            self._sizes.append(None if size is None else float(size))
        if self._started and not self._armed:
            self._schedule_next()
        return len(arrivals) - 1

    def stage_workload(self, workload: Workload) -> None:
        """Stage every arrival of ``workload`` (sizes included)."""
        sizes = None if workload.sizes is None else workload.sizes.tolist()
        for i, arrival in enumerate(workload.arrivals.tolist()):
            self.stage(arrival, None if sizes is None else sizes[i])

    @property
    def horizon(self) -> float:
        """Latest arrival record (0.0 when there is none)."""
        return float(self._arrivals[-1]) if len(self._arrivals) else 0.0

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._arrivals)

    def start(self) -> None:
        """Arm the source; call before ``sim.run()``."""
        self._started = True
        if not self._armed:
            self._schedule_next()

    def _schedule_next(self) -> None:
        if self._next >= len(self._arrivals):
            return
        t = float(self._arrivals[self._next])
        now = self.sim.now
        self.sim.schedule(t if t >= now else now, self._fire, priority=PRIORITY_ARRIVAL)
        self._armed = True

    def _fire(self) -> None:
        index = self._next
        size = None if self._sizes is None else self._sizes[index]
        request = Request(
            arrival=float(self._arrivals[index]),
            index=index,
            client_id=self.client_id,
            service_demand=1.0 if size is None else float(size),
        )
        self.requests.append(request)
        self._next += 1
        self._armed = False
        # Schedule the next arrival *before* delivering this one so a sink
        # that drains the queue synchronously cannot starve the source.
        self._schedule_next()
        if self.on_request is not None:
            self.on_request(request)
        self.sink.on_arrival(request)


class ClosedLoopSource:
    """N users in think-time loops: the next arrival waits for completion.

    Each user ``u`` runs an independent cycle seeded by
    ``derive_seed(seed, "closed-loop", u)`` so populations are
    reproducible per-user regardless of interleaving (and regardless of
    how many worker processes share the simulation batch):

    1. think for ``Exp(think_time)`` seconds,
    2. submit one request (``client_id = u``),
    3. block until the sink reports that request complete,
    4. go to 1.

    Submission stops at ``horizon``: a think pause that would land past
    it retires the user.  Because step 3 observes the *sink's* completion
    callback, arrival order genuinely depends on service order — the
    closed-loop property the open-loop :class:`WorkloadSource` cannot
    express.  A request the sink drops without completing (fault shedding)
    permanently idles its user, mirroring a real user stuck waiting.

    Parameters
    ----------
    demand_sampler:
        Optional ``(rng) -> float`` drawing a positive service demand per
        request; ``None`` issues unit-demand requests.
    """

    def __init__(
        self,
        sim: Simulator,
        sink: RequestSink,
        n_users: int,
        think_time: float,
        horizon: float,
        seed: int = 0,
        demand_sampler: Callable[[np.random.Generator], float] | None = None,
        on_request: Callable[[Request], None] | None = None,
    ):
        if n_users <= 0:
            raise ConfigurationError(f"n_users must be positive, got {n_users}")
        if think_time <= 0:
            raise ConfigurationError(
                f"think_time must be positive, got {think_time}"
            )
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        add_hook = getattr(sink, "add_completion_hook", None)
        if add_hook is None:
            raise ConfigurationError(
                "closed-loop traffic needs a sink with add_completion_hook "
                "(DeviceDriver or SplitSystem)"
            )
        self.sim = sim
        self.sink = sink
        self.n_users = int(n_users)
        self.think_time = float(think_time)
        self.horizon = float(horizon)
        self.seed = seed
        self.demand_sampler = demand_sampler
        self.on_request = on_request
        self._rngs = [
            make_rng(derive_seed(seed, "closed-loop", u)) for u in range(n_users)
        ]
        self._inflight: dict[int, int] = {}  # request index -> user
        self._next_index = 0
        self.requests: list[Request] = []
        add_hook(self._on_completion)

    def start(self) -> None:
        """Arm every user's first arrival; call before ``sim.run()``."""
        for user in range(self.n_users):
            self._schedule_user(user, now=0.0)

    def _schedule_user(self, user: int, now: float) -> None:
        think = self._rngs[user].exponential(self.think_time)
        t = now + think
        if t >= self.horizon:
            return
        self.sim.schedule(
            t, lambda u=user, at=t: self._submit(u, at), priority=PRIORITY_ARRIVAL
        )

    def _submit(self, user: int, at: float) -> None:
        demand = 1.0
        if self.demand_sampler is not None:
            demand = float(self.demand_sampler(self._rngs[user]))
        request = Request(
            arrival=at,
            index=self._next_index,
            client_id=user,
            service_demand=demand,
        )
        self._next_index += 1
        self._inflight[request.index] = user
        self.requests.append(request)
        if self.on_request is not None:
            self.on_request(request)
        self.sink.on_arrival(request)

    def _on_completion(self, request: Request) -> None:
        user = self._inflight.pop(request.index, None)
        if user is None:
            return  # not ours (mixed open/closed traffic) or a replay
        self._schedule_user(user, now=float(request.completion))

    @property
    def inflight(self) -> int:
        """Requests submitted and not yet completed."""
        return len(self._inflight)

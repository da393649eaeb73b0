"""Per-layer metrics and deterministic counts from one traced round.

Times are self times (a function's span minus its traced children)
summed over the functions of a layer; see :mod:`tracer`.  Per-request
figures divide by the simulated requests the round submitted, per-plan
figures by the ``CapacityPlanner.min_capacity`` calls it made.  A layer
the workload bypasses reads zero.
"""

from __future__ import annotations

from workloads import percentile

PER_LAYER_UNITS = {
    "sim.engine.events_per_req": "count",
    "sim.engine.pushes_per_req": "count",
    "sim.engine.self_us_per_req": "us",
    "sim.source.self_us_per_req": "us",
    "sched.select_per_req": "count",
    "sched.select_self_us": "us",
    "sched.classify_self_us_per_req": "us",
    "sched.preempt_per_req": "count",
    "server.driver.self_us_per_req": "us",
    "server.base.self_us_per_req": "us",
    "server.dispatch_per_req": "count",
    "server.completions_per_dispatch": "ratio",
    "sim.stats.adds_per_req": "count",
    "sim.stats.self_us_per_req": "us",
    "sim.batch.ns_per_req": "ns",
    "core.capacity.probes_per_plan": "count",
    "core.capacity.ms_per_plan": "ms",
    "perf.kernels.calls_per_plan": "count",
    "perf.kernels.us_per_call": "us",
    "server.aqm.gated_per_req": "count",
    "server.aqm.self_us_per_req": "us",
    "faults.retries_per_req": "count",
    "faults.timeouts_per_req": "count",
    "faults.retry_success_ratio": "ratio",
    "faults.self_us_per_req": "us",
    "serve.ingest.self_us_per_line": "us",
    "serve.admission.decide_per_req": "count",
    "serve.admission.decide_p50_us": "us",
    "serve.admission.decide_p99_us": "us",
    "serve.harness.audit_ms": "ms",
    "serve.harness.result_ms": "ms",
    "serve.autoscaler.tick_ms": "ms",
    "serve.autoscaler.what_if_ms": "ms",
    "serve.autoscaler.actuate_ratio": "ratio",
    "obs.self_us_per_req": "us",
    "obs.sampler_ticks": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _is_select(name: str) -> bool:
    return name.endswith("Scheduler.select")


def _is_kernel(name: str) -> bool:
    return name.startswith("kernels.") and not name.startswith("kernels._")


def deterministic_counts(tracer, round_) -> dict:
    """Counts that must repeat exactly between traced repetitions."""
    calls = tracer.calls
    return {
        "requests": sum(s.submitted for s in round_.summaries.values()),
        "events": tracer.events,
        "pushes": tracer.pushes,
        "selects": tracer.calls_matching(_is_select),
        "classifies": calls["OnlineRTTClassifier.classify"],
        "dispatches": calls["Server.dispatch"],
        "completions": calls["DeviceDriver._on_completion"],
        "preemptions": calls["Server.preempt"],
        "stats_adds": calls["OnlineStats.add"] + calls["ResponseTimeCollector.add"],
        "plans": calls["CapacityPlanner.min_capacity"],
        "planner_probes": calls["CapacityPlanner.admitted_at"],
        "kernel_calls": tracer.calls_matching(_is_kernel),
        "batch_runs": calls["batch.run_batch"],
        "decides": calls["AdmissionService.decide"],
        "lines": calls["IngestServer.handle_line"],
        "retries": calls["DeviceDriver._retry_request"],
        "timeouts": calls["DeviceDriver._on_timeout"],
        "gated": calls["InflightWindow.on_gated"],
        "audits": calls["ServiceHarness.audit"],
        "scaler_ticks": calls["Autoscaler.tick"],
        "scaler_actuations": calls["Autoscaler._actuate"],
        "sampler_ticks": calls["Sampler.sample_now"],
    }


def layer_metrics(tracer, round_, untraced) -> dict:
    """Every per-layer metric of one traced round (see PER_LAYER_UNITS)."""
    c = deterministic_counts(tracer, round_)
    n = c["requests"]
    plans = c["plans"]
    us = 1e6
    per_req = lambda seconds: _ratio(seconds * us, n)  # noqa: E731
    serve_runs = tracer.calls["ServiceHarness.run"]
    decide = tracer.durations["AdmissionService.decide"]
    retried = sum(s.retried for s in round_.summaries.values())
    retried_ok = sum(s.retried_ok for s in round_.summaries.values())
    return {
        "sim.engine.events_per_req": _ratio(c["events"], n),
        "sim.engine.pushes_per_req": _ratio(c["pushes"], n),
        "sim.engine.self_us_per_req": per_req(tracer.layer_self("sim.engine")),
        "sim.source.self_us_per_req": per_req(tracer.layer_self("sim.source")),
        "sched.select_per_req": _ratio(c["selects"], n),
        "sched.select_self_us": _ratio(
            tracer.self_matching(
                lambda f: tracer.layer_of[f] == "sched" and f.endswith(".select")
            ) * us,
            c["selects"],
        ),
        "sched.classify_self_us_per_req": per_req(tracer.self_matching(
            lambda f: f in ("OnlineRTTClassifier.classify", "OnlineRTTClassifier._admits")
        )),
        "sched.preempt_per_req": _ratio(c["preemptions"], n),
        "server.driver.self_us_per_req": per_req(tracer.layer_self("server.driver")),
        "server.base.self_us_per_req": per_req(tracer.layer_self("server.base")),
        "server.dispatch_per_req": _ratio(c["dispatches"], n),
        "server.completions_per_dispatch": _ratio(c["completions"], c["dispatches"]),
        "sim.stats.adds_per_req": _ratio(c["stats_adds"], n),
        "sim.stats.self_us_per_req": per_req(tracer.layer_self("sim.stats")),
        # run_batch and its helpers; run_policy's eligibility check
        # (batch.supports) runs on every engine and is left out.
        "sim.batch.ns_per_req": _ratio(
            (tracer.layer_self("sim.batch") - tracer.self_time["batch.supports"]) * 1e9, n
        ),
        "core.capacity.probes_per_plan": _ratio(c["planner_probes"], plans),
        "core.capacity.ms_per_plan": _ratio(
            tracer.inclusive["CapacityPlanner.min_capacity"] * 1e3, plans
        ),
        "perf.kernels.calls_per_plan": _ratio(c["kernel_calls"], plans),
        "perf.kernels.us_per_call": _ratio(
            tracer.inclusive_matching(_is_kernel) * us, c["kernel_calls"]
        ),
        "server.aqm.gated_per_req": _ratio(c["gated"], n),
        # Window methods only: resolving the (absent) window policy runs
        # on every event-engine stack.
        "server.aqm.self_us_per_req": per_req(tracer.self_matching(
            lambda f: tracer.layer_of[f] == "server.aqm" and f[0].isupper()
        )),
        "faults.retries_per_req": _ratio(c["retries"], n),
        "faults.timeouts_per_req": _ratio(c["timeouts"], n),
        "faults.retry_success_ratio": _ratio(retried_ok, retried),
        "faults.self_us_per_req": per_req(tracer.layer_self("faults")),
        "serve.ingest.self_us_per_line": _ratio(
            tracer.layer_self("serve.ingest") * us, c["lines"]
        ),
        "serve.admission.decide_per_req": _ratio(c["decides"], n),
        "serve.admission.decide_p50_us": percentile(decide, 50) * us if decide else 0.0,
        "serve.admission.decide_p99_us": percentile(decide, 99) * us if decide else 0.0,
        "serve.harness.audit_ms": _ratio(
            tracer.inclusive["ServiceHarness.audit"] * 1e3, serve_runs
        ),
        "serve.harness.result_ms": _ratio(
            tracer.inclusive["ServiceHarness.result"] * 1e3,
            tracer.calls["ServiceHarness.result"],
        ),
        "serve.autoscaler.tick_ms": _ratio(
            tracer.inclusive["Autoscaler.tick"] * 1e3, c["scaler_ticks"]
        ),
        "serve.autoscaler.what_if_ms": _ratio(
            tracer.inclusive["Autoscaler.what_if"] * 1e3,
            tracer.calls["Autoscaler.what_if"],
        ),
        "serve.autoscaler.actuate_ratio": _ratio(c["scaler_actuations"], c["scaler_ticks"]),
        "obs.self_us_per_req": per_req(tracer.layer_self("obs")),
        "obs.sampler_ticks": c["sampler_ticks"],
        "trace.overhead_ratio": _ratio(
            sum(round_.times.values()), sum(untraced.times.values())
        ),
    }

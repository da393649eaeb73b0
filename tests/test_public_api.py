"""API contract: the documented public surface exists and stays importable.

Guards against refactors silently dropping re-exports that README,
docs/api.md and downstream users rely on.
"""

import dataclasses
import importlib
import inspect

import pytest

#: module -> names that must be importable from it.
PUBLIC_API = {
    "repro": [
        "Workload", "WorkloadShaper", "run_policy", "GraduatedSLA",
        "CapacityPlanner", "CapacityPlan", "consolidate",
        "self_consolidation", "decompose", "decompose_fluid",
        "SharedServer", "Tenant", "RunRecord", "RunConfig",
        "ShapingOutcome",
        "ReproError", "__version__",
    ],
    "repro.core": [
        "Workload", "Request", "QoSClass", "IOKind",
        "decompose", "decompose_fluid", "decompose_exact",
        "count_admitted", "primary_response_times",
        "lemma1_lower_bound", "lower_bound_drops",
        "max_admissible_bruteforce", "subset_feasible",
        "CapacityPlanner", "CapacityPlan", "min_capacity",
        "ConsolidationResult", "consolidate", "shifted_merge",
        "ArrivalCurve", "ServiceCurve", "busy_periods", "scl_excess",
        "GraduatedSLA", "SLATier", "TierCompliance",
        "SlackTracker", "initial_slack", "is_unconstrained",
        "AdmissionController", "AdmittedClient",
        "TierAssignment", "decompose_tiers", "plan_tiers",
        "plan_and_decompose",
        "PricedTier", "price_menu", "reserve_cost", "burstiness_discount",
    ],
    "repro.sched": [
        "Scheduler", "OnlineRTTClassifier", "FCFSScheduler",
        "FairQueue", "FairQueueScheduler", "MiserScheduler",
        "EDFScheduler", "DRRScheduler", "DeficitRoundRobin",
        "PClockScheduler", "FlowSLA", "feasible",
        "make_scheduler", "ALL_POLICIES", "SINGLE_SERVER_POLICIES",
        "TOPOLOGY_POLICIES", "CLASSIFIER_FREE_POLICIES",
        "SRPTScheduler", "NudgeScheduler", "BoostScheduler",
    ],
    "repro.server": [
        "Server", "ServiceTimeModel", "ConstantRateModel",
        "constant_rate_server", "DiskModel", "DiskParameters",
        "DeviceDriver", "SplitSystem", "ServerFarm", "constant_rate_farm",
        "SizeSplitSystem",
        "Brownout", "DegradedModel", "FlakyModel",
    ],
    "repro.sim": [
        "Simulator", "Event", "EventQueue", "WorkloadSource",
        "ClosedLoopSource",
        "OnlineStats", "RateRecorder", "ResponseTimeCollector",
        "LifecycleTracer", "Phase", "make_rng", "spawn",
        "BatchRun", "SplitColumns", "StreamSummary", "run_batch",
        "fcfs_completions", "split_columns", "farm_fcfs_completions",
        "fcfs_stream", "split_stream", "EPOCH",
    ],
    "repro.perf": [
        "NUMPY_MIN_BATCHES",
        "KernelBackend", "active_backend", "dispatch_backend",
        "available_backends", "count_admitted", "admitted_per_batch",
        "count_admitted_sweep",
        "active_engine", "available_engines",
    ],
    "repro.traces": [
        "websearch", "fintrans", "openmail", "load", "WORKLOADS",
        "TraceRecord", "records_to_workload", "spc", "hpl", "perturb",
    ],
    "repro.traces.synthetic": [
        "poisson_workload", "nonhomogeneous_poisson", "mmpp2_workload",
        "pareto_onoff_workload", "bmodel_workload",
        "windowed_bmodel_workload", "periodic_bursts", "episode_bursts",
        "spike_train", "superpose", "fit_workload", "validate_fit",
        "FittedModel", "calibration_report",
    ],
    "repro.analysis": [
        "fcfs_response_times", "compliance", "cdf_points",
        "time_to_compliance", "index_of_dispersion", "hurst_rs",
        "burstiness_summary", "windowed_compliance", "compare_policies",
        "study", "packing_count", "format_table", "ascii_series",
        "ascii_cdf", "ascii_bars", "write_dat", "export_figure4",
    ],
    "repro.workload": [
        "UserPopulation", "poisson_poisson_workload", "attach_demands",
        "ConstantDemand", "ExponentialDemand", "LognormalDemand",
        "BimodalDemand", "run_closed_loop",
    ],
    "repro.core.registry": ["Registry"],
    "repro.check": [
        "compare_records", "ParityReport", "engine_parity", "run_checked",
        "differential_policies",
    ],
    "repro.experiments": [
        "table1", "figure2", "figure3", "figure4", "figure5", "figure6",
        "figure7", "figure8", "extensions", "sensitivity", "resilience",
        "workbound",
        "ExperimentConfig", "EXPERIMENTS", "run_experiment",
        "PAPER_DELTAS", "PAPER_FRACTIONS", "PAPER_WORKLOADS",
    ],
    "repro.faults": [
        "Crash", "RateDroop", "SpikeStorm", "FaultSchedule",
        "random_schedule", "FaultableServer", "INFLIGHT_POLICIES",
        "FaultInjector", "FaultState", "FaultyModel", "RetryPolicy",
        "AdaptiveShaper", "ControllerConfig", "ConservationReport",
        "check_conservation", "assert_conservation",
        "run_resilient", "run_chaos", "chaos_recipe",
        "RESILIENCE_POLICIES",
    ],
    "repro.record": [
        "RunRecord", "RunTelemetry", "ParityReport", "compare_records",
    ],
    "repro.stack": ["RunConfig", "FaultPlan", "build_stack", "Run", "TOPOLOGIES"],
}


#: Names retired when the five result types and two parity reports
#: merged into RunRecord / ParityReport, when the process-global
#: engine/kernel/window switchboards gave way to selection by input, and
#: when the five run loops folded into ``repro.stack.Run``, and when the
#: streaming planner and compliance monitor folded into the provisioning
#: loop and one column function.  A dotted key past the module names a
#: class whose members, a callable whose keyword parameters, or a tuple
#: whose choices must stay gone; no alias may bring them back.
REMOVED = {
    "repro": ["PolicyRunResult"],
    "repro.shaping": ["PolicyRunResult"],
    "repro.faults": ["ResilientRunResult"],
    "repro.faults.harness": ["ResilientRunResult", "FaultRunViews"],
    "repro.serve": ["ServeRunResult", "StagedSource"],
    "repro.serve.harness": ["StagedSource"],
    "repro.stack": ["attach_sampler", "require_adaptable"],
    "repro.record.RunRecord": ["from_stack", "samples"],
    "repro.workload": ["ClosedLoopResult"],
    "repro.check": ["CheckedRun", "EngineParityReport"],
    "repro.check.differential": [
        "CheckedRun", "EngineParityReport", "ServeParityReport",
        "_scalar_columns",
    ],
    "repro.perf": [
        "ENV_VAR", "ENGINE_ENV_VAR", "resolve_engine", "set_engine",
        "use_engine", "set_backend", "use_backend",
    ],
    "repro.perf.engines": [
        "ENGINE_ENV_VAR", "REGISTRY", "resolve_engine", "set_engine",
        "use_engine",
    ],
    "repro.perf.kernels": ["ENV_VAR", "set_backend", "use_backend"],
    "repro.server.aqm": ["resolve_aqm"],
    "repro.core": ["StreamingPlanner", "EstimateSnapshot", "streaming"],
    "repro.analysis": ["ComplianceMonitor", "WindowCompliance", "monitor"],
    "repro.serve.placement.PlacementPlanner": ["plan_farm"],
    "repro.serve.autoscaler.MODES": ["off"],
    "repro.serve.harness.ServiceHarness": ["controller_config"],
    "repro.stack.Run": ["controller_config"],
    "repro.faults.harness.run_resilient": ["controller_config"],
    "repro.faults.harness.run_chaos": ["controller_config"],
}


@pytest.mark.parametrize("module_name", sorted(REMOVED))
def test_removed_names_stay_gone(module_name):
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        parent, _, attr = module_name.rpartition(".")
        owner = getattr(importlib.import_module(parent), attr)
    members = set(dir(owner))
    if dataclasses.is_dataclass(owner):
        members |= {f.name for f in dataclasses.fields(owner)}
    if callable(owner):  # a removed keyword parameter
        members |= set(inspect.signature(owner).parameters)
    if isinstance(owner, tuple):  # a removed choice
        members |= set(owner)
    revived = [name for name in REMOVED[module_name] if name in members]
    assert not revived, f"{module_name} still exports {revived}"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in PUBLIC_API[module_name] if not hasattr(module, name)
    ]
    assert not missing, f"{module_name} lost exports: {missing}"


def test_all_experiment_modules_have_run_and_render():
    from repro.experiments import EXPERIMENTS

    for name, (run, render) in EXPERIMENTS.items():
        assert callable(run), name
        assert callable(render), name


def test_policy_registry_matches_docs():
    from repro.sched import ALL_POLICIES

    assert set(ALL_POLICIES) == {
        "fcfs", "split", "fairqueue", "wf2q", "drr", "miser", "edf",
        "srpt", "nudge", "boost", "splitfarm",
    }

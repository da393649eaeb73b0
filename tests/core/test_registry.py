"""Tests for the generic named-strategy Registry."""

import pytest

from repro.core.registry import Registry
from repro.exceptions import ConfigurationError


class TestRegistration:
    def test_register_and_get(self):
        reg = Registry("widget")
        reg.register("a", 1)
        assert reg.get("a") == 1
        assert reg.names() == ("a",)
        assert "a" in reg and "b" not in reg

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("fn")
        def factory():
            return 42

        assert reg.get("fn") is factory

    def test_reregistering_replaces(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.register("a", 2)
        assert reg.get("a") == 2
        assert reg.names() == ("a",)

    def test_names_are_normalized(self):
        reg = Registry("widget")
        reg.register("  MiXeD ", 7)
        assert reg.get("mixed") == 7

    def test_get_unknown_lists_choices(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.register("b", 2)
        with pytest.raises(ConfigurationError, match=r"unknown widget 'z'.*\['a', 'b'\]"):
            reg.get("z")


class TestUnifiedFrontends:
    """Kernel backends, device windows and policies share one Registry."""

    def test_kernels_windows_policies_are_registries(self):
        from repro.perf import kernels
        from repro.sched import registry as sched
        from repro.server import aqm

        assert isinstance(kernels.REGISTRY, Registry)
        assert isinstance(aqm.REGISTRY, Registry)
        assert isinstance(sched.REGISTRY, Registry)

    def test_policy_names_still_exported(self):
        from repro.sched.registry import (
            ALL_POLICIES,
            REGISTRY,
            SINGLE_SERVER_POLICIES,
        )

        assert SINGLE_SERVER_POLICIES == REGISTRY.names()
        # Split is a topology, not a registered scheduler factory.
        assert "split" in ALL_POLICIES and "split" not in REGISTRY

    def test_registry_only_names_things(self):
        """No selection state: a registry has no override, environment
        variable, default or virtual names."""
        for attr in ("env_var", "default", "virtual", "resolve", "override",
                     "set_override", "use"):
            assert not hasattr(Registry("widget"), attr), attr

    def test_engines_are_not_a_registry(self):
        from repro.perf import engines

        assert engines.available_engines() == ("scalar", "batch")
        assert not hasattr(engines, "REGISTRY")

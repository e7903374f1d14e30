"""Units for the generic variant registry and the typed ``Variants`` bundle.

:class:`repro.registry.VariantRegistry` is the one implementation behind
every variant axis (scheduler policies, transfer backends, fabrics), and
:class:`repro.registry.Variants` is the typed bundle every spec/session
accepts.  These tests cover the registry mechanics in isolation plus the
wiring of the concrete registries onto it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.registry import VariantRegistry, Variants, parse_typed_kv


class TestVariantRegistry:
    def make(self, **kwargs) -> VariantRegistry:
        return VariantRegistry("widget", **kwargs)

    def test_register_and_create(self):
        reg = self.make()
        reg.register("alpha", lambda args: ("alpha", args), "first")
        assert "alpha" in reg
        assert len(reg) == 1
        assert reg.names() == ["alpha"]
        assert reg.description("alpha") == "first"
        assert reg.create("alpha") == ("alpha", None)
        assert reg.create("alpha:x=1") == ("alpha", "x=1")

    def test_registration_order_vs_sorted(self):
        reg = self.make()
        reg.register("zeta", lambda a: None)
        reg.register("alpha", lambda a: None)
        assert reg.names() == ["zeta", "alpha"]
        sorted_reg = self.make(sort_names=True)
        sorted_reg.register("zeta", lambda a: None)
        sorted_reg.register("alpha", lambda a: None)
        assert sorted_reg.names() == ["alpha", "zeta"]

    def test_duplicate_registration_raises(self):
        reg = self.make(dup_label="widget")
        reg.register("alpha", lambda a: None)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("alpha", lambda a: None)
        reg.register("alpha", lambda a: "replaced", replace=True)
        assert reg.create("alpha") == "replaced"

    def test_unregister_is_idempotent(self):
        reg = self.make()
        reg.register("alpha", lambda a: None)
        reg.unregister("alpha")
        assert "alpha" not in reg
        reg.unregister("alpha")  # second removal is a no-op

    def test_normalization(self):
        # Registered names are canonical; lookups are case-insensitive with
        # dashes ignored ("FR-FCFS" finds "frfcfs").
        reg = self.make()
        reg.register("frfcfs", lambda a: a)
        assert reg.require("FR-FCFS") == "FR-FCFS"
        assert reg.create("Fr-Fcfs:k") == "k"
        exact = self.make(normalize_names=False, parse_specs=False)
        exact.register("soa", lambda: "soa")
        with pytest.raises(KeyError):
            exact.require("SOA")

    def test_parse_specs_disabled(self):
        reg = self.make(parse_specs=False)
        reg.register("plain", lambda: "built")
        assert reg.create("plain") == "built"
        # The whole spec is the name: argument syntax is not recognized.
        with pytest.raises(KeyError):
            reg.create("plain:x=1")

    def test_unknown_error_type_and_did_you_mean(self):
        reg = self.make(error=ValueError, known_label="available")
        reg.register("mesh", lambda a: None)
        reg.register("none", lambda a: None)
        with pytest.raises(ValueError) as excinfo:
            reg.require("mseh")
        message = str(excinfo.value)
        assert "unknown widget 'mseh'" in message
        assert "available: mesh, none" in message
        assert "did you mean 'mesh'?" in message
        keyed = self.make(error=KeyError)
        keyed.register("frfcfs", lambda a: None)
        with pytest.raises(KeyError):
            keyed.require("nope")

    def test_parse_splits_on_first_colon_only(self):
        reg = self.make()
        assert reg.parse("mesh:4x4,credits=2") == ("mesh", "4x4,credits=2")
        assert reg.parse("mesh") == ("mesh", None)


class TestParseTypedKv:
    SCHEMA = {"hop_ns": float, "credits": int}

    def test_parses_typed_values(self):
        parsed = parse_typed_kv("hop_ns=1.5,credits=3", self.SCHEMA, "mesh")
        assert parsed == {"hop_ns": 1.5, "credits": 3}

    def test_empty_and_none(self):
        assert parse_typed_kv(None, self.SCHEMA, "mesh") == {}
        assert parse_typed_kv("", self.SCHEMA, "mesh") == {}

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="hop_ns"):
            parse_typed_kv("bogus=1", self.SCHEMA, "mesh")

    def test_malformed_pair(self):
        with pytest.raises(ValueError):
            parse_typed_kv("credits", self.SCHEMA, "mesh")

    def test_bad_conversion(self):
        with pytest.raises(ValueError):
            parse_typed_kv("credits=lots", self.SCHEMA, "mesh")


class TestConcreteRegistries:
    """Every axis runs on the same VariantRegistry implementation."""

    def test_policies(self):
        from repro.memctrl.policies import POLICIES

        assert isinstance(POLICIES, VariantRegistry)
        assert "frfcfs" in POLICIES
        # Historical contract: unknown policies raise KeyError.
        with pytest.raises(KeyError):
            POLICIES.require("nope")

    def test_backends(self):
        from repro.api.backends import BACKENDS, available_backends

        assert isinstance(BACKENDS, VariantRegistry)
        assert available_backends() == tuple(sorted(available_backends()))
        assert "pim_mmu" in BACKENDS
        with pytest.raises(KeyError):
            BACKENDS.require("nope")

    def test_fabrics(self):
        from repro.fabric import FABRICS, validate_fabric

        assert tuple(FABRICS.names()) == ("none", "mesh")
        assert validate_fabric("mesh:4x4") == "mesh:4x4"
        with pytest.raises(ValueError):
            validate_fabric("nope")


class TestVariants:
    def test_empty(self):
        assert Variants().empty
        assert not Variants(fabric="mesh:4x4").empty

    def test_axes_are_policy_and_fabric(self):
        fields = [field.name for field in dataclasses.fields(Variants)]
        assert fields == ["policy", "fabric"]

    def test_apply_maps_axes_onto_memctrl(self, small_config):
        variants = Variants(policy="fcfs", fabric="mesh:4x4")
        config = variants.apply(small_config)
        assert config.memctrl.policy == "fcfs"
        assert config.memctrl.fabric == "mesh:4x4"
        # None axes leave the config untouched.
        untouched = Variants().apply(small_config)
        assert untouched == small_config

    def test_apply_validates_first(self, small_config):
        with pytest.raises(ValueError):
            Variants(fabric="mesh").apply(small_config)  # grid size missing
        with pytest.raises(KeyError):
            Variants(policy="nope").apply(small_config)

    def test_merged_over(self):
        base = Variants(policy="fcfs", fabric="none")
        override = Variants(fabric="mesh:4x4")
        merged = override.merged_over(base)
        assert merged == Variants(policy="fcfs", fabric="mesh:4x4")
        assert override.merged_over(None) == override

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Variants().policy = "fcfs"

    def test_every_listed_variant_round_trips(self):
        """Acceptance: every axis value `repro variants` lists validates."""
        from repro.api.backends import BACKENDS
        from repro.fabric import FABRICS
        from repro.memctrl.policies import POLICIES

        for name in POLICIES.names():
            Variants(policy=name).validate()
        for name in BACKENDS.names():
            BACKENDS.require(name)
        for name in FABRICS.names():
            spec = "mesh:4x4" if name == "mesh" else name
            Variants(fabric=spec).validate()


class TestVariantsCli:
    def test_variants_lists_every_axis(self, capsys):
        from repro.exp.cli import main

        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        for title in (
            "Registered memory-scheduler policies",
            "Registered transfer backends",
            "Registered interconnect fabrics (--fabric)",
        ):
            assert title in out

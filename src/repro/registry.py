"""Generic variant registry: one mechanism behind every pluggable axis.

The reproduction has three "variant" axes -- scheduler policies
(:mod:`repro.memctrl.policies`), transfer backends
(:mod:`repro.api.backends`) and the interconnect fabric
(:mod:`repro.fabric`).  Each axis historically carried its own registry dict,
spec-string parser and error wording; :class:`VariantRegistry` is the one
implementation they all share now, parameterised by the small pieces that
legitimately differ (axis name, error type, ``registered``/``available``
wording, whether specs carry ``:args`` suffixes).

Spec-string grammar
-------------------
A variant *spec* is a plain string -- picklable, cache-key friendly and
CLI-friendly::

    name                     # e.g. "frfcfs", "pim_mmu", "none"
    name:args                # e.g. "frfcfs_cap:8", "mesh:4x4"
    name:pos,key=val,...     # e.g. "mesh:4x4,hop_ns=2.0,credits=4"

Names are case-insensitive with ``-`` ignored (``FR-FCFS`` resolves to
``frfcfs``) on axes that opt into normalisation.  Unknown names raise the
axis's error type with the registered names and, when a near-miss exists, a
did-you-mean suggestion.  :func:`parse_typed_kv` is the shared typed
``key=val,...`` argument parser.

:class:`Variants` is the typed bundle of one spec per axis, accepted by
:class:`repro.api.Session`, :class:`~repro.api.session.SessionBuilder` and
every experiment/scenario spec that threads variant knobs.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


class _Entry:
    __slots__ = ("name", "factory", "description")

    def __init__(self, name: str, factory: Callable, description: str) -> None:
        self.name = name
        self.factory = factory
        self.description = description


class VariantRegistry:
    """String-keyed registry of one variant axis.

    Parameters
    ----------
    axis:
        Human-readable axis name used in error messages
        (``"scheduler policy"``, ``"fabric"``, ...).
    error:
        Exception type raised for unknown specs (``KeyError`` or
        ``ValueError``; the historical per-axis types are preserved).
    known_label:
        The word introducing the known-names list in the unknown-spec error
        (``"registered"`` or ``"available"``).
    dup_label:
        The axis word used in the duplicate-registration error (defaults to
        ``axis``).
    normalize_names:
        When true, names are canonicalised (lower-case, ``-`` stripped)
        before lookup; when false, lookups are exact.
    parse_specs:
        When true, specs are split at the first ``:`` into ``(name, args)``
        and factories are called as ``factory(args_or_None)``; when false,
        the whole spec is the name and factories take no arguments.
    sort_names:
        When true, :meth:`names` (and error listings) are sorted; otherwise
        registration order is kept.
    """

    def __init__(
        self,
        axis: str,
        *,
        error: type = KeyError,
        known_label: str = "registered",
        dup_label: Optional[str] = None,
        normalize_names: bool = True,
        parse_specs: bool = True,
        sort_names: bool = False,
    ) -> None:
        self.axis = axis
        self._error = error
        self._known_label = known_label
        self._dup_label = dup_label if dup_label is not None else axis
        self._normalize = normalize_names
        self._parse = parse_specs
        self._sort = sort_names
        self._entries: Dict[str, _Entry] = {}

    # -------------------------------------------------------------- spellings
    def normalize(self, name: str) -> str:
        """Canonical spelling of ``name`` under this axis's rules."""
        if not self._normalize:
            return name
        return name.strip().lower().replace("-", "")

    def parse(self, spec: str) -> Tuple[str, Optional[str]]:
        """Split ``name[:args]`` into ``(canonical_name, args_or_None)``."""
        if not self._parse:
            return self.normalize(spec), None
        name, _, args = spec.partition(":")
        return self.normalize(name), (args if args else None)

    # ------------------------------------------------------------ registration
    def register(
        self,
        name: str,
        factory: Callable,
        description: str = "",
        *,
        replace: bool = False,
    ) -> None:
        """Register ``factory`` under ``name`` (``replace=True`` to override)."""
        if not replace and name in self._entries:
            raise ValueError(f"{self._dup_label} {name!r} is already registered")
        self._entries[name] = _Entry(name, factory, description)

    def unregister(self, name: str) -> None:
        """Remove a registered variant (primarily for tests).  Idempotent."""
        self._entries.pop(name, None)

    # ---------------------------------------------------------------- listing
    def names(self) -> List[str]:
        """Registered names (sorted or in registration order per the axis)."""
        names = list(self._entries)
        return sorted(names) if self._sort else names

    def description(self, name: str) -> str:
        """One-line description of a registered variant."""
        return self._entries[name].description

    def items(self) -> List[Tuple[str, str]]:
        """``(name, description)`` pairs in :meth:`names` order."""
        return [(name, self._entries[name].description) for name in self.names()]

    def __contains__(self, spec: str) -> bool:
        name, _ = self.parse(spec)
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ----------------------------------------------------------------- errors
    def unknown(self, spec: str) -> Exception:
        """The error raised for an unknown spec (with a did-you-mean hint)."""
        known = ", ".join(self.names())
        message = f"unknown {self.axis} {spec!r}; {self._known_label}: {known}"
        name, _ = self.parse(spec)
        close = difflib.get_close_matches(name, list(self._entries), n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        return self._error(message)

    # --------------------------------------------------------------- creation
    def require(self, spec: str) -> str:
        """Validate ``spec``, returning it unchanged (membership check only)."""
        name, _ = self.parse(spec)
        if name not in self._entries:
            raise self.unknown(spec)
        return spec

    def create(self, spec: str) -> Any:
        """Run the factory registered for ``spec``.

        Spec-parsing axes call ``factory(args_or_None)``; exact-name axes
        call ``factory()``.
        """
        name, args = self.parse(spec)
        entry = self._entries.get(name)
        if entry is None:
            raise self.unknown(spec) from None
        return entry.factory(args) if self._parse else entry.factory()


def parse_typed_kv(
    args: Optional[str],
    schema: Dict[str, Callable[[str], Any]],
    context: str,
) -> Dict[str, Any]:
    """Parse a ``key=val,key=val`` argument string against a typed schema.

    ``schema`` maps each accepted key to its converter (``int``, ``float``,
    ``str``, ...).  Unknown keys, malformed entries and conversion failures
    raise ``ValueError`` mentioning ``context`` (the variant being parsed).
    """
    values: Dict[str, Any] = {}
    if not args:
        return values
    for item in args.split(","):
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(
                f"cannot parse {context} argument {item!r}; expected 'key=value' "
                f"with keys from: {', '.join(schema)}"
            )
        if key not in schema:
            raise ValueError(
                f"unknown {context} argument {key!r}; accepted: "
                + ", ".join(schema)
            )
        try:
            values[key] = schema[key](raw.strip())
        except (TypeError, ValueError):
            raise ValueError(
                f"bad value {raw.strip()!r} for {context} argument {key!r}"
            ) from None
    return values


@dataclass(frozen=True)
class Variants:
    """Typed bundle of variant specs, one per pluggable axis.

    Every field is an optional spec string; ``None`` means "keep the config's
    current value".  Accepted by :meth:`repro.api.Session.open`,
    :class:`~repro.api.session.SessionBuilder` and the experiment/scenario
    specs (``TransferSpec``/``Sweep``/``ScenarioSpec``/``ServingSpec``)::

        Session.open(variants=Variants(policy="frfcfs_cap:8", fabric="mesh:4x4"))
    """

    policy: Optional[str] = None
    fabric: Optional[str] = None

    def validate(self) -> "Variants":
        """Fail fast on any unknown spec; returns ``self`` for chaining."""
        if self.policy is not None:
            from repro.memctrl.policies import create_policy

            create_policy(self.policy)
        if self.fabric is not None:
            from repro.fabric import validate_fabric

            validate_fabric(self.fabric)
        return self

    def apply(self, config):
        """``config`` with every non-``None`` axis replaced into ``memctrl``.

        Validates first, so an unknown spec raises before any run starts.
        The input ``SystemConfig`` is never mutated (frozen dataclasses).
        """
        self.validate()
        updates = {}
        if self.policy is not None:
            updates["policy"] = self.policy
        if self.fabric is not None:
            updates["fabric"] = self.fabric
        if not updates:
            return config
        from dataclasses import replace

        return replace(config, memctrl=replace(config.memctrl, **updates))

    def merged_over(self, base: Optional["Variants"]) -> "Variants":
        """``self`` with ``None`` fields filled from ``base`` (if any)."""
        if base is None:
            return self
        return Variants(
            policy=self.policy if self.policy is not None else base.policy,
            fabric=self.fabric if self.fabric is not None else base.fabric,
        )

    @property
    def empty(self) -> bool:
        return self.policy is None and self.fabric is None


__all__ = ["VariantRegistry", "Variants", "parse_typed_kv"]

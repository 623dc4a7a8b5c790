"""Mapper configuration.

Collects every tunable of the hybrid mapping process in one place.  The
defaults reproduce the parameter set of the paper's evaluation (Section 4.1):
``lambda_t = 0``, ``w_l = 0.1``, ``w_t = 0.1``, history/recency window
``t = 4`` and a lookahead depth of one layer.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

__all__ = ["MapperConfig"]


@dataclass(frozen=True)
class MapperConfig:
    """Parameters of the hybrid mapping process.

    Attributes
    ----------
    alpha_gate / alpha_shuttling:
        Decision weights ``alpha_g`` and ``alpha_s``.  ``alpha_shuttling = 0``
        gives the gate-only mode (A of Table 1a is shuttling-only, B is
        gate-only, C is the hybrid); ``alpha_gate = 0`` gives shuttling-only.
    lookahead_depth:
        Number of DAG release steps included in the lookahead layer.
    lookahead_weight:
        ``w_l`` — weighting of the lookahead layer in both cost functions.
    decay_rate:
        ``lambda_t`` — recency damping of the gate-based cost function.
    time_weight:
        ``w_t`` — weighting of the AOD-parallelism term of the shuttling cost.
    history_window:
        ``t`` — number of recent operations considered for the recency score
        and the parallelism term.
    use_commutation:
        Whether layer creation may exploit gate commutation rules.
    stall_threshold:
        Number of consecutive routing operations without executing a gate
        after which the mapper switches to deterministic fallback routing
        (``>= 0``; 0 forces fallback routing from the first round).
        ``None`` derives a threshold from the lattice diameter.
    max_routing_steps:
        Hard safety bound on the routing operations one mapper run may
        insert (``>= 1``); mapping aborts with ``MappingError`` beyond it
        (should never trigger in practice).  ``None`` derives it from the
        circuit size.  Under ``shard_routing`` every slice is routed by its
        own mapper with a fresh budget, so the bound holds per slice, not
        for the whole circuit.
    shard_routing:
        Enable sharded intra-circuit routing (``repro.mapping.shard``): the
        circuit DAG is partitioned into weakly-coupled slices at
        low-crossing frontiers (``repro.mapping.partition``) and the slices
        are routed one after another, each from the true mapping state its
        predecessor left behind.  The
        emitted stream is **not** bit-identical to serial routing — the
        contract is *metrics parity* (ΔCZ/ΔT/move counts within bounds)
        plus full replay validity, enforced by
        ``tests/differential/test_differential_shard``.  ``False`` (the
        default) leaves the serial path byte-identical to the committed
        goldens, and ``shard_min_slice`` is then left out of the
        fingerprint.
    shard_min_slice:
        Minimum gates per slice; the partitioner splits any segment above
        ``4 * shard_min_slice`` gates.  Circuits of at most that size
        silently take the serial path (bit-identical to goldens).
    """

    alpha_gate: float = 1.0
    alpha_shuttling: float = 1.0
    lookahead_depth: int = 1
    lookahead_weight: float = 0.1
    decay_rate: float = 0.0
    time_weight: float = 0.1
    history_window: int = 4
    use_commutation: bool = True
    stall_threshold: Optional[int] = None
    max_routing_steps: Optional[int] = None
    shard_routing: bool = False
    shard_min_slice: int = 24

    def __post_init__(self) -> None:
        # Normalise numeric field types so equal-valued configs are identical
        # objects: MapperConfig(alpha_gate=2) and MapperConfig(alpha_gate=2.0)
        # must produce the same canonical key/fingerprint (repr(2) != repr(2.0)
        # even though the values compare equal).  NaN slips through every
        # ``< 0`` check below, so non-finite weights are rejected here.
        for name in ("alpha_gate", "alpha_shuttling", "lookahead_weight",
                     "decay_rate", "time_weight"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("lookahead_depth", "history_window", "shard_min_slice"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("stall_threshold", "max_routing_steps"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, int(value))
        for name in ("use_commutation", "shard_routing"):
            object.__setattr__(self, name, bool(getattr(self, name)))
        if self.alpha_gate < 0 or self.alpha_shuttling < 0:
            raise ValueError("alpha weights must be non-negative")
        if self.alpha_gate == 0 and self.alpha_shuttling == 0:
            raise ValueError("at least one capability must remain enabled")
        if self.lookahead_depth < 0:
            raise ValueError("lookahead depth cannot be negative")
        if self.lookahead_weight < 0 or self.time_weight < 0 or self.decay_rate < 0:
            raise ValueError("cost weights must be non-negative")
        if self.history_window < 0:
            raise ValueError("history window cannot be negative")
        if self.stall_threshold is not None and self.stall_threshold < 0:
            raise ValueError("stall_threshold cannot be negative")
        if self.max_routing_steps is not None and self.max_routing_steps < 1:
            raise ValueError("max_routing_steps must be at least 1")
        if self.shard_min_slice < 1:
            raise ValueError("shard_min_slice must be at least 1")

    # ------------------------------------------------------------------
    # Mode helpers
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Human-readable mode name: ``gate_only``, ``shuttling_only`` or ``hybrid``."""
        if self.alpha_shuttling == 0:
            return "gate_only"
        if self.alpha_gate == 0:
            return "shuttling_only"
        return "hybrid"

    @property
    def alpha_ratio(self) -> float:
        """The decision ratio ``alpha = alpha_g / alpha_s`` (``inf`` for gate-only)."""
        if self.alpha_shuttling == 0:
            return float("inf")
        return self.alpha_gate / self.alpha_shuttling

    @classmethod
    def gate_only(cls, **kwargs) -> "MapperConfig":
        """Configuration for pure SWAP-insertion mapping (mode (B))."""
        return cls(alpha_gate=1.0, alpha_shuttling=0.0, **kwargs)

    @classmethod
    def shuttling_only(cls, **kwargs) -> "MapperConfig":
        """Configuration for pure shuttling mapping (mode (A))."""
        return cls(alpha_gate=0.0, alpha_shuttling=1.0, **kwargs)

    @classmethod
    def hybrid(cls, alpha_ratio: float = 1.0, **kwargs) -> "MapperConfig":
        """Hybrid configuration with the given decision ratio ``alpha_g / alpha_s``."""
        if alpha_ratio <= 0:
            raise ValueError("alpha ratio must be positive for hybrid mapping")
        return cls(alpha_gate=alpha_ratio, alpha_shuttling=1.0, **kwargs)

    @classmethod
    def for_mode(cls, mode: str, alpha_ratio: float = 1.0, **kwargs) -> "MapperConfig":
        """Configuration for a named mode (``alpha_ratio`` applies to hybrid only)."""
        if mode == "shuttling_only":
            return cls.shuttling_only(**kwargs)
        if mode == "gate_only":
            return cls.gate_only(**kwargs)
        if mode == "hybrid":
            return cls.hybrid(alpha_ratio, **kwargs)
        raise ValueError(f"unknown mapper mode {mode!r}; choose from "
                         "('shuttling_only', 'gate_only', 'hybrid')")

    @classmethod
    def sharded(cls, **kwargs) -> "MapperConfig":
        """Hybrid configuration with sharded intra-circuit routing enabled."""
        return cls(shard_routing=True, **kwargs)

    def with_overrides(self, **kwargs) -> "MapperConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Persistent identity
    # ------------------------------------------------------------------
    def canonical_key(self) -> str:
        """Canonical ``field=value`` serialisation of output-affecting fields.

        Fields are enumerated from the dataclass definition and sorted by
        name, so the key depends on neither declaration order, dict order
        nor object identity — two configs built from equal kwargs in any
        process produce the identical string (regression-tested across a
        subprocess boundary in ``tests/store/test_keys.py``).  Fields that
        cannot change the emitted stream are left out, so configs that
        produce identical streams share one store key: ``shard_min_slice``
        is omitted whenever sharded routing is off.
        """
        values = {spec.name: getattr(self, spec.name) for spec in fields(self)
                  if self.shard_routing or spec.name != "shard_min_slice"}
        parts = [f"{name}={values[name]!r}" for name in sorted(values)]
        # v2: the sharding knobs joined the field set, so every fingerprint
        # shifted; the schema tag makes the break explicit (and repro 1.3.0
        # rides along so store keys of both components move together — see
        # repro/_version.py).
        # v3: the chain-kernel switch joined the field set.  Fingerprints
        # shifted (cached store entries recompile once) but op streams did
        # not, so repro._version and the goldens stayed.  The switch has
        # since been removed; it was never keyed after v5, so no key moved.
        # v4: the flat/tree partition switch and a since-removed seeding
        # knob joined the field set; only sharded streams change, so again
        # only the schema tag moved.
        # v5: the speculative scheduler and its two knobs are gone, and
        # fields that cannot change the output (see above) are no longer
        # keyed.  shard_routing=False output is unchanged, so repro._version
        # and the goldens stay.
        # v6: the soft slice-size ceiling is keyed by its resolved value;
        # sharded keys with an unset ceiling shift, streams do not.  The
        # region-cache switch was removed later; it was never keyed after
        # v5, so no key moved.  Later still, the flat/tree partition
        # switch, the slice-size ceiling and the cut-qubit bound were
        # removed (one partitioner, ceiling fixed at 4 * shard_min_slice):
        # serial keys never held them and did not move.  Sharded keys
        # shift, but every earlier sharded key held the switch's field,
        # which no key holds now, so no new key can equal an old one and
        # the tag stays v6.
        return "mapper-config/v6|" + "|".join(parts)

    def fingerprint(self) -> str:
        """SHA-256 of :meth:`canonical_key` — the config component of
        persistent store keys (:mod:`repro.store`)."""
        return hashlib.sha256(self.canonical_key().encode()).hexdigest()

"""Common interface for PCM write schemes.

A scheme turns ``(stored image, new logical data)`` into a
:class:`WriteOutcome` — the bank-occupancy time, the Figure-10 write-unit
count, and the programmed-cell counts that drive the energy model — and
commits the new image to the :class:`~repro.pcm.state.LineState`.

Service-time convention
-----------------------
``service_ns`` is the total time the write occupies the bank, including
the read-before-write and analysis components where the scheme has them.
``units`` is only the *write-stage* length expressed in multiples of
``t_set`` — the quantity the paper's Figure 10 plots (Tetris: measured
``result + subresult/K``; baselines: their worst-case constants).
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from repro.config import SystemConfig, default_config
from repro.obs.runtime import tracer_for
from repro.core.energy import EnergyModel
from repro.core.pricing import PRICING
from repro.pcm.state import LineState
from repro.pcm.wear import WearTracker
from repro.verify.invariants import runtime_verification_enabled, verify_outcome

__all__ = ["WriteOutcome", "WriteScheme", "SCHEME_REGISTRY", "get_scheme"]


@dataclass(frozen=True)
class WriteOutcome:
    """Everything the simulator and benches need to know about one write.

    Attributes
    ----------
    service_ns:
        Total bank occupancy (read + analysis + write stages).
    units:
        Write-stage length in ``t_set`` units (Figure 10's metric).
    read_ns / analysis_ns:
        The pre-write components (0 where the scheme has none).
    n_set / n_reset:
        Cells actually programmed to '1' / '0'.
    energy:
        Normalized energy (see :class:`~repro.core.energy.EnergyModel`).
    flipped_units:
        How many data units were stored inverted by this write.
    attempts:
        Program passes the write needed (1 = clean first shot; only the
        fault-enabled path ever reports more).
    retried_bits:
        Cell programs issued by passes beyond the first (0 when clean).
    retry_units:
        Extra write-stage length, in ``t_set`` units, consumed by the
        residual retry schedules (``units`` keeps its pristine meaning,
        so Figure-10 comparisons stay untouched).
    verify_ns:
        Read-back verification time (one array read per attempt).
    degraded:
        The write needed ECP pointers to become durable.
    retired:
        The line was retired to a spare during this write.
    """

    service_ns: float
    units: float
    read_ns: float
    analysis_ns: float
    n_set: int
    n_reset: int
    energy: float
    flipped_units: int = 0
    attempts: int = 1
    retried_bits: int = 0
    retry_units: float = 0.0
    verify_ns: float = 0.0
    degraded: bool = False
    retired: bool = False


SCHEME_REGISTRY: dict[str, type["WriteScheme"]] = {}


class WriteScheme(ABC):
    """Base class: subclasses register themselves under ``name``."""

    name: ClassVar[str]
    requires_read: ClassVar[bool]

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config if config is not None else default_config()
        self.energy_model = EnergyModel.for_config(self.config)
        # Resolved once so the disabled case costs one attribute test on
        # the hot path (config flag OR the REPRO_VERIFY environment).
        self.verify = runtime_verification_enabled(self.config)
        # Observability (repro.obs): same resolve-once contract — None
        # unless config.trace.enabled, so an untraced write pays a
        # single `is None` test.  ``obs_bank`` is stamped by the PCMBank
        # that owns this scheme instance so concurrently-busy banks land
        # on distinct timeline lanes.
        self._obs = tracer_for(self.config)
        self.obs_bank: int | None = None
        # Endurance accounting rides the write path by default; the fault
        # model needs it always-on (and in per-cell mode) when enabled.
        faults_cfg = getattr(self.config, "faults", None)
        faults_on = bool(faults_cfg is not None and faults_cfg.enabled)
        track_wear = bool(getattr(self.config, "track_wear", False)) or faults_on
        self.wear: WearTracker | None = (
            WearTracker(
                cell_tracking=faults_on, unit_bits=self.config.data_unit_bits
            )
            if track_wear
            else None
        )
        if faults_on:
            from repro.faults.model import FaultModel

            self.faults: "FaultModel | None" = FaultModel(
                self.config, wear=self.wear
            )
        else:
            self.faults = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Only a class that declares its *own* ``name`` registers: a
        # subclass inheriting the attribute is a refinement of an already
        # registered scheme, not a new one, and must not clobber its
        # parent's registry slot.
        name = cls.__dict__.get("name")
        if isinstance(name, str):
            existing = SCHEME_REGISTRY.get(name)
            if existing is not None and existing is not cls:
                raise ValueError(
                    f"scheme name {name!r} is already registered by "
                    f"{existing.__module__}.{existing.__qualname__}; "
                    f"{cls.__module__}.{cls.__qualname__} must pick a "
                    f"distinct name (silent shadowing would mis-price "
                    f"every sweep and cache key using {name!r})"
                )
            SCHEME_REGISTRY[name] = cls

    # ------------------------------------------------------------------
    def write(
        self, state: LineState, new_logical: np.ndarray, *, line: int = 0
    ) -> WriteOutcome:
        """Service one cache-line write and commit the new image.

        Template method: subclasses implement :meth:`_write_once` (one
        pristine, fault-free pass); this wrapper adds the always-on wear
        accounting and, when ``config.faults.enabled``, the bounded
        program-and-verify retry loop with ECP/retirement degradation.
        ``line`` keys the wear and fault state; callers that do not
        model addresses may omit it.
        """
        if self.faults is None:
            outcome = self._write_once(state, new_logical)
            if self.wear is not None:
                self.wear.record(int(line), outcome.n_set, outcome.n_reset)
        else:
            outcome = self._write_with_faults(state, new_logical, int(line))
        if self._obs is not None:
            self._trace_write(outcome, int(line))
        return outcome

    @abstractmethod
    def _write_once(self, state: LineState, new_logical: np.ndarray) -> WriteOutcome:
        """One pristine program pass: price the write, commit the image."""

    @abstractmethod
    def worst_case_units(self) -> float:
        """The closed-form write-unit count (Equations 1-4, Fig 10 bars)."""

    # ------------------------------------------------------------------
    def _write_with_faults(
        self, state: LineState, new_logical: np.ndarray, line: int
    ) -> WriteOutcome:
        """Run one write through the fault model's verify-and-retry loop.

        The pristine pass is priced by :meth:`_write_once` exactly as in
        the fault-free path; the fault model then decides which cells it
        actually landed on, runs the residual retries, and this wrapper
        folds the extra latency/energy into the outcome.  On an
        uncorrectable failure the stored image is restored before the
        structured error propagates — never silent corruption.
        """
        from repro.faults.ecp import UncorrectableWriteError

        before_physical = state.physical.copy()
        before_flip = state.flip.copy()
        outcome = self._write_once(state, new_logical)
        try:
            report = self.faults.program_line(
                line, before_physical, state.physical
            )
        except UncorrectableWriteError:
            state.store(before_physical, before_flip)
            raise
        # The scheme's own pass counts as attempt 1 even when nothing
        # changed; hardware verifies every program command it issued.
        attempts = max(report.attempts, 1)
        verify_ns = attempts * self.t_read
        extended = dataclasses.replace(
            outcome,
            service_ns=outcome.service_ns
            + report.retry_units * self.t_set
            + verify_ns,
            n_set=outcome.n_set + report.retry_set,
            n_reset=outcome.n_reset + report.retry_reset,
            energy=outcome.energy
            + float(
                self.energy_model.write_energy(
                    report.retry_set, report.retry_reset
                )
            )
            + attempts * self.energy_model.read_energy_per_line,
            attempts=attempts,
            retried_bits=report.retried_bits,
            retry_units=report.retry_units,
            verify_ns=verify_ns,
            degraded=report.degraded,
            retired=report.retired,
        )
        if self.verify:
            verify_outcome(extended, t_set_ns=self.t_set)
        return extended

    # ------------------------------------------------------------------
    def _trace_write(self, outcome: WriteOutcome, line: int) -> None:
        """Record one serviced write on the scheme timeline.

        The span is retrospective: it starts at the tracer clock's *now*
        (the instant the bank began servicing the write in a DES run)
        and lasts the already-computed ``service_ns``.  Tetris attaches
        its Equation-5 quantities when a schedule is available.
        """
        obs = self._obs
        ts = obs.clock.now_ns()
        tid = self.name if self.obs_bank is None else f"bank{self.obs_bank}"
        args: dict = {
            "line": line,
            "units": outcome.units,
            "n_set": outcome.n_set,
            "n_reset": outcome.n_reset,
        }
        sched = getattr(self, "last_schedule", None)
        if sched is not None:
            args["result"] = sched.result
            args["subresult"] = sched.subresult
        if outcome.attempts > 1:
            args["attempts"] = outcome.attempts
            obs.instant(
                "write.retry",
                ts_ns=ts + outcome.service_ns,
                pid="scheme",
                tid=tid,
                cat="faults",
                args={"line": line, "attempts": outcome.attempts,
                      "retried_bits": outcome.retried_bits},
            )
        if outcome.degraded:
            obs.instant(
                "write.ecp_degraded", ts_ns=ts + outcome.service_ns,
                pid="scheme", tid=tid, cat="faults",
                args={"line": line},
            )
        if outcome.retired:
            obs.instant(
                "write.retired", ts_ns=ts + outcome.service_ns,
                pid="scheme", tid=tid, cat="faults",
                args={"line": line},
            )
        obs.complete(
            f"write.{self.name}",
            ts_ns=ts,
            dur_ns=outcome.service_ns,
            pid="scheme",
            tid=tid,
            cat="write",
            args=args,
        )
        m = obs.metrics.scope(f"scheme.{self.name}")
        m.counter("writes").inc()
        m.counter("set_bits").inc(outcome.n_set)
        m.counter("reset_bits").inc(outcome.n_reset)
        m.latency("service_ns").add(outcome.service_ns)
        m.gauge("units").set(outcome.units)
        if outcome.attempts > 1:
            m.counter("retried_writes").inc()

    # ------------------------------------------------------------------
    @property
    def t_read(self) -> float:
        return self.config.timings.t_read_ns

    @property
    def t_set(self) -> float:
        return self.config.timings.t_set_ns

    @property
    def t_reset(self) -> float:
        return self.config.timings.t_reset_ns

    def worst_case_service_ns(self) -> float:
        """Upper bound on ``service_ns`` (used for queue admission)."""
        read = self.t_read if self.requires_read else 0.0
        return read + self.worst_case_units() * self.t_set

    def _outcome(
        self,
        *,
        units: float,
        read_ns: float,
        analysis_ns: float,
        n_set: int,
        n_reset: int,
        flipped_units: int = 0,
    ) -> WriteOutcome:
        """Assemble an outcome, deriving time and energy consistently."""
        outcome = WriteOutcome(
            service_ns=read_ns + analysis_ns + units * self.t_set,
            units=units,
            read_ns=read_ns,
            analysis_ns=analysis_ns,
            n_set=n_set,
            n_reset=n_reset,
            energy=float(self.energy_model.write_energy(n_set, n_reset))
            + (self.energy_model.read_energy_per_line if read_ns > 0 else 0.0),
            flipped_units=flipped_units,
        )
        if self.verify:
            verify_outcome(outcome, t_set_ns=self.t_set)
        return outcome


def declared_worst_case_units(self: WriteScheme) -> float:
    """``worst_case_units`` of a scheme with a ``repro.core.pricing`` rule.

    Registered schemes bind it in their class body
    (``worst_case_units = declared_worst_case_units``), so the
    queue-admission bound and the vectorized pricer's fixed-latency
    price come from one closed form.
    """
    return PRICING[self.name].worst_case(self.config)


def get_scheme(
    name: str, config: SystemConfig | None = None, **kwargs
) -> WriteScheme:
    """Instantiate a registered scheme by name (see ``ALL_SCHEMES``)."""
    try:
        cls: Callable[..., WriteScheme] = SCHEME_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; registered: {sorted(SCHEME_REGISTRY)}"
        ) from None
    return cls(config, **kwargs)

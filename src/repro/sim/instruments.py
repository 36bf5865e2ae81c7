"""The run's instruments: every optional observer and adversary, in one record.

A run may carry a fault injector, protocol sanitizers, the obs context,
the host-side profiler, the comm-pattern observatory and the legacy
Chrome tracer.  :class:`Instruments` bundles them.  ``BspEngine`` builds
the record once from its ``EngineConfig`` and hands it to
``Fabric(env, n, machine, instruments=...)``, which publishes it on the
environment as well.  Every component reads the fields it needs once,
at construction, from ``nic.fabric.instruments`` or
``env.instruments``; nothing attaches later.  A ``None`` field means
that instrument is absent, and a component without any instrument wires
its plain paths.  :data:`NO_INSTRUMENTS` is the shared empty record that
bare fabrics and environments start with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Instruments", "NO_INSTRUMENTS"]


@dataclass(frozen=True)
class Instruments:
    """The optional contexts of one run (``None`` = absent)."""

    #: :class:`repro.faults.FaultInjector`.
    faults: Any = None
    #: :class:`repro.sanitize.SanitizerContext`.
    sanitizer: Any = None
    #: :class:`repro.obs.ObsContext`.
    obs: Any = None
    #: :class:`repro.obs.profile.ProfileContext`.
    profiler: Any = None
    #: :class:`repro.obs.commstats.CommStatsContext`.
    commstats: Any = None
    #: :class:`repro.sim.trace.Tracer`.
    tracer: Any = None


NO_INSTRUMENTS = Instruments()

"""Property tests for the serving plane's burn classification.

:class:`~repro.serve.SloController` classifies each tenant's per-window
eviction delta with :meth:`~repro.obs.health.SloBurn.severity`.  The
oracle is the offline path: :meth:`SloBurn.scan` over a trace holding one
:class:`~repro.obs.events.TenantEvicted` per burning tenant, all at the
window's instant, keeping the worse severity per tenant.  The two must
agree for any thresholds, window width and instant — including instants
carrying the engine clock's accumulated drift.
"""

from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.mem.page import Tier
from repro.obs.events import ControllerAction, TenantEvicted
from repro.obs.health import HealthContext, SloBurn
from repro.obs.replay import Trace
from repro.obs.trace import Tracer
from repro.serve import SloController

#: service instants after tick accumulation: floor(t / 0.5) puts each pair
#: in one bin although they are consecutive 0.5 s windows
DRIFT_INSTANTS = (2.0000000000000013, 2.4999999999999907,
                  43.000000000000014, 43.499999999999915)


def _accumulated(ticks: int, dt: float = 0.01) -> float:
    t = 0.0
    for _ in range(ticks):
        t += dt
    return t


instants = st.one_of(
    st.sampled_from(DRIFT_INSTANTS),
    st.integers(min_value=1, max_value=5000).map(_accumulated),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)


def _scan_severities(deltas, now, window, warn, critical):
    """The old path: the dual-grid scan over a one-instant trace."""
    events = [TenantEvicted(now, name, pages)
              for name, pages in sorted(deltas.items()) if pages > 0]
    if not events:
        return {}
    trace = Trace(events)
    detector = SloBurn(window=window, warn_pages=warn,
                       critical_pages=critical)
    out = {}
    for finding in detector.scan(trace, HealthContext(trace)):
        tenant = finding.data["tenant"]
        if out.get(tenant) != "critical":
            out[tenant] = finding.severity
    return out


def _controller_severities(deltas, now, window, warn, critical):
    """Severities the controller acts on in one control pass.

    With ``attack_windows=1`` every burning tenant is boosted (a critical
    burn also gets a floor step) on its first burning window, and the
    action records the severity; calm tenants without an SLO only start
    their release streak, which records nothing.
    """
    tenants = [
        SimpleNamespace(
            name=name,
            spec=SimpleNamespace(slo_ops_per_sec=None, weight=1.0),
            workload=SimpleNamespace(total_ops=0.0),
            evicted_pages=pages,
            weight_boost=1.0,
            floor_boost_pages=0,
            dram_dax=SimpleNamespace(used_pages=0),
        )
        for name, pages in sorted(deltas.items())
    ]
    tracer = Tracer()
    colo = SimpleNamespace(
        active_tenants=lambda: list(tenants),
        shared_dax={Tier.DRAM: SimpleNamespace(n_pages=1 << 20)},
        machine=SimpleNamespace(tracer=tracer),
    )
    ctrl = SloController(colo, window=window, attack_windows=1,
                         release_windows=4, warn_pages=warn,
                         critical_pages=critical, slo_only=False)
    ctrl.control(now)
    actions = [e for e in tracer.events if type(e) is ControllerAction]
    assert len({a.tenant for a in actions}) == len(actions)
    return {a.tenant: a.severity for a in actions}


@st.composite
def burn_cases(draw):
    names = draw(st.lists(st.sampled_from(
        ["web-000", "web-001", "kv-000", "kv-001", "batch-000"]
    ), min_size=1, max_size=5, unique=True))
    deltas = {name: draw(st.integers(min_value=0, max_value=400))
              for name in names}
    warn = draw(st.integers(min_value=0, max_value=200))
    critical = warn + draw(st.integers(min_value=0, max_value=200))
    window = draw(st.one_of(
        st.just(0.5), st.floats(min_value=0.01, max_value=10.0)
    ))
    return deltas, draw(instants), window, warn, critical


@given(burn_cases())
@settings(max_examples=300, deadline=None)
def test_controller_severity_matches_one_instant_scan(case):
    deltas, now, window, warn, critical = case
    assert (_controller_severities(deltas, now, window, warn, critical)
            == _scan_severities(deltas, now, window, warn, critical))

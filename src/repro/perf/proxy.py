"""Automatic proxy generation (paper Sections 4.2 and 6).

"For each component that the user wants to analyze, a proxy component is
created.  The proxy component shares the same interface as the actual
component. ... the proxy is able to snoop the method invocation on the
Provides Port, and then forward the method invocation to the component on
the Uses Port."

The paper created proxies manually "with the help of a few scripts" and
envisioned full automation plus "simple mark-up approaches identifying
arguments/parameters which affect performance".  Both are realized here:

* :func:`make_proxy_port` synthesizes a proxy class for any
  :class:`~repro.cca.ports.Port` interface by introspection;
* :func:`perf_params` is the mark-up — a decorator on interface methods
  naming an extractor that maps call arguments to the performance
  parameters the Mastermind should record.

Parameter extraction runs *before* monitoring starts and the forwarded
call is bracketed tightly, matching the paper's "all the extraction and
recording of parameters is done outside the timers and counters that
actually measure the performance of a component."
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

from repro.cca.component import Component
from repro.cca.framework import Framework
from repro.cca.ports import Port, port_methods
from repro.cca.services import Services
from repro.faults.injector import TransientComponentError
from repro.faults.plan import COMPONENT_DELAY, RAISE
from repro.perf.monitor import MonitorPort

#: attribute set on interface methods by the perf_params mark-up
_EXTRACTOR_ATTR = "_perf_param_extractor"

Extractor = Callable[[tuple, dict], Mapping[str, Any]]


def perf_params(extractor: Extractor):
    """Mark-up decorator for Port interface methods.

    ``extractor(args, kwargs)`` receives the call's positional and keyword
    arguments (excluding ``self``) and returns the parameter dict to record,
    e.g. ``lambda args, kwargs: {"Q": args[0].size}`` for an array routine.
    """

    def deco(fn):
        setattr(fn, _EXTRACTOR_ATTR, extractor)
        return fn

    return deco


def declared_extractors(port_type: type[Port]) -> dict[str, Extractor]:
    """Collect per-method extractors declared with :func:`perf_params`."""
    out: dict[str, Extractor] = {}
    for name in port_methods(port_type):
        fn = getattr(port_type, name)
        ex = getattr(fn, _EXTRACTOR_ATTR, None)
        if ex is not None:
            out[name] = ex
    return out


def _make_forwarder(
    method: str, extractor: Extractor | None, monitored: bool
) -> Callable:
    """Build one proxy method: snoop (optionally) and forward."""

    if monitored:

        def fwd(self, *args: Any, **kwargs: Any) -> Any:
            params = dict(extractor(args, kwargs)) if extractor else {}
            # Injected faults resolve before monitoring starts, like the
            # parameter extraction: a transient raise is retried (each
            # retry re-consults the injector, advancing the fault's
            # occurrence counter) so only the surviving forwarded call is
            # measured.  An injected *delay* instead sleeps inside the
            # monitored region — the latency spike must be visible to the
            # Mastermind's records and the online drift detector.
            action = None
            ctx = self._fault_ctx() if self._fault_ctx is not None else None
            if ctx is not None:
                world, rank = ctx
                injector, policy = world.injector, world.policy
                attempt = 0
                while True:
                    action = injector.on_component_call(rank, self._label, method)
                    if action is None or action.kind != RAISE:
                        break
                    if policy is None:
                        raise TransientComponentError(
                            f"{self._label}.{method}: injected failure"
                        )
                    attempt += 1
                    if attempt >= policy.max_attempts:
                        world.book(rank, "component_failure", label=self._label)
                        raise TransientComponentError(
                            f"{self._label}.{method}: injected failure persisted "
                            f"through {attempt} attempt(s)"
                        )
                    world.book(rank, "component_retry", label=self._label)
                    # Off the run token: a stalled rank makes its peers
                    # wait for it, it does not freeze them.
                    with world.off_token(rank):
                        time.sleep(policy.component_backoff_s * 2 ** (attempt - 1))
            monitor = self._monitor()
            token = monitor.begin_invocation(self._label, method, params)
            try:
                if action is not None and action.kind == COMPONENT_DELAY:
                    with world.off_token(rank):
                        time.sleep(action.delay_us / 1e6)
                return getattr(self._target(), method)(*args, **kwargs)
            finally:
                monitor.end_invocation(token)

    else:

        def fwd(self, *args: Any, **kwargs: Any) -> Any:
            return getattr(self._target(), method)(*args, **kwargs)

    fwd.__name__ = method
    fwd.__qualname__ = f"proxy.{method}"
    return fwd


def make_proxy_port(
    port_type: type[Port],
    label: str,
    target_getter: Callable[[], Port],
    monitor_getter: Callable[[], MonitorPort],
    methods: list[str] | None = None,
    extractors: Mapping[str, Extractor] | None = None,
    fault_getter: Callable[[], tuple | None] | None = None,
) -> Port:
    """Synthesize a proxy implementing ``port_type``.

    ``methods`` restricts monitoring to the named interface methods (all by
    default); unmonitored methods still forward transparently.
    ``extractors`` override/augment the interface's ``perf_params`` mark-up.
    ``target_getter``/``monitor_getter`` defer port resolution until first
    call, since framework connections happen after component creation.
    ``fault_getter``, when provided, returns ``(world, rank)`` for the
    running world (or None when no faults are attached); monitored methods
    then consult the world's injector at the call boundary and book their
    retries and failures through the world (``SimWorld.book``).
    """
    iface_methods = port_methods(port_type)
    if not iface_methods:
        raise ValueError(f"{port_type.__name__} declares no methods to proxy")
    monitored = set(iface_methods if methods is None else methods)
    unknown = monitored - set(iface_methods)
    if unknown:
        raise ValueError(
            f"cannot monitor {sorted(unknown)}: not methods of {port_type.__name__} "
            f"(has {iface_methods})"
        )
    all_extractors = declared_extractors(port_type)
    all_extractors.update(extractors or {})

    namespace: dict[str, Any] = {
        "_label": label,
        "__doc__": f"Auto-generated proxy for {port_type.__name__} ({label})",
    }
    for name in iface_methods:
        namespace[name] = _make_forwarder(
            name, all_extractors.get(name), monitored=name in monitored
        )
    proxy_cls = type(f"{port_type.__name__}_{label}_proxy", (port_type,), namespace)
    proxy = proxy_cls()
    # Late-bound accessors live on the instance, not the class, so one
    # interface can be proxied many times with different wiring.
    proxy._target = target_getter
    proxy._monitor = monitor_getter
    proxy._fault_ctx = fault_getter
    return proxy


class ProxyComponent(Component):
    """A generated proxy packaged as a CCA component.

    Provides ``port_name`` with the proxied interface; uses ``port_name``
    (the real component, connected by the framework) and ``monitor`` (the
    Mastermind).  Placed "directly in front of" the actual component.
    """

    MONITOR_PORT = "monitor"

    def __init__(
        self,
        port_type: type[Port],
        port_name: str,
        label: str | None = None,
        methods: list[str] | None = None,
        extractors: Mapping[str, Extractor] | None = None,
    ) -> None:
        self.port_type = port_type
        self.port_name = port_name
        self.label = label or f"{port_name}_proxy"
        self.methods = methods
        self.extractors = dict(extractors or {})
        self._services: Services | None = None

    def set_services(self, services: Services) -> None:
        self._services = services
        services.register_uses_port(self.port_name, self.port_type)
        services.register_uses_port(self.MONITOR_PORT, MonitorPort)

        def fault_ctx() -> tuple | None:
            comm = getattr(services.framework, "comm", None)
            if comm is None or comm.world.injector is None:
                return None
            return comm.world, comm.rank

        proxy = make_proxy_port(
            self.port_type,
            self.label,
            target_getter=lambda: services.get_port(self.port_name),
            monitor_getter=lambda: services.get_port(self.MONITOR_PORT),
            methods=self.methods,
            extractors=self.extractors,
            fault_getter=fault_ctx,
        )
        services.add_provides_port(proxy, self.port_name, self.port_type)


def insert_proxy(
    framework: Framework,
    user_instance: str,
    uses_port: str,
    mastermind_instance: str,
    proxy_instance: str | None = None,
    label: str | None = None,
    methods: list[str] | None = None,
    extractors: Mapping[str, Extractor] | None = None,
) -> str:
    """Interpose a proxy on an existing user->provider connection.

    Rewires ``user.uses_port`` so calls flow user -> proxy -> original
    provider, with the proxy's monitor port connected to the Mastermind.
    Returns the proxy's instance name.
    """
    usv = framework.services_of(user_instance)
    if uses_port not in usv.used:
        raise KeyError(f"{user_instance} has no uses port {uses_port!r}")
    up = usv.used[uses_port]
    if up.provider_instance is None:
        raise RuntimeError(
            f"{user_instance}.{uses_port} is not connected; connect it before "
            "inserting a proxy"
        )
    provider = up.provider_instance
    # Identify the provider-side port name backing this connection.
    psv = framework.services_of(provider)
    provides_name = next(
        (p.name for p in psv.provided.values() if p.impl is up.impl), None
    )
    if provides_name is None:
        raise RuntimeError(f"cannot trace provided port behind {user_instance}.{uses_port}")

    proxy_instance = proxy_instance or f"{provider}_proxy"
    framework.create(
        proxy_instance,
        ProxyComponent,
        port_type=up.port_type,
        port_name=uses_port,
        label=label or proxy_instance,
        methods=methods,
        extractors=extractors,
    )
    framework.connect(proxy_instance, uses_port, provider, provides_name)
    framework.connect(proxy_instance, ProxyComponent.MONITOR_PORT,
                      mastermind_instance, "monitor")
    framework.disconnect(user_instance, uses_port)
    framework.connect(user_instance, uses_port, proxy_instance, uses_port)
    return proxy_instance

"""The containing framework (CCAFFEINE analog).

"Since a containing framework creates, configures and assembles components,
the framework possesses the global understanding of how the components are
networked into an application" (paper Section 1).  Accordingly
:class:`Framework` owns:

* component instantiation (by class or repository name — the analog of
  loading a shared object at run time);
* port connection — "just the movement of (pointers to) interfaces from the
  providing to the using component";
* the wiring diagram as a :class:`networkx.MultiDiGraph`, consumed by the
  Mastermind to build the application's dual;
* dynamic component replacement through the AbstractFramework port
  (Figure 10: "the Mastermind is seen connected to CCAFFEINE via the
  AbstractFramework Port to enable dynamic replacement of sub-optimal
  components").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.cca.component import Component
from repro.cca.ports import GoPort, Port
from repro.cca.repository import ComponentRepository, default_repository
from repro.cca.services import Services
from repro.tau.profiler import Profiler

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.mpi.comm import SimComm


class AbstractFrameworkPort(Port):
    """Builtin port giving components (the Mastermind) framework control."""

    def wiring(self) -> nx.MultiDiGraph:
        raise NotImplementedError

    def replace(self, instance_name: str, new_cls: type[Component]) -> Component:
        raise NotImplementedError

    def component_class(self, instance_name: str) -> type[Component]:
        raise NotImplementedError


class MPIPort(Port):
    """Builtin port exposing the rank's communicator to components."""

    def comm(self) -> "SimComm":
        raise NotImplementedError


class _FrameworkAdapter(AbstractFrameworkPort):
    """AbstractFrameworkPort implementation delegating to the framework."""

    def __init__(self, fw: "Framework") -> None:
        self._fw = fw

    def wiring(self) -> nx.MultiDiGraph:
        return self._fw.wiring_diagram()

    def replace(self, instance_name: str, new_cls: type[Component]) -> Component:
        return self._fw.replace_component(instance_name, new_cls)

    def component_class(self, instance_name: str) -> type[Component]:
        return type(self._fw.component(instance_name))


class _MPIAdapter(MPIPort):
    def __init__(self, fw: "Framework") -> None:
        self._fw = fw

    def comm(self) -> "SimComm":
        if self._fw.comm is None:
            raise RuntimeError("framework has no MPI communicator (serial run)")
        return self._fw.comm


class Framework:
    """One rank's component container.

    Under SCMD, every rank instantiates an identical Framework holding the
    same components (a *cohort*); ``comm`` links cohort instances.
    """

    #: names under which builtin ports are fetched via ``services.get_port``
    ABSTRACT_FRAMEWORK_PORT = "cca.AbstractFramework"
    MPI_PORT = "cca.MPI"

    def __init__(
        self,
        rank: int = 0,
        comm: "SimComm | None" = None,
        profiler: Profiler | None = None,
        repository: ComponentRepository | None = None,
        obs=None,
    ) -> None:
        self.rank = int(rank)
        self.comm = comm
        self.repository = repository or default_repository
        self.profiler = profiler or Profiler(rank=self.rank)
        #: this rank's RankObs (span tracer + metrics), or None when off.
        #: Components reach it via ``services.framework.obs``.
        self.obs = obs if obs is not None else (comm.obs if comm is not None else None)
        self._components: dict[str, Component] = {}
        self._services: dict[str, Services] = {}
        self._builtins: dict[str, Port] = {
            self.ABSTRACT_FRAMEWORK_PORT: _FrameworkAdapter(self),
            self.MPI_PORT: _MPIAdapter(self),
        }

    # ------------------------------------------------------------ builtin
    def builtin_port(self, name: str) -> Port | None:
        """Framework-provided port for ``name`` or None."""
        return self._builtins.get(name)

    # ---------------------------------------------------------- creation
    def create(
        self, instance_name: str, component: type[Component] | str, **kwargs: Any
    ) -> Component:
        """Instantiate a component and invoke its ``set_services``.

        ``component`` may be a class or a repository name (the runtime
        shared-object-loading analog).  ``kwargs`` go to the constructor.
        """
        if instance_name in self._components:
            raise ValueError(f"instance name {instance_name!r} already in use")
        cls = self.repository.get(component) if isinstance(component, str) else component
        if not (isinstance(cls, type) and issubclass(cls, Component)):
            raise TypeError(f"{component!r} is not a Component subclass or repository name")
        comp = cls(**kwargs)
        services = Services(instance_name, self)
        comp.set_services(services)
        self._components[instance_name] = comp
        self._services[instance_name] = services
        return comp

    def destroy(self, instance_name: str) -> None:
        """Remove a component, unbinding every connection touching it."""
        comp = self.component(instance_name)
        # Unbind this instance's own uses ports.
        sv = self._services[instance_name]
        for name, up in sv.used.items():
            if up.impl is not None:
                sv._unbind(name)
        # Unbind peers using this instance's provided ports.
        for peer, psv in self._services.items():
            if peer == instance_name:
                continue
            for name, up in psv.used.items():
                if up.provider_instance == instance_name:
                    psv._unbind(name)
        comp.release()
        del self._components[instance_name]
        del self._services[instance_name]

    # ------------------------------------------------------------ lookup
    def component(self, instance_name: str) -> Component:
        try:
            return self._components[instance_name]
        except KeyError:
            raise KeyError(
                f"no component instance {instance_name!r}; have {sorted(self._components)}"
            ) from None

    def services_of(self, instance_name: str) -> Services:
        self.component(instance_name)
        return self._services[instance_name]

    def instance_names(self) -> list[str]:
        return sorted(self._components)

    def provided_port(self, instance_name: str, port_name: str) -> Port:
        """The implementation object a component exports under ``port_name``."""
        sv = self.services_of(instance_name)
        try:
            return sv.provided[port_name].impl
        except KeyError:
            raise KeyError(
                f"{instance_name} provides no port {port_name!r}; "
                f"have {sorted(sv.provided)}"
            ) from None

    # -------------------------------------------------------- connection
    def connect(
        self,
        user_instance: str,
        uses_port: str,
        provider_instance: str,
        provides_port: str | None = None,
    ) -> None:
        """Wire a uses port to a provides port (defaults to the same name)."""
        provides_port = provides_port if provides_port is not None else uses_port
        usv = self.services_of(user_instance)
        if uses_port not in usv.used:
            raise KeyError(
                f"{user_instance} registered no uses port {uses_port!r}; "
                f"have {sorted(usv.used)}"
            )
        impl = self.provided_port(provider_instance, provides_port)
        usv._bind(uses_port, impl, provider_instance)

    def disconnect(self, user_instance: str, uses_port: str) -> None:
        usv = self.services_of(user_instance)
        if uses_port not in usv.used:
            raise KeyError(f"{user_instance} registered no uses port {uses_port!r}")
        usv._unbind(uses_port)

    # ------------------------------------------------------- replacement
    def replace_component(self, instance_name: str, new_cls: type[Component],
                          **kwargs: Any) -> Component:
        """Swap an instance for another implementation, preserving wiring.

        The new class must provide ports under the same names so existing
        connections can be re-established — the "switching in a similar
        component without affecting the rest of the application" property.
        """
        old_sv = self.services_of(instance_name)
        inbound = [
            (peer, name, up.name)
            for peer, psv in self._services.items()
            for name, up in psv.used.items()
            if up.provider_instance == instance_name
        ]
        # Record provider port name used for each inbound edge: the port
        # object identity maps back to a provided-port name.
        inbound_ports = []
        for peer, uses_name, _ in inbound:
            up = self._services[peer].used[uses_name]
            pname = next(
                (p.name for p in old_sv.provided.values() if p.impl is up.impl), None
            )
            if pname is None:
                raise RuntimeError(
                    f"cannot trace provided port for {peer}.{uses_name}; "
                    "was it connected outside the framework?"
                )
            inbound_ports.append((peer, uses_name, pname))
        outbound = [
            (up.name, up.provider_instance, up.impl)
            for up in old_sv.used.values()
            if up.impl is not None
        ]
        self.destroy(instance_name)
        comp = self.create(instance_name, new_cls, **kwargs)
        new_sv = self.services_of(instance_name)
        for uses_name, provider_instance, impl in outbound:
            if uses_name in new_sv.used:
                new_sv._bind(uses_name, impl, provider_instance)
        for peer, uses_name, pname in inbound_ports:
            self.connect(peer, uses_name, instance_name, pname)
        return comp

    # ------------------------------------------------------------ wiring
    def wiring_diagram(self) -> nx.MultiDiGraph:
        """Directed multigraph: user --(uses port name)--> provider."""
        import networkx as nx

        g = nx.MultiDiGraph()
        for name, comp in self._components.items():
            g.add_node(name, component_class=type(comp).__name__,
                       functionality=type(comp).FUNCTIONALITY)
        for name, sv in self._services.items():
            for up in sv.used.values():
                if up.provider_instance is not None:
                    g.add_edge(name, up.provider_instance, port=up.name,
                               port_type=up.port_type.port_type_name())
        return g

    # ---------------------------------------------------------------- go
    def go(self, instance_name: str, provides_port: str = "go") -> int:
        """Fetch a component's GoPort and run the application."""
        port = self.provided_port(instance_name, provides_port)
        if not isinstance(port, GoPort):
            raise TypeError(f"{instance_name}.{provides_port} is not a GoPort")
        return port.go()

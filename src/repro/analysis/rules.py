"""The RA rule catalogue.

Each rule is a small AST pass over one :class:`~repro.analysis.lint.FileContext`:

========  ==================================================================
RA001     unbalanced ``Timer.start``/``stop`` bracketing on a code path
RA002     determinism escape: wall-clock or unseeded-RNG construction
          outside ``util.timebase`` / ``util.rng``
RA003     uses-port declared but never fetched, or an assembly script
          (ComponentScript) connecting instances it never instantiated
RA004     mutable default argument
RA005     bare or over-broad ``except``
RA006     MPI call inside a per-cell (nested) loop — perf smell
RA007     direct ``print`` outside reporter modules — record spans /
          metrics instead
RA008     ``pickle.dumps`` in ``repro.mpi`` outside the wire codec —
          serialize frames through :mod:`repro.mpi.codec` instead
========  ==================================================================

Rules are deliberately conservative: dynamic names (non-literal timer or
port names) opt the surrounding scope out rather than guessing.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Iterator

from repro.analysis.lint import (RA002_SANCTIONED, RA007_SANCTIONED,
                                 RA008_SANCTIONED, FileContext, Finding)


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _str_arg(call: ast.Call, index: int = 0) -> str | None:
    if len(call.args) > index and isinstance(call.args[index], ast.Constant):
        v = call.args[index].value
        if isinstance(v, str):
            return v
    return None


def _function_defs(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class Rule:
    """Base: a named check over one file."""

    code = "RA000"
    summary = ""

    def check(self, ctx: FileContext) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(self.code, str(ctx.path), getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), message)


class UnbalancedTimerRule(Rule):
    """RA001: a function starts a named timer it never stops (or vice versa).

    Scans ``<obj>.start("name")`` / ``<obj>.stop("name")`` pairs with
    literal names inside each function body; the context-manager form
    (``with profiler.timer(...)``) is always balanced and ignored.  A
    mismatch leaves a dangling TAU frame, corrupting inclusive/exclusive
    attribution for the rest of the run.
    """

    code = "RA001"
    summary = "unbalanced Timer.start/stop on a code path"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for fn in _function_defs(ctx.tree):
            starts: Counter[tuple[str, str]] = Counter()
            stops: Counter[tuple[str, str]] = Counter()
            sites: dict[tuple[str, str], ast.Call] = {}
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("start", "stop")):
                    continue
                recv = _dotted(node.func.value)
                name = _str_arg(node)
                if recv is None or name is None:
                    continue
                key = (recv, name)
                sites.setdefault(key, node)
                (starts if node.func.attr == "start" else stops)[key] += 1
            for key in set(starts) | set(stops):
                ns, np_ = starts[key], stops[key]
                if ns != np_:
                    recv, name = key
                    findings.append(self.finding(
                        ctx, sites[key],
                        f"timer {name!r} on {recv!r}: {ns} start(s) but "
                        f"{np_} stop(s) in function {fn.name!r}"))
        return findings


#: dotted call targets that read the wall clock or build an RNG directly
_RA002_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
}
#: dotted suffixes (matched against the call path's tail) for RNG factories
_RA002_SUFFIXES = ("random.default_rng", "random.seed", "random.SeedSequence")
_RA002_FROM_IMPORTS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("random", "random"), ("random", "randint"), ("random", "seed"),
    ("random", "choice"), ("random", "shuffle"), ("random", "uniform"),
}


class DeterminismEscapeRule(Rule):
    """RA002: wall-clock / RNG access outside the sanctioned helpers.

    Every timestamp must come from :mod:`repro.util.timebase` and every
    generator from :mod:`repro.util.rng`; anything else makes SCMD cohort
    ranks diverge or makes runs unreproducible.  ``time.monotonic`` is
    allowed (deadline bookkeeping, never recorded as data).
    """

    code = "RA002"
    summary = "direct wall-clock/RNG access outside util.timebase/util.rng"

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.is_sanctioned_for(RA002_SANCTIONED):
            return []
        findings: list[Finding] = []
        imports_random = False
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                if any(a.name == "random" for a in node.names):
                    imports_random = True
            elif isinstance(node, ast.ImportFrom) and node.module:
                for a in node.names:
                    if (node.module, a.name) in _RA002_FROM_IMPORTS:
                        findings.append(self.finding(
                            ctx, node,
                            f"import of {node.module}.{a.name} escapes the "
                            "seeded/virtual time discipline; use "
                            "repro.util.timebase / repro.util.rng"))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = _dotted(node.func)
            if path is None:
                continue
            hit = (path in _RA002_CALLS
                   or any(path == s or path.endswith("." + s)
                          for s in _RA002_SUFFIXES)
                   or (imports_random and path.startswith("random.")))
            if hit:
                findings.append(self.finding(
                    ctx, node,
                    f"call to {path}() outside util.timebase/util.rng; route "
                    "timestamps through now_us()/Clock and generators through "
                    "make_rng()/spawn_rngs()/rng_from_key()"))
        return findings


_SCRIPT_COMMANDS = ("instantiate ", "connect ", "go ", "disconnect ", "destroy ")


class DeadUsesPortRule(Rule):
    """RA003: a declared dependency nothing ever wires or fetches.

    Two halves: (1) a component class calls ``register_uses_port("x", ...)``
    but never ``get_port("x")`` — a dead declaration that silently passes
    ``connect`` yet is never exercised; (2) an embedded assembly script
    (ComponentScript string literal) issues ``connect``/``go`` against an
    instance name it never ``instantiate``\\ d.
    """

    code = "RA003"
    summary = "uses-port declared but never wired/fetched"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            declared: dict[str, ast.Call] = {}
            fetched: set[str] = set()
            dynamic = False
            for node in ast.walk(cls):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    continue
                if node.func.attr == "register_uses_port":
                    name = _str_arg(node)
                    if name is None:
                        dynamic = True
                    else:
                        declared.setdefault(name, node)
                elif node.func.attr == "get_port":
                    name = _str_arg(node)
                    if name is None:
                        dynamic = True
                    else:
                        fetched.add(name)
            if dynamic:
                continue
            for name, site in declared.items():
                if name not in fetched:
                    findings.append(self.finding(
                        ctx, site,
                        f"class {cls.name!r} registers uses port {name!r} "
                        "but never fetches it with get_port()"))
        findings.extend(self._check_scripts(ctx))
        return findings

    def _check_scripts(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            text = node.value
            lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
            lines = [ln for ln in lines if ln]
            if not lines or not all(
                    any(ln.startswith(c) for c in _SCRIPT_COMMANDS) for ln in lines):
                continue  # not an assembly script
            instantiated: set[str] = set()
            for ln in lines:
                toks = ln.split()
                if toks[0] == "instantiate" and len(toks) >= 3:
                    instantiated.add(toks[2])
                elif toks[0] == "connect" and len(toks) >= 4:
                    for inst in (toks[1], toks[3]):
                        if inst not in instantiated:
                            findings.append(self.finding(
                                ctx, node,
                                f"assembly script connects instance {inst!r} "
                                "that it never instantiated"))
                elif toks[0] in ("go", "destroy") and len(toks) >= 2:
                    if toks[1] not in instantiated:
                        findings.append(self.finding(
                            ctx, node,
                            f"assembly script runs {toks[0]!r} on instance "
                            f"{toks[1]!r} that it never instantiated"))
        return findings


_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}


class MutableDefaultRule(Rule):
    """RA004: mutable default argument (shared across calls — and across
    SCMD ranks composed in one process, where it becomes cross-rank state).
    """

    code = "RA004"
    summary = "mutable default argument"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for fn in _function_defs(ctx.tree):
            defaults = list(fn.args.defaults) + [
                d for d in fn.args.kw_defaults if d is not None]
            for d in defaults:
                bad = isinstance(d, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(d, ast.Call)
                    and isinstance(d.func, ast.Name)
                    and d.func.id in _MUTABLE_CALLS)
                if bad:
                    findings.append(self.finding(
                        ctx, d,
                        f"mutable default in {fn.name!r}; use None and "
                        "create inside the body (or a dataclass "
                        "default_factory)"))
        return findings


class BroadExceptRule(Rule):
    """RA005: bare ``except:``, ``except BaseException`` that does not
    re-raise, or an ``except Exception`` whose body only ``pass``\\ es.

    Swallowed exceptions hide rank failures: the cohort diverges instead
    of the job failing loudly.  A handler that bare-re-raises at its top
    level (``except ...: cleanup(); raise``) swallows nothing — it is the
    standard cleanup idiom and is never flagged, whatever it catches.
    """

    code = "RA005"
    summary = "bare/over-broad except"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._bare_reraises(node):
                continue  # cleanup-then-propagate: nothing is swallowed
            if node.type is None:
                findings.append(self.finding(
                    ctx, node, "bare 'except:' catches SystemExit/"
                    "KeyboardInterrupt; name the exception types"))
                continue
            names = []
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                d = _dotted(t)
                if d is not None:
                    names.append(d.rsplit(".", 1)[-1])
            if "BaseException" in names and not self._reraises(node):
                findings.append(self.finding(
                    ctx, node, "'except BaseException' without re-raise "
                    "swallows aborts and keyboard interrupts"))
            elif "Exception" in names and self._only_passes(node):
                findings.append(self.finding(
                    ctx, node, "'except Exception: pass' silently swallows "
                    "all errors"))
        return findings

    @staticmethod
    def _bare_reraises(handler: ast.ExceptHandler) -> bool:
        """A bare ``raise`` (no exception expression) at the handler's top
        statement level: the caught exception always propagates."""
        return any(isinstance(s, ast.Raise) and s.exc is None
                   for s in handler.body)

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(n, ast.Raise) for n in ast.walk(handler))

    @staticmethod
    def _only_passes(handler: ast.ExceptHandler) -> bool:
        return all(
            isinstance(s, ast.Pass)
            or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
            for s in handler.body)


#: SimComm operations whose per-call latency dominates when issued per cell
_COMM_METHODS = {
    "send", "recv", "isend", "irecv", "sendrecv", "probe", "iprobe",
    "barrier", "bcast", "gather", "allgather", "scatter", "alltoall",
    "reduce", "allreduce", "scan",
}


class MPIInLoopRule(Rule):
    """RA006: an MPI call lexically inside >= 2 nested loops.

    The paper's profile charges ~3 ms latency per message on the modeled
    wire; per-cell messaging turns an O(cells) sweep into O(cells) network
    round-trips.  Batch into one exchange per patch/level instead.
    """

    code = "RA006"
    summary = "MPI call inside a per-cell (nested) loop"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []

        def visit(node: ast.AST, depth: int) -> None:
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                depth += 1
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                recv = _dotted(node.func.value)
                if (depth >= 2 and node.func.attr in _COMM_METHODS
                        and recv is not None
                        and "comm" in recv.rsplit(".", 1)[-1].lower()):
                    findings.append(self.finding(
                        ctx, node,
                        f"{recv}.{node.func.attr}() inside {depth} nested "
                        "loops; hoist out and batch the exchange"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)) and depth:
                depth = 0  # a nested function body is a fresh path
            for child in ast.iter_child_nodes(node):
                visit(child, depth)

        visit(ctx.tree, 0)
        return findings


class PrintRule(Rule):
    """RA007: a direct ``print`` call outside a sanctioned reporter.

    Library code that prints bypasses every observability surface this
    repo built — the output is invisible to metrics, spans, the flight
    recorder and the live endpoints, and it corrupts machine-readable
    stdout (the JSON/markdown reporters).  Record events as spans /
    metrics on the rank's ``RankObs``; human-facing output belongs in the
    ``__main__`` CLIs and the report/loadgen modules
    (:data:`~repro.analysis.lint.RA007_SANCTIONED`).

    AST-based on purpose: only a call whose function is the bare name
    ``print`` counts — ``_fingerprint(...)`` or a ``print`` method on
    some object is not a hit, and a shadowed local ``print`` is too rare
    to special-case.
    """

    code = "RA007"
    summary = "direct print() outside reporter modules"

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.is_sanctioned_for(RA007_SANCTIONED):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                findings.append(self.finding(
                    ctx, node,
                    "print() in library code; record events as spans / "
                    "metrics, or move human output to a __main__/report "
                    "module"))
        return findings


class WirePickleRule(Rule):
    """RA008: ``pickle.dumps`` in ``repro.mpi`` outside the wire codec.

    The zero-copy wire format exists because per-frame whole-envelope
    pickling dominated the communication hot path; a stray
    ``pickle.dumps`` in the MPI layer silently reintroduces that cost
    and forks the wire format.  All frame serialization — including the
    pickle *fallback* for non-array payloads — must go through
    :mod:`repro.mpi.codec`, the one sanctioned module
    (:data:`~repro.analysis.lint.RA008_SANCTIONED`).  ``pickle.loads``
    is deliberately not flagged: decoding a foreign blob does not
    create a second wire format.
    """

    code = "RA008"
    summary = "pickle.dumps in repro.mpi outside the wire codec"

    def check(self, ctx: FileContext) -> list[Finding]:
        if "repro/mpi/" not in ctx.posix:
            return []
        if ctx.is_sanctioned_for(RA008_SANCTIONED):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and _dotted(node.func) == "pickle.dumps"):
                findings.append(self.finding(
                    ctx, node,
                    "pickle.dumps() in the MPI layer outside the codec; "
                    "serialize frames through repro.mpi.codec (encode/"
                    "encode_bytes, or pickled_size for sizing)"))
        return findings


#: the catalogue, keyed by rule code (stable ordering for reports)
RULES: dict[str, Rule] = {
    r.code: r for r in (
        UnbalancedTimerRule(), DeterminismEscapeRule(), DeadUsesPortRule(),
        MutableDefaultRule(), BroadExceptRule(), MPIInLoopRule(),
        PrintRule(), WirePickleRule(),
    )
}

"""Outside-in layer tracing: wrap each layer's entry points, record spans.

Nothing in ``src/`` is instrumented.  :func:`install` replaces a fixed set
of methods on the program's classes with timing wrappers that record a
span (name, start, end, parent, correlation id) per call while the
recorder is active and call straight through otherwise.  It must run
before the stack is built, so that methods bound at construction (the
Analyser's and the Logging Interfaces' chain subscriptions, the miners'
scheduled ``_mine_block``) are bound to the wrappers.

A span's *self time* is its duration minus the time covered by the spans
it encloses, so the self times of all spans sum to the wall time spent
inside any layer; the rest of the drive phase is the event loop itself
(``trace.unattributed_share``).  The wrappers only read the call's
arguments and never touch program state, so a traced run must replay
bit-identically to an untraced one (the harness checks the digest).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from time import perf_counter


def _id_in(payload) -> str | None:
    if isinstance(payload, dict):
        return payload.get("request_id") or payload.get("correlation_id")
    return None


def _send_id(args: tuple, kwargs: dict) -> str | None:
    """``Network.send(src, dst, kind, payload, ...)``: the payload's id."""
    return _id_in(args[4] if len(args) > 4 else kwargs.get("payload"))


def _first_arg_id(args: tuple, kwargs: dict) -> str | None:
    """The id a message, contract event, log entry or bare id carries."""
    if len(args) < 2:
        return None
    first = args[1]
    if isinstance(first, str):
        return first
    return (getattr(first, "correlation_id", None)
            or getattr(first, "request_id", None)
            or _id_in(getattr(first, "payload", None)))


#: ``(span name, module, class, methods, correlation-id extractor)``.
#: Span names are the per-layer metric prefixes; several methods may share
#: one span name when together they are the layer's entry points.
ENTRY_POINTS = (
    ("crypto.verify", "repro.crypto.signatures", "VerifyingKey", ("verify",), None),
    ("crypto.sign", "repro.crypto.signatures", "SigningKey", ("sign",), None),
    ("crypto.symmetric", "repro.crypto.symmetric", "SymmetricKey",
     ("encrypt", "decrypt"), None),
    ("simnet.send", "repro.simnet.network", "Network", ("send",), _send_id),
    ("simnet.size_bytes", "repro.simnet.network", "Message", ("size_bytes",), None),
    ("blockchain.node_receive", "repro.blockchain.node", "BlockchainNode",
     ("receive",), None),
    ("blockchain.mine", "repro.blockchain.node", "BlockchainNode",
     ("_mine_block",), None),
    ("blockchain.add_block", "repro.blockchain.chain", "Blockchain",
     ("add_block",), None),
    ("blockchain.validate_tx", "repro.blockchain.chain", "Blockchain",
     ("validate_transaction",), None),
    ("blockchain.state_copy", "repro.blockchain.contracts", "ContractEngine",
     ("dump_state", "load_state"), None),
    ("drams.probe", "repro.drams.probe", "ProbeAgent", ("observe",), _first_arg_id),
    ("drams.li", "repro.drams.logging_interface", "LoggingInterface",
     ("receive", "store_entry", "submit_tick", "_check_commits",
      "_on_contract_event"), _first_arg_id),
    ("drams.contract", "repro.drams.contract", "MonitorContract", ("invoke",), None),
    ("drams.analyser", "repro.drams.analyser", "Analyser",
     ("_on_contract_event", "sweep"), _first_arg_id),
    ("accesscontrol.pep", "repro.accesscontrol.pep", "PolicyEnforcementPoint",
     ("request_access", "receive", "_timeout"), _first_arg_id),
    ("accesscontrol.pdp", "repro.accesscontrol.pdp_service", "PdpService",
     ("receive", "_evaluate_and_reply"), _first_arg_id),
    ("xacml.evaluate", "repro.xacml.pdp", "PolicyDecisionPoint", ("evaluate",), None),
    ("lightclient.headers", "repro.lightclient.headers", "HeaderClient",
     ("sync", "receive"), None),
    ("lightclient.consumer", "repro.lightclient.consumer", "LightProbeConsumer",
     ("watch", "receive", "sweep"), _first_arg_id),
    ("lightclient.receipt_verify", "repro.lightclient.receipts", "DecisionReceipt",
     ("verify",), None),
)

#: The workload generator is a generator function: each ``next()`` on the
#: stream it returns is one span.
GENERATOR_ENTRY = ("workload.generate", "repro.workload.generator",
                   "RequestGenerator", "requests")

#: The verify wrapper also counts distinct (key, message, signature)
#: triples, the numerator of ``crypto.verify.useful_ratio``.
_VERIFY_SPAN = "crypto.verify"


class SpanRecorder:
    """In-memory span log with online self-time accounting."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: ``(name id, start, end, parent index or -1, correlation id)``.
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.verify_triples: set[int] = set()
        # Open frames: [span index, start, time covered by child spans].
        self._stack: list[list] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_time[name] = 0.0
            self.calls[name] = 0
        return self._name_ids[name]

    def enter(self, name_id: int, corr) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name_id, 0.0, 0.0, parent, corr))
        frame = [index, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        index, start, covered = frame
        self._stack.pop()
        duration = end - start
        name_id, _, _, parent, corr = self.spans[index]
        self.spans[index] = (name_id, start, end, parent, corr)
        name = self.names[name_id]
        self.self_time[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def write(self, path, origin: float) -> None:
        """Write spans as gzip JSON lines, times in µs since ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, (name_id, start, end, parent, corr) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": self.names[name_id],
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                    "parent": parent,
                    "corr": corr,
                }) + "\n")


def _wrap(recorder: SpanRecorder, name: str, fn, corr_of):
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        frame = recorder.enter(name_id, corr_of(args, kwargs) if corr_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit(frame)

    return traced


def _wrap_verify(recorder: SpanRecorder, fn):
    traced = _wrap(recorder, _VERIFY_SPAN, fn, None)

    @functools.wraps(fn)
    def verify(key, message, signature):
        if recorder.active:
            recorder.verify_triples.add(hash((key.y, message, signature.e, signature.s)))
        return traced(key, message, signature)

    return verify


def _wrap_generator(recorder: SpanRecorder, name: str, fn):
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def requests(*args, **kwargs):
        stream = fn(*args, **kwargs)
        while True:
            frame = recorder.enter(name_id, None) if recorder.active else None
            try:
                item = next(stream)
            except StopIteration:
                return
            finally:
                if frame is not None:
                    recorder.exit(frame)
            yield item

    return requests


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` for this process."""
    for name, module, cls_name, methods, corr_of in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            fn = getattr(cls, method)
            if name == _VERIFY_SPAN:
                wrapped = _wrap_verify(recorder, fn)
            else:
                wrapped = _wrap(recorder, name, fn, corr_of)
            setattr(cls, method, wrapped)
    name, module, cls_name, method = GENERATOR_ENTRY
    cls = getattr(importlib.import_module(module), cls_name)
    setattr(cls, method, _wrap_generator(recorder, name, getattr(cls, method)))

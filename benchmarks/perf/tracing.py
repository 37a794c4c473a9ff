"""Span recording around public ``repro`` callables, installed from outside.

The benchmark never edits the program to time it. A traced run replaces
a handful of public callables (``Gpu.run_epoch``,
``MemorySubsystem.request``, ``OracleSampler.sample``, ...) with thin
wrappers that record one span per call: layer name, start, end, parent
span and - on the serving side - a request id of ``connection:epoch``.
Self time (a span's duration minus the time its child spans cover) and
call counts are accumulated per layer as calls finish, so a layer whose
calls are too many to keep (memory requests) is counted without being
stored.

Spans stay in memory until :meth:`SpanLog.flush` appends them to a
per-process JSONL file; :func:`merge` folds those files into one
``<workload>.spans.jsonl`` and :func:`summarize` reads the per-layer
totals back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

#: Spans kept in memory per process before further ones are only counted.
MAX_SPANS = 1_000_000

#: Layer that wraps the oracle's fork-and-pre-execute round; engine
#: epochs run beneath it are pre-execution, not real epochs.
ORACLE = "dvfs.oracle"

#: Client sequence numbers pack the connection index above the epoch.
SEQ_CONN_STRIDE = 1_000_000


def request_id(seq: object) -> Optional[str]:
    """``connection:epoch`` for a client sequence number (see SEQ_CONN_STRIDE)."""
    if not isinstance(seq, int):
        return None
    conn, epoch = divmod(seq, SEQ_CONN_STRIDE)
    return f"{conn}:{epoch}"


class _Frame:
    __slots__ = ("name", "span_id", "start_ns", "child_ns")

    def __init__(self, name: str, span_id: int, start_ns: int) -> None:
        self.name = name
        self.span_id = span_id
        self.start_ns = start_ns
        self.child_ns = 0


class SpanLog:
    """In-memory spans plus per-layer [calls, total_ns, self_ns] totals."""

    def __init__(self, path_prefix: Union[str, Path]) -> None:
        self.path_prefix = str(path_prefix)
        self.owner_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.totals: Dict[str, List[int]] = {}
        self.dropped = 0
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._claimed = 0

    def inside(self, name: str) -> bool:
        return any(f.name == name for f in self._stack)

    def begin(self, name: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(name, self._next_id, time.perf_counter_ns())
        self._stack.append(frame)
        return frame

    def _add(self, span: list, self_ns: int, keep: bool) -> None:
        """Count ``[id, parent, name, start_ns, end_ns, rid]``; keep it if asked."""
        acc = self.totals.setdefault(span[2], [0, 0, 0])
        acc[0] += 1
        acc[1] += span[4] - span[3]
        acc[2] += self_ns
        if not keep:
            return
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
        else:
            self.spans.append(span)

    def end(self, frame: _Frame, keep: bool = True, rid: Optional[str] = None) -> None:
        end_ns = time.perf_counter_ns()
        self._stack.pop()
        duration = end_ns - frame.start_ns
        parent = 0
        if self._stack:
            self._stack[-1].child_ns += duration
            parent = self._stack[-1].span_id
        self._add([frame.span_id, parent, frame.name, frame.start_ns, end_ns, rid],
                  duration - frame.child_ns, keep)

    def record(self, name: str, start_ns: int, end_ns: int, rid: Optional[str]) -> None:
        """A span timed by the caller (requests in flight overlap, so
        they do not nest on the stack)."""
        self._next_id += 1
        self._add([self._next_id, 0, name, start_ns, end_ns, rid], end_ns - start_ns, True)

    def claim(self, rid: Optional[str]) -> None:
        """Give every span recorded since the last claim that has no
        request id yet the id ``rid`` (the server decides one request
        at a time between two reply encodes)."""
        for span in self.spans[self._claimed:]:
            if span[5] is None:
                span[5] = rid
        self._claimed = len(self.spans)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: Union[str, Callable[["SpanLog"], str]],
        keep: bool = True,
        rid_of: Optional[Callable[[tuple, object], Optional[str]]] = None,
        root: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``name`` may be a function of the log (a layer that depends on
        its caller); ``rid_of(args, result)`` extracts a request id;
        ``root`` marks the outermost callable of a worker process, which
        starts a fresh log after a fork and flushes after every call.
        """
        fn = getattr(owner, attr)
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if root and os.getpid() != log.pid:
                log._reset()  # a forked worker: drop the parent's copy
            frame = log.begin(name if isinstance(name, str) else name(log))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                log.end(frame, keep, rid_of(args, result) if rid_of else None)
                if root and log.pid != log.owner_pid and not log._stack:
                    log.flush()

        setattr(owner, attr, traced)

    def flush(self) -> Path:
        """Append everything recorded so far to this process's file."""
        path = Path(f"{self.path_prefix}.{self.pid}.part.jsonl")
        with path.open("a", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, rid in self.spans:
                fh.write(json.dumps({
                    "type": "span", "pid": self.pid, "id": span_id,
                    "parent": parent, "name": name, "start_ns": start,
                    "end_ns": end, "rid": rid,
                }) + "\n")
            for name, (calls, total, self_ns) in sorted(self.totals.items()):
                fh.write(json.dumps({
                    "type": "layer", "pid": self.pid, "name": name,
                    "calls": calls, "total_ns": total, "self_ns": self_ns,
                }) + "\n")
            if self.dropped:
                fh.write(json.dumps({"type": "dropped", "pid": self.pid,
                                     "spans": self.dropped}) + "\n")
        self.spans.clear()
        self.totals.clear()
        self.dropped = 0
        self._claimed = 0
        return path


def merge(path_prefix: Union[str, Path], out: Union[str, Path]) -> Path:
    """Concatenate every per-process part file into ``out``; remove parts."""
    prefix = Path(path_prefix)
    parts = sorted(prefix.parent.glob(prefix.name + ".*.part.jsonl"))
    out = Path(out)
    with out.open("a", encoding="utf-8") as dst:
        for part in parts:
            dst.write(part.read_text(encoding="utf-8"))
            part.unlink()
    return out


def summarize(paths: Iterable[Union[str, Path]]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, ``total_s`` and ``self_s`` summed over files."""
    out: Dict[str, Dict[str, float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if record.get("type") != "layer":
                    continue
                acc = out.setdefault(
                    record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                acc["calls"] += record["calls"]
                acc["total_s"] += record["total_ns"] / 1e9
                acc["self_s"] += record["self_ns"] / 1e9
    return out


def _engine_layer(log: SpanLog) -> str:
    return "dvfs.oracle.preexec" if log.inside(ORACLE) else "gpu.engine"


def install_simulation(log: SpanLog) -> None:
    """Wrap the simulator's layer boundaries (sweeps and prep runs)."""
    import repro.runtime.executor as executor
    import repro.workloads as workloads
    from repro.core.controller import DvfsController
    from repro.dvfs.oracle import OracleSampler
    from repro.gpu.gpu import Gpu
    from repro.gpu.memory import MemorySubsystem
    from repro.power.energy import EnergyAccountant

    log.wrap(executor, "run_task", "runtime.cell", root=True)
    log.wrap(workloads, "build_workload", "workloads.build")
    log.wrap(Gpu, "run_epoch", _engine_layer)
    log.wrap(MemorySubsystem, "request", "gpu.memory", keep=False)
    log.wrap(OracleSampler, "sample", ORACLE)
    log.wrap(DvfsController, "observe", "core.predictor")
    log.wrap(DvfsController, "decide", "core.controller")
    log.wrap(EnergyAccountant, "add_epoch", "power")


def install_service(log: SpanLog) -> None:
    """Wrap the decision service's codec and decision path."""
    import repro.runtime.wire as wire
    import repro.service.protocol as protocol
    from repro.core.controller import DvfsController
    from repro.learn.models import OnlineRLSModel

    def decoded_rid(_args: tuple, message: object) -> Optional[str]:
        return request_id(message.get("seq")) if isinstance(message, dict) else None

    def encoded_rid(args: tuple, _frame: object) -> Optional[str]:
        message = args[0] if args else None
        rid = request_id(message.get("seq")) if isinstance(message, dict) else None
        log.claim(rid)
        return rid

    log.wrap(wire, "decode_payload", "service.decode.frame", rid_of=decoded_rid)
    log.wrap(protocol, "epoch_result_from_wire", "service.decode.result")
    log.wrap(protocol, "encode_frame", "service.encode", rid_of=encoded_rid)
    log.wrap(DvfsController, "observe", "core.predictor")
    log.wrap(DvfsController, "decide", "core.controller")
    log.wrap(OnlineRLSModel, "update", "learn.model")

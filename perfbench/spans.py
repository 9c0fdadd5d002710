"""In-memory span recorder and the timing wrappers the traced run installs.

The library has no tracing of its own yet, so the traced run wraps the
public functions of each layer from outside, at the name the caller
looks up: class attributes for methods, and the importing module's
global for functions bound with ``from ... import``.  Every span has a
name, start, end, parent and request id; spans live in flat arrays
until the run ends and are then written out in one file.

A layer's self time is its span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextvars
import functools
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_perf = time.perf_counter


class Tracer:
    """Spans plus per-layer counters for one traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.rid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self.request: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_request", default=-1
        )
        self.counters: Dict[str, float] = defaultdict(float)
        # Per-request scratch for systemr.prefetch_used_frac.
        self.prefetched: set = set()
        self.prefetch_hits: set = set()
        # Request id -> index of its gateway span (replay only).
        self.gateway_span: Dict[int, int] = {}

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> Tuple[int, contextvars.Token]:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current.get())
        self.rid.append(self.request.get())
        self.end.append(0.0)
        self.start.append(_perf())
        return idx, self.current.set(idx)

    def close(self, idx: int, token: contextvars.Token) -> None:
        self.end[idx] = _perf()
        self.current.reset(token)

    def record(self, nid: int, start: float, end: float, parent: int, rid: int) -> int:
        """Append a finished span whose parent is known explicitly."""
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.rid.append(rid)
        self.start.append(start)
        self.end.append(end)
        return idx

    def current_name(self) -> Optional[str]:
        cur = self.current.get()
        return None if cur < 0 else self.names[self.name_id[cur]]

    def end_request(self) -> None:
        """Fold the request's prefetch bookkeeping into the counters."""
        self.counters["systemr.prefetched_keys"] += len(self.prefetched)
        self.counters["systemr.prefetched_used"] += len(self.prefetch_hits)
        self.prefetched = set()
        self.prefetch_hits = set()

    # -- summaries -------------------------------------------------------

    def self_ms(self) -> Dict[str, float]:
        """Total self time per span name, over spans of some request."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        rid = np.frombuffer(self.rid, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        own = (dur - child)[rid >= 0]
        totals = np.bincount(names[rid >= 0], weights=own, minlength=len(self.names))
        return {name: 1000.0 * totals[i] for i, name in enumerate(self.names)}

    def total_ms(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        return 1000.0 * float(np.sum((end - start)[names == nid]))

    def write(self, path) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.rid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _timed(tracer: Tracer, name: str, fn: Callable, post=None) -> Callable:
    """Wrap ``fn`` in a span; ``post(result, args, kwargs)`` adds counts."""
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx, token = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx, token)
        if post is not None:
            post(result, args, kwargs)
        return result

    return wrapper


class Patches:
    """Attribute replacements that :meth:`undo` puts back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner, attr: str, name: str, post=None) -> None:
        self.set(owner, attr, _timed(tracer, name, owner.__dict__[attr], post))

    def undo(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _count(tracer: Tracer, key: str, measure=None):
    counters = tracer.counters

    def post(result, args, kwargs):
        counters[key] += 1 if measure is None else measure(result, args, kwargs)

    return post


def install_optimizer(tracer: Tracer) -> Patches:
    """Wrap the in-process optimizer layers (facade down to the kernel)."""
    import repro
    from repro.core import context as context_mod
    from repro.optimizer import costers as costers_mod
    from repro.optimizer import facade as facade_mod
    from repro.optimizer import systemr as systemr_mod
    from repro.optimizer import topk as topk_mod
    from repro.plans import space as space_mod

    p = Patches()
    t = tracer
    c = tracer.counters

    traced_optimize = _timed(t, "facade", facade_mod.optimize)
    p.set(facade_mod, "optimize", traced_optimize)
    p.set(repro, "optimize", traced_optimize)

    p.wrap(t, systemr_mod.SystemRDP, "optimize", "systemr")
    p.wrap(t, context_mod.OptimizationContext, "size_distribution",
           "context.size_distribution", _count(t, "context.size_distribution.calls"))

    space = space_mod.PlanSpace
    p.wrap(t, space, "partitions", "space.partitions",
           _count(t, "space.partitions.yielded", lambda r, a, k: len(r)))
    p.wrap(t, space, "join", "space.join", _count(t, "space.join.calls"))
    p.wrap(t, space, "level_candidates", "space.level_candidates")

    # merge_top_combinations keeps its own TopKList; its offers are part of
    # the merge, so only offers made outside a merge span count as offers.
    merge_name = "topk.merge"
    raw_offer = topk_mod.TopKList.__dict__["offer"]
    offer_id = t.intern("topk.offer")

    @functools.wraps(raw_offer)
    def offer(self, cost, item):
        if t.current_name() == merge_name:
            return raw_offer(self, cost, item)
        idx, token = t.open(offer_id)
        try:
            kept = raw_offer(self, cost, item)
        finally:
            t.close(idx, token)
        c["topk.offer.calls"] += 1
        c["topk.offer.kept"] += kept
        return kept

    p.set(topk_mod.TopKList, "offer", offer)
    p.wrap(t, systemr_mod, "merge_top_combinations", merge_name,
           _count(t, "topk.merge.probes", lambda r, a, k: r.probes))

    for cls in (costers_mod.Coster, *costers_mod.Coster.__subclasses__()):
        if "join_step_cost" in cls.__dict__ and not getattr(
            cls.__dict__["join_step_cost"], "__isabstractmethod__", False
        ):
            p.set(cls, "join_step_cost", _traced_step(t, cls.__dict__["join_step_cost"]))
        if "prefetch_join_steps" in cls.__dict__:
            p.set(cls, "prefetch_join_steps",
                  _traced_prefetch(t, cls.__dict__["prefetch_join_steps"]))
        if "write_cost" in cls.__dict__ and not getattr(
            cls.__dict__["write_cost"], "__isabstractmethod__", False
        ):
            p.wrap(t, cls, "write_cost", "costers.write_cost")

    p.wrap(t, costers_mod, "_expected_join_rows", "kernel.batched",
           _count(t, "kernel.batched.rows", lambda r, a, k: len(r)))
    p.wrap(t, context_mod, "expected_join_costs_batched_parallel", "kernel.batched",
           _count(t, "kernel.batched.rows", lambda r, a, k: len(r)))
    return p


def _traced_step(t: Tracer, raw: Callable) -> Callable:
    nid = t.intern("costers.join_step_cost")
    c = t.counters

    @functools.wraps(raw)
    def join_step_cost(self, method, left_rels, right_rels, phase,
                       left_presorted=False, right_presorted=False):
        if t.prefetched:
            key = self._join_step_key(
                method, left_rels, right_rels, phase, left_presorted, right_presorted
            )
            if key in t.prefetched:
                t.prefetch_hits.add(key)
        idx, token = t.open(nid)
        try:
            return raw(self, method, left_rels, right_rels, phase,
                       left_presorted, right_presorted)
        finally:
            t.close(idx, token)
            c["costers.join_step_cost.calls"] += 1

    return join_step_cost


def _traced_prefetch(t: Tracer, raw: Callable) -> Callable:
    nid = t.intern("costers.prefetch_join_steps")
    c = t.counters

    @functools.wraps(raw)
    def prefetch_join_steps(self, requests, pool=None):
        ctx = self.context
        keys = {self._join_step_key(*req) for req in requests}
        pending = {k for k in keys if not ctx.has_step_cost(k)}
        idx, token = t.open(nid)
        try:
            result = raw(self, requests, pool)
        finally:
            t.close(idx, token)
        c["costers.prefetch_join_steps.rows"] += len(requests)
        t.prefetched.update(k for k in pending if ctx.has_step_cost(k))
        return result

    return prefetch_join_steps


def install_gateway(tracer: Tracer) -> Patches:
    """Wrap the gateway-side wire layers where ``cluster.gateway`` binds them.

    Must run before the gateway starts: each shard's read loop builds its
    frame decoder when the shard is spawned.
    """
    from repro.cluster import gateway as gateway_mod

    p = Patches()
    t = tracer
    c = tracer.counters
    # gateway request id -> (benchmark request id, gateway span index)
    owners: Dict[int, Tuple[int, int]] = {}

    gw_id = t.intern("gateway")
    raw_gw_optimize = gateway_mod.ClusterGateway.__dict__["optimize"]

    @functools.wraps(raw_gw_optimize)
    async def optimize(self, request=None, **kwargs):
        idx, token = t.open(gw_id)
        t.gateway_span[t.request.get()] = idx
        try:
            return await raw_gw_optimize(self, request, **kwargs)
        finally:
            t.close(idx, token)

    p.set(gateway_mod.ClusterGateway, "optimize", optimize)

    p.wrap(t, gateway_mod, "query_to_dict", "serialize.query_to_dict")

    raw_encode = gateway_mod.__dict__["encode_frame"]
    enc_id = t.intern("protocol.encode")

    @functools.wraps(raw_encode)
    def encode_frame(message):
        rid = t.request.get()
        idx, token = t.open(enc_id)
        try:
            frame = raw_encode(message)
        finally:
            t.close(idx, token)
        if rid >= 0:
            c["protocol.bytes"] += len(frame)
            if message.get("type") == "optimize":
                owners[int(message["id"])] = (rid, t.parent[idx])
        return frame

    p.set(gateway_mod, "encode_frame", encode_frame)

    raw_decoder = gateway_mod.__dict__["FrameDecoder"]
    dec_id = t.intern("protocol.decode")

    class TracedFrameDecoder(raw_decoder):
        """Decodes eagerly so one span covers the whole chunk."""

        def feed(self, data):
            start = _perf()
            messages = list(super().feed(data))
            end = _perf()
            owned = [
                owners.get(int(m["id"])) for m in messages
                if m.get("type") in ("result", "error")
            ]
            owned = [o for o in owned if o is not None]
            if owned:
                c["protocol.bytes"] += len(data)
                share = (end - start) / len(owned)
                for i, (rid, parent) in enumerate(owned):
                    t.record(dec_id, start + i * share, start + (i + 1) * share,
                             parent, rid)
            return iter(messages)

    p.set(gateway_mod, "FrameDecoder", TracedFrameDecoder)
    return p

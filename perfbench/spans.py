"""Spans recorded from outside the program, around each layer's entry.

The benchmark never edits the package: it wraps the public extension
points instead -- every entry of ``compiler.compile_stages`` and
``compiler.runner.run_stages`` in a :class:`StageProxy`, and the
compile and embedding caches in subclasses that time ``get`` and
``put``.  Spans live in memory (one list per run) and are reduced to
per-layer self times when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.core.cache import CompilationCache, EmbeddingCache
from repro.core.pipeline import Stage

#: Stage name -> layer (module) it runs in.  A stage missing here still
#: gets a span, under ``stage.<name>``.
STAGE_LAYERS = {
    "elaborate": "hdl.elaborate",
    "optimize": "synth.optimize",
    "techmap": "synth.techmap",
    "unroll": "synth.unroll",
    "emit_edif": "edif.emit",
    "edif_roundtrip": "edif.roundtrip",
    "translate_qmasm": "edif2qmasm.translate",
    "assemble": "qmasm.assemble",
    "roof_duality": "ising.roof_duality",
    "find_embedding": "hardware.find_embedding",
    "scale_to_hardware": "hardware.scale",
    "sample": "solvers.sample",
    "unembed": "qmasm.unembed",
    "postprocess": "qmasm.postprocess",
    "corrupt_reads": "core.faults.corrupt_reads",
    "certify": "qmasm.certify",
    "repair": "qmasm.repair",
}


@dataclass
class Span:
    name: str
    op: Optional[int]
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span list; spans opened inside another are its children."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover.

        One thread records every span and children nest strictly inside
        their parent, so the children's durations add up without overlap.
        """
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own


class StageProxy(Stage):
    """Delegates to a pipeline stage and records a span around its work."""

    def __init__(self, inner: Stage, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.deadline_policy = getattr(inner, "deadline_policy", "abort")
        self.layer = STAGE_LAYERS.get(inner.name, f"stage.{inner.name}")

    def skip(self, artifact: Any, context: Any) -> bool:
        with self.tracer.span(self.layer):
            return self.inner.skip(artifact, context)

    def run(self, artifact: Any, context: Any) -> Any:
        with self.tracer.span(self.layer) as span:
            artifact = self.inner.run(artifact, context)
            if self.name == "find_embedding":
                span.attrs["cache"] = artifact.info.get("embedding_cache")
            elif self.name == "sample":
                info = artifact.sampleset.info
                span.attrs["read_sweeps"] = info.get("num_sweeps", 0) * info.get(
                    "num_reads", 0
                )
            return artifact

    def counters(self, artifact: Any, context: Any) -> Dict[str, float]:
        with self.tracer.span(self.layer):
            return self.inner.counters(artifact, context)


def install(compiler: Any, tracer: Tracer) -> None:
    """Wrap every compile and run stage of ``compiler`` in a proxy."""
    compiler.compile_stages = [StageProxy(s, tracer) for s in compiler.compile_stages]
    runner = compiler.runner
    runner.run_stages = [StageProxy(s, tracer) for s in runner.run_stages]


class _TimedCache:
    """Mixin: a span around every ``get`` and ``put``, tagged hit or miss."""

    layer = "core.cache"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        #: Spans go here while set; None records nothing.
        self.tracer: Optional[Tracer] = None

    def get(self, key: str) -> Optional[Any]:
        if self.tracer is None:
            return super().get(key)
        with self.tracer.span(self.layer + "_get") as span:
            value = super().get(key)
            span.attrs["hit"] = value is not None
            return value

    def put(self, key: str, value: Any) -> None:
        if self.tracer is None:
            return super().put(key, value)
        with self.tracer.span(self.layer + "_put"):
            super().put(key, value)


class TimedCompilationCache(_TimedCache, CompilationCache):
    layer = "core.cache.compile"


class TimedEmbeddingCache(_TimedCache, EmbeddingCache):
    layer = "core.cache.embedding"

"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces module attributes of the installed package with
wrappers for the duration of a ``with tracer.installed():`` block and
restores them afterwards, so no file of the package changes.  Calls made
through the rebound names (``fuzzysumm.cli.evaluate`` from ``run_query``,
``fuzzysumm.query.search`` from ``evaluate``, ...) are recorded; calls
bound at import time elsewhere are not.

A span is (name, start, end, parent, request).  ``parent`` is the index of
the enclosing span, ``request`` the id of the benchmark operation (one
build, one query) that caused it.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict


def _wrap_points():
    """(owner, attribute, span name, is_static, counter) for every boundary.

    ``counter(args, result)`` returns the counts recorded on the span.
    """
    from fuzzysumm import cli, clustering, query, repair, summary

    def n_concepts(args, result):
        return {"concepts": len(result)}

    def n_covers(args, result):
        return {"covers": len(result.covers)}

    def n_edges(args, result):
        return {"edges": sum(len(kids) for kids in result.children.values())}

    def fcm_iters(args, result):
        return {"fcm_iters": len(result[1].objective_trace)}

    def search_counts(args, result):
        return {"visited": len(result.trace), "pruned": len(result.pruned)}

    def repair_counts(args, result):
        return {"failure_nodes": len(result.failure_nodes), "kept": len(result.substitutions)}

    def saved_bytes(args, result):
        return {"state_bytes": os.path.getsize(args[1])}

    return [
        (cli, "load_dataset_csv", "clustering.load_csv", False, None),
        (cli, "dataset_to_context", "clustering.context", False, None),
        (clustering, "cluster_attribute", "clustering.cluster_attribute", False, fcm_iters),
        (cli, "enumerate_concepts", "lattice.enumerate", False, n_concepts),
        (cli, "build_lattice", "lattice.covers", False, n_covers),
        (cli, "build_hierarchy", "summary.hierarchy", False, n_edges),
        (summary.SummaryHierarchy, "from_dict", "summary.from_dict", True, None),
        (cli.ProjectState, "save", "cli.save", False, saved_bytes),
        (cli.ProjectState, "load", "cli.load", True, None),
        (cli, "parse_query", "fsql.parse", False, None),
        (cli, "evaluate", "query.evaluate", False, None),
        (query, "search", "query.search", False, search_counts),
        (query, "top_k", "query.rank", False, None),
        (query, "satisfaction_degrees", "query.sd", False, None),
        (cli, "repair", "repair.repair", False, repair_counts),
        (repair, "detect_failures", "repair.detect", False, None),
        (repair, "propose_substitutions", "repair.propose", False, None),
        (repair, "evaluate", "repair.evaluate", False, None),
    ]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._request = None

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "request": self._request,
            }
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers into the package; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, static, counter in _wrap_points():
                original = owner.__dict__[attr]
                fn = original.__func__ if static else original
                wrapped = self._wrap(name, fn, counter)
                setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def request(self, request_id: str, name: str):
        """Root span of one benchmark operation; its children share the id."""
        self._request = request_id
        try:
            yield self._wrap(name, lambda fn, *a, **kw: fn(*a, **kw), None)
        finally:
            self._request = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    # -- analysis ------------------------------------------------------------

    def _self_time(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        out = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                out[span["parent"]] -= span["end"] - span["start"]
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds of own work per layer (the span-name prefix)."""
        out = defaultdict(float)
        for span, own in zip(self.spans, self._self_time()):
            out[span["name"].split(".", 1)[0]] += own
        return dict(out)

    def per_request(self, prefix: str) -> list[dict]:
        """For each request whose id starts with prefix: span name -> summed
        seconds, "<name>#self" -> summed self seconds, "<name>#calls" ->
        calls, and "<name>#<count>" -> summed counts."""
        rows: dict[str, dict] = {}
        for span, own in zip(self.spans, self._self_time()):
            rid = span["request"]
            if rid is None or not rid.startswith(prefix):
                continue
            row = rows.setdefault(rid, defaultdict(float))
            name = span["name"]
            row[name] += span["end"] - span["start"]
            row[name + "#self"] += own
            row[name + "#calls"] += 1
            for key, value in span.items():
                if key not in ("name", "start", "end", "parent", "request", "error"):
                    row[name + "#" + key] += value
        return list(rows.values())

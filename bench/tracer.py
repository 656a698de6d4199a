"""Spans around calls into fockwitness's public functions, from outside it.

A Tracer replaces each traced function on the name its callers resolve: a
module attribute (`specfun.hypergeometric_pfq`, `states.moment`, ...), the
`MomentTable.get` method on the class, the specfun names `witnesses` binds
with `from .specfun import ...`, and the suite table `verify` dispatches
through. Each call records a span (name, start, end, parent span) in flat
arrays kept in memory; `restore()` puts every original back.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from operator import attrgetter

from fockwitness import cli, oracle, specfun, states, sweep_report, verify, witnesses

ROOT = -1

# What a traced call's result contributes to the layer metrics.
_CUTOFF = attrgetter("cutoff")
_CHECKS = attrgetter("checks")


def _csv_bytes(text: str) -> int:
    return len(text.encode())


def _targets():
    """(owner, key, span name, result hook) for every traced function."""
    targets = [
        (specfun, "hypergeometric_pfq", "specfun.hypergeometric_pfq", None),
        (specfun, "factorial_ratio", "specfun.factorial_ratio", None),
        (states, "moment", "states.moment", None),
        (states.MomentTable, "get", "states.MomentTable.get", None),
        (states, "husimi", "states.husimi", None),
        (states, "photon_prob", "states.photon_prob", None),
        (states, "normalization_past_thermal", "states.normalization", None),
        (states, "normalization_psat_thermal", "states.normalization", None),
        (witnesses, "evaluate_witness", "witnesses.evaluate_witness", None),
        (oracle, "build_truncated", "oracle.build_truncated", _CUTOFF),
        (oracle, "oracle_moment", "oracle.oracle_moment", None),
        (oracle, "oracle_husimi", "oracle.oracle_husimi", None),
        (oracle, "oracle_photon_prob", "oracle.oracle_photon_prob", None),
        (sweep_report, "sweep", "sweep_report.sweep", None),
        (sweep_report, "husimi_grid", "sweep_report.husimi_grid", None),
        (sweep_report, "panel_csv", "sweep_report.panel_csv", _csv_bytes),
        (sweep_report, "write_figure_pack", "sweep_report.write_figure_pack", None),
        (cli, "main", "cli.main", None),
    ]
    for name, obj in sorted(vars(witnesses).items()):
        if callable(obj) and not isinstance(obj, type) and obj.__module__ == specfun.__name__:
            targets.append((witnesses, name, f"specfun.{name}", None))
    for suite in verify.SUITE_NAMES:
        targets.append((verify._SUITES, suite, f"verify.{suite}", _CHECKS))
    return targets


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def installed_wrappers() -> list[str]:
    """Names in the traced namespaces that still hold a Tracer wrapper."""
    namespaces = [vars(m) for m in (cli, oracle, specfun, states, sweep_report, verify, witnesses)]
    namespaces += [vars(states.MomentTable), verify._SUITES]
    return sorted(key for ns in namespaces for key, obj in ns.items() if hasattr(obj, "_span_name"))


class Tracer:
    """Records spans while installed; one Tracer per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: dict[int, str] = {}
        self.results: dict[int, float] = {}
        self._stack = [ROOT]
        self._saved = []

    def _wrap(self, fn, name, hook):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, raised, results = self._stack, self.raised, self.results
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                raised[idx] = type(exc).__name__
                raise
            end[idx] = clock()
            stack.pop()
            if hook is not None:
                results[idx] = hook(result)
            return result

        wrapper._span_name = name
        return wrapper

    def install(self) -> None:
        for owner, key, name, hook in _targets():
            original = _get(owner, key)
            self._saved.append((owner, key, original))
            _set(owner, key, self._wrap(original, name, hook))

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        self_time = list(own)
        for idx, par in enumerate(self.parent):
            if par != ROOT:
                self_time[par] -= own[idx]
        return self_time

    def _has_ancestor(self, idx: int, name_id: int) -> bool:
        idx = self.parent[idx]
        while idx != ROOT:
            if self.span_name[idx] == name_id:
                return True
            idx = self.parent[idx]
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded so far."""
        spans = {name: [] for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for idx, own in enumerate(self.self_times()):
            name = self.names[self.span_name[idx]]
            spans[name].append(idx)
            self_s[name] += own

        def calls(name):
            return len(spans[name])

        def results(name):
            return [self.results[i] for i in spans[name] if i in self.results]

        get_id = self._name_ids["states.MomentTable.get"]
        misses = sum(
            1 for i in spans["states.moment"] + spans["oracle.oracle_moment"]
            if self.parent[i] != ROOT and self.span_name[self.parent[i]] == get_id
        )
        gets = calls("states.MomentTable.get")
        sweep_id = self._name_ids["sweep_report.sweep"]
        gaps = sum(
            1 for i in spans["witnesses.evaluate_witness"]
            if self.raised.get(i) in ("DegenerateState", "SingularDenominator")
            and self._has_ancestor(i, sweep_id)
        )
        cutoffs = results("oracle.build_truncated")

        m = {}
        for name in ("specfun.hypergeometric_pfq", "states.moment", "states.husimi",
                     "states.photon_prob", "witnesses.evaluate_witness",
                     "oracle.build_truncated", "oracle.oracle_moment",
                     "oracle.oracle_husimi", "oracle.oracle_photon_prob"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s[name]
        m["specfun.factorial_ratio.calls"] = calls("specfun.factorial_ratio")
        m["states.MomentTable.get.calls"] = gets
        m["states.MomentTable.hit_ratio"] = 1.0 - misses / gets if gets else 0.0
        m["states.normalization.calls"] = calls("states.normalization")
        m["witnesses.nan_gaps"] = gaps
        m["oracle.cutoff.max"] = max(cutoffs, default=0)
        m["oracle.cutoff.mean"] = sum(cutoffs) / len(cutoffs) if cutoffs else 0.0
        for name in ("sweep", "husimi_grid", "panel_csv", "write_figure_pack"):
            m[f"sweep_report.{name}.self_s"] = self_s[f"sweep_report.{name}"]
        m["sweep_report.csv_bytes"] = sum(results("sweep_report.panel_csv"))
        for suite in verify.SUITE_NAMES:
            name = f"verify.{suite}"
            m[f"{name}.s"] = sum((self.end[i] - self.start[i] for i in spans[name]), 0.0)
            m[f"{name}.checks"] = sum(results(name))
        m["cli.main.self_s"] = self_s["cli.main"]
        return m

    def write(self, path: str) -> None:
        """One line per span: index, parent, name, start and end in seconds."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for idx in range(len(self.span_name)):
                fh.write(
                    f"{idx}\t{self.parent[idx]}\t{self.names[self.span_name[idx]]}\t"
                    f"{self.start[idx] - origin:.9f}\t{self.end[idx] - origin:.9f}\n"
                )

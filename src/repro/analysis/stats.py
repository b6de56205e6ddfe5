"""The unified statistics registry.

Every timing component of the model — caches, TLBs, DRAM channels,
RCaches, BCUs, shader cores — keeps simple counter dataclasses.  Before
this registry existed each consumer hand-aggregated them
(``sum(c.l1d.stats.hits for c in gpu.cores)``, ``shield.l1_hit_rate()``,
…), so every new figure or bench re-invented the walk.  The registry
gives them one query surface:

* components are *registered* once under a hierarchical dotted path
  (``cores.0.l1d``, ``cores.0.rcache.l1``, ``l2cache``, ``dram``);
* :meth:`StatsRegistry.snapshot` flattens every registered source's
  numeric counters into one immutable :class:`StatsSnapshot`;
* snapshots answer point lookups (:meth:`~StatsSnapshot.get`), wildcard
  sums (:meth:`~StatsSnapshot.total` over ``cores.*.l1d.hits``) and the
  hit-rate idiom (:meth:`~StatsSnapshot.hit_rate`) used throughout the
  paper's figures.

Sources may be counter dataclasses (numeric attributes are harvested),
dicts, or zero-argument callables returning either.

Cross-process aggregation (the parallel runner) works on snapshots:
every worker ships ``registry.snapshot().as_dict()`` back to the
parent, which folds them together with :func:`merge_snapshots` /
:meth:`StatsRegistry.merge`.  Merging distinguishes **counters**
(monotonic totals — hits, misses, cycles — which *sum*) from **gauges**
(level-style values — capacities, high-water marks — which take the
*max*); both rules are commutative and associative, so the merged tree
is identical regardless of worker completion order.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, Union

Number = Union[int, float]
StatsSource = Union[Mapping[str, Number], Callable[[], Mapping[str, Number]],
                    object]

#: Leaf names treated as gauges by default when merging snapshots.
#: Everything else is a counter.  Callers extend the set with the
#: ``gauges=`` argument (leaf names, or full-path ``*`` patterns).
DEFAULT_GAUGES = ("capacity", "peak", "high_water", "limit")


def counters_of(source: StatsSource) -> Dict[str, Number]:
    """Extract the numeric counters a source currently holds."""
    if callable(source):
        source = source()
    if isinstance(source, Mapping):
        return {str(k): v for k, v in source.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)}
    out: Dict[str, Number] = {}
    for name, value in vars(source).items():
        if name.startswith("_"):
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = value
    return out


def _match(pattern: Tuple[str, ...], path: Tuple[str, ...]) -> bool:
    """Segment-wise glob: ``*`` matches exactly one path segment."""
    if len(pattern) != len(path):
        return False
    return all(p == "*" or p == s for p, s in zip(pattern, path))


def _is_gauge(path: str, gauges: Sequence[str]) -> bool:
    """A path is a gauge if its leaf name — or the whole dotted path,
    ``*``-wildcards allowed — appears in ``gauges``."""
    leaf = path.rsplit(".", 1)[-1]
    segs = tuple(path.split("."))
    for g in gauges:
        if "." not in g and "*" not in g:
            if g == leaf:
                return True
        elif _match(tuple(g.split(".")), segs):
            return True
    return False


class StatsSnapshot:
    """A frozen, flattened view of every registered counter."""

    def __init__(self, values: Dict[str, Number]):
        self._values = dict(values)
        # Pre-split paths once and bucket them by segment count:
        # select() runs per-figure over every counter, and a pattern
        # can only ever match paths of its own depth, so re-splitting
        # (or even scanning) the whole path set per query is waste
        # that shows up on the bench sweeps.
        self._by_len: Dict[int, List[Tuple[str, Tuple[str, ...]]]] = {}
        for path in self._values:
            segs = tuple(path.split("."))
            self._by_len.setdefault(len(segs), []).append((path, segs))

    # -- queries -----------------------------------------------------------------------

    def get(self, path: str, default: Number = 0) -> Number:
        return self._values.get(path, default)

    def __contains__(self, path: str) -> bool:
        return path in self._values

    def select(self, pattern: str) -> Dict[str, Number]:
        """All counters whose path matches the ``*``-wildcard pattern."""
        pat = pattern.split(".")
        candidates = self._by_len.get(len(pat))
        if not candidates:
            return {}
        # Only non-wildcard segments constrain the match.
        fixed = [(i, p) for i, p in enumerate(pat) if p != "*"]
        values = self._values
        return {path: values[path] for path, segs in candidates
                if all(segs[i] == p for i, p in fixed)}

    def total(self, pattern: str) -> Number:
        """Sum of every counter matching the pattern."""
        return sum(self.select(pattern).values())

    def hit_rate(self, component_pattern: str) -> float:
        """``hits / (hits + misses)`` over matching components.

        1.0 when the components were never accessed (vacuously hot) —
        the convention every cache/TLB/RCache stat here follows.
        """
        hits = self.total(component_pattern + ".hits")
        misses = self.total(component_pattern + ".misses")
        accesses = hits + misses
        if accesses == 0:
            return 1.0
        return hits / accesses

    def ratio_percent(self, num_pattern: str, den_pattern: str) -> float:
        """``100 * total(num) / total(den)``; 0.0 on an empty denominator."""
        den = self.total(den_pattern)
        if den == 0:
            return 0.0
        return 100.0 * self.total(num_pattern) / den

    # -- merging -----------------------------------------------------------------------

    def merge(self, *others: "SnapshotLike",
              gauges: Sequence[str] = DEFAULT_GAUGES) -> "StatsSnapshot":
        """A new snapshot folding ``others`` into this one.

        Colliding paths combine under the counter rule (sum) unless the
        path is a gauge per ``gauges`` (leaf names or ``*`` patterns),
        in which case the max wins.  Both rules are commutative and
        associative: any merge order yields the same snapshot.
        """
        return merge_snapshots([self, *others], gauges=gauges)

    def diff(self, other: "StatsSnapshot") -> Dict[str, Tuple[Number,
                                                              Number]]:
        """Paths whose values differ between two snapshots.

        A path missing on one side counts as 0 there (registries built
        from different component sets still compare sensibly).  The
        conformance oracle reports this alongside the first divergent
        trace event when two legs disagree.
        """
        mine = self._values
        theirs = other._values
        out: Dict[str, Tuple[Number, Number]] = {}
        for path in sorted(set(mine) | set(theirs)):
            a = mine.get(path, 0)
            b = theirs.get(path, 0)
            if a != b:
                out[path] = (a, b)
        return out

    # -- export ------------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Number]:
        return dict(self._values)

    def tree(self) -> Dict[str, object]:
        """Nest the flat paths back into a hierarchical dict."""
        root: Dict[str, object] = {}
        for path, value in sorted(self._values.items()):
            node = root
            *parents, leaf = path.split(".")
            for part in parents:
                node = node.setdefault(part, {})  # type: ignore[assignment]
            node[leaf] = value
        return root

    def render(self, title: str = "statistics") -> str:
        """Indented text rendering of the hierarchy (for reports/CLI)."""
        lines = [title, "=" * len(title)]

        def walk(node: Mapping[str, object], depth: int) -> None:
            for key, value in node.items():
                pad = "  " * depth
                if isinstance(value, Mapping):
                    lines.append(f"{pad}{key}:")
                    walk(value, depth + 1)
                elif isinstance(value, float):
                    lines.append(f"{pad}{key}: {value:.4f}")
                else:
                    lines.append(f"{pad}{key}: {value}")

        walk(self.tree(), 0)
        return "\n".join(lines)


SnapshotLike = Union[StatsSnapshot, Mapping[str, Number]]


def _values_of(snap: SnapshotLike) -> Dict[str, Number]:
    if isinstance(snap, StatsSnapshot):
        return snap.as_dict()
    return {str(k): v for k, v in snap.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def merge_snapshots(snapshots: Iterable[SnapshotLike],
                    gauges: Sequence[str] = DEFAULT_GAUGES) -> StatsSnapshot:
    """Fold many snapshots (or flat path->value dicts) into one.

    Counters sum; gauges (matched by leaf name or ``*`` path pattern)
    take the max.  The result is independent of input order — the
    property the parallel runner relies on to aggregate per-worker
    statistics deterministically regardless of completion order.
    """
    merged: Dict[str, Number] = {}
    for snap in snapshots:
        for path, value in _values_of(snap).items():
            if path not in merged:
                merged[path] = value
            elif _is_gauge(path, gauges):
                merged[path] = max(merged[path], value)
            else:
                merged[path] = merged[path] + value
    return StatsSnapshot(merged)


class StatsRegistry:
    """Maps hierarchical component paths to live counter sources."""

    def __init__(self):
        self._sources: Dict[str, StatsSource] = {}
        self._absorbed: List[Dict[str, Number]] = []
        self._gauges: Tuple[str, ...] = tuple(DEFAULT_GAUGES)

    def register(self, path: str, source: StatsSource) -> None:
        """Attach a counter source under ``path`` (replaces any previous)."""
        if not path or path.startswith(".") or path.endswith("."):
            raise ValueError(f"bad stats path {path!r}")
        self._sources[path] = source

    def unregister(self, path: str) -> None:
        self._sources.pop(path, None)

    def counters(self, path: str) -> Dict[str, Number]:
        """Create-or-get a mutable counter dict registered at ``path``.

        For components (campaign runners, host-side tools) that have no
        counter dataclass of their own: callers bump keys in the returned
        dict and the next :meth:`snapshot` picks them up live.  Raises if
        ``path`` is already taken by a non-dict source.
        """
        source = self._sources.get(path)
        if source is None:
            source = {}
            self.register(path, source)
        if not isinstance(source, dict):
            raise ValueError(
                f"stats path {path!r} is already registered with a "
                f"non-dict source")
        return source

    def live(self) -> Dict[str, object]:
        """Each path's source as it reads now: what a callable source
        returns, any other source itself (whose counters
        :func:`counters_of` harvests and a caller may bump in place)."""
        return {path: source() if callable(source) else source
                for path, source in self._sources.items()}

    def paths(self) -> List[str]:
        return sorted(self._sources)

    def reset(self) -> None:
        """Zero every registered counter **without dropping registrations**.

        Components such as :class:`~repro.gpu.fastpath.FastMemoryPipeline`
        bind stats objects once at construction, so rebuilding the
        registry (or swapping sources) would silently disconnect them.
        Reset therefore mutates in place:

        * dict sources keep their identity — existing keys are zeroed;
        * objects exposing ``reset()`` delegate to it;
        * other objects have their public numeric attributes zeroed;
        * callable sources are *views* over live components (the BCU's
          swap-on-reset stats, the shield log length) and are skipped —
          resetting the underlying component resets the view.

        Absorbed external snapshots are dropped and the gauge patterns
        return to the defaults.
        """
        for source in self._sources.values():
            if isinstance(source, Mapping):
                for key in source:
                    source[key] = 0   # type: ignore[index]
            elif callable(source):
                continue
            elif callable(getattr(source, "reset", None)):
                source.reset()   # type: ignore[union-attr]
            else:
                for name, value in vars(source).items():
                    if name.startswith("_") or isinstance(value, bool):
                        continue
                    if isinstance(value, int):
                        setattr(source, name, 0)
                    elif isinstance(value, float):
                        setattr(source, name, 0.0)
        self._absorbed.clear()
        self._gauges = tuple(DEFAULT_GAUGES)

    def merge(self, snapshot: SnapshotLike,
              gauges: Sequence[str] = ()) -> None:
        """Absorb an external snapshot (e.g. shipped from a worker
        process) so subsequent :meth:`snapshot` calls include it.

        Absorbed values combine with live sources and with each other
        under the counter/gauge collision rules of
        :func:`merge_snapshots`; extra gauge patterns accumulate across
        calls.
        """
        self._gauges = tuple(dict.fromkeys(self._gauges + tuple(gauges)))
        self._absorbed.append(_values_of(snapshot))

    def snapshot(self) -> StatsSnapshot:
        """Flatten every registered source's counters, read live."""
        values: Dict[str, Number] = {}
        for path, source in self._sources.items():
            for name, value in counters_of(source).items():
                values[f"{path}.{name}"] = value
        if not self._absorbed:
            return StatsSnapshot(values)
        return merge_snapshots([values, *self._absorbed],
                               gauges=self._gauges)

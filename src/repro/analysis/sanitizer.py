"""dgfsan: the runtime schedule sanitizer.

Static rules (``repro/analysis/rules.py``) catch *syntactic* determinism
hazards; this module catches the *semantic* ones the batched kernel made
possible: workload code whose outcome silently depends on the arbitrary
eid tie-break between events that share a timestamp.

Two cooperating modes, both driven through kernel hooks
(:meth:`~repro.sim.kernel.Environment` dispatches via
``_step_batch_sanitized`` while a sanitizer is attached):

* **Race detection** (always on while attached): shared containers on
  registered subsystem objects are replaced with tracked proxies
  (:meth:`ScheduleSanitizer.track_object`); during one same-timestamp
  batch the sanitizer records which dispatch read/wrote which state and
  reports a :class:`ScheduleRace` for every conflicting pair that has no
  contracted ordering — neither event (transitively) scheduled the
  other, and both run at the same priority. Commutative accumulation
  (``list.append``, ``set.add``) only conflicts with reads and with
  non-commuting writes, so order-insensitive aggregation stays quiet.

* **Schedule permutation** (``SanitizeConfig(permute=True)``): the
  dispatcher re-orders *legal* same-timestamp schedules — priority
  classes stay separate, an event never runs before the event that
  scheduled it — and the caller diffs a canonical run signature against
  the baseline. :func:`prove_order_independence` drives the full
  protocol: prove order-independence, or refute it with a minimized
  :class:`PermutationWitness` (the first divergent batch, in both
  orders).

Approximations, documented so reports are readable: accesses through C
code that bypasses method dispatch (``heapq`` on a tracked list,
``list += ...``) are not seen; events at *different* priorities are
treated as ordered even though an interrupt raised by a permutable
normal event is itself permutable. Permutation mode is the ground truth
the race detector approximates.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import AnalysisError
from repro.sim.rng import RandomStreams

__all__ = [
    "SanitizeConfig", "ScheduleRace", "ScheduleSanitizer",
    "PermutationWitness", "PermutationProof", "prove_order_independence",
    "signature_digest",
]

#: Orders the permuted dispatcher understands. ``reverse`` is the
#: deterministic adversary (always pick the *last* ready event — any
#: two-sibling order dependence flips); ``random`` explores seeded
#: shuffles of larger pools.
_ORDERS = ("reverse", "random")


@dataclass(frozen=True)
class SanitizeConfig:
    """Knobs for one sanitized run.

    ``permute=False`` (the default) reproduces the kernel's normal
    dispatch order exactly — bit-identical trajectories, races reported
    on the side. ``max_permuted_batches``/``record_choice_batch`` are
    the witness-minimization hooks :func:`prove_order_independence`
    uses; workloads rarely set them directly.
    """

    permute: bool = False
    order: str = "reverse"
    permute_seed: int = 0
    #: Permute only the first N choice batches (batches where the ready
    #: pool actually offered a choice); None = no limit. Limit 0 with
    #: permute=True is the baseline schedule with choice counting on.
    max_permuted_batches: Optional[int] = None
    #: Record the dispatch order (and races) of choice batch N, for
    #: witness extraction.
    record_choice_batch: Optional[int] = None
    #: Keep at most this many distinct race records (the total is still
    #: counted past the cap).
    max_races: int = 50
    #: Per-container, per-batch access-list cap: conflict checking is
    #: pairwise, so this bounds the quadratic term.
    max_accesses_per_state: int = 128

    def __post_init__(self) -> None:
        if self.order not in _ORDERS:
            raise AnalysisError(
                f"unknown permutation order {self.order!r} "
                f"(expected one of {', '.join(_ORDERS)})")


@dataclass(frozen=True)
class ScheduleRace:
    """Two same-timestamp events touched the same state, unordered.

    A race is a *report*, not an error: it means the outcome legally
    depends on the kernel's arbitrary eid tie-break. Whether that
    dependence reaches an observable result is what permutation mode
    answers.
    """

    time: float
    state: str
    item: Optional[str]
    a_label: str
    a_kind: str
    b_label: str
    b_kind: str

    @property
    def kind_pair(self) -> str:
        """Telemetry-friendly conflict class, e.g. ``read-write``."""
        return "-".join(sorted((self.a_kind, self.b_kind)))

    def to_dict(self) -> dict:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {"time": self.time, "state": self.state, "item": self.item,
                "a": {"label": self.a_label, "kind": self.a_kind},
                "b": {"label": self.b_label, "kind": self.b_kind}}

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleRace":
        return cls(time=float(data["time"]), state=data["state"],
                   item=data.get("item"),
                   a_label=data["a"]["label"], a_kind=data["a"]["kind"],
                   b_label=data["b"]["label"], b_kind=data["b"]["kind"])


# --------------------------------------------------------------------------
# Tracked containers
# --------------------------------------------------------------------------
#
# Exact-type subclasses so wrapped state keeps behaving like the plain
# container everywhere (json, dict(), iteration, pickling via
# __reduce__). Each mutator/reader notifies the owning sanitizer, which
# ignores the notification unless a batch dispatch is in flight.


def _item_key(key: Any) -> str:
    """A label for one dict/set element: ``repr`` for scalars and
    tuples, sorted element reprs for sets (their own order follows string
    hashes, which differ between processes), else ``type@id``, which
    holds only within one process."""
    if isinstance(key, (set, frozenset)):
        items = ", ".join(sorted(map(repr, key)))
        text = f"{type(key).__name__}({{{items}}})"
    elif key is None or isinstance(key, (str, int, float, bool, tuple)):
        text = repr(key)
    else:
        return f"{type(key).__name__}@{id(key):#x}"
    return text if len(text) <= 60 else text[:57] + "..."


class TrackedDict(dict):
    """A dict that reports per-key reads/writes to its sanitizer."""

    __slots__ = ("_san", "_label")

    def __init__(self, san: "ScheduleSanitizer", label: str, *args) -> None:
        dict.__init__(self, *args)
        self._san = san
        self._label = label

    def __reduce__(self):
        return (dict, (dict(self),))

    # reads ---------------------------------------------------------------
    def __getitem__(self, key):
        self._san.note_read(self._label, _item_key(key))
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._san.note_read(self._label, _item_key(key))
        return dict.get(self, key, default)

    def __contains__(self, key):
        self._san.note_read(self._label, _item_key(key))
        return dict.__contains__(self, key)

    def __iter__(self):
        self._san.note_read(self._label, None)
        return dict.__iter__(self)

    def __len__(self):
        self._san.note_read(self._label, None)
        return dict.__len__(self)

    def keys(self):
        self._san.note_read(self._label, None)
        return dict.keys(self)

    def values(self):
        self._san.note_read(self._label, None)
        return dict.values(self)

    def items(self):
        self._san.note_read(self._label, None)
        return dict.items(self)

    # writes --------------------------------------------------------------
    def __setitem__(self, key, value):
        self._san.note_write(self._label, _item_key(key))
        dict.__setitem__(self, key, value)

    def __delitem__(self, key):
        self._san.note_write(self._label, _item_key(key))
        dict.__delitem__(self, key)

    def pop(self, key, *default):
        self._san.note_write(self._label, _item_key(key))
        return dict.pop(self, key, *default)

    def setdefault(self, key, default=None):
        self._san.note_write(self._label, _item_key(key))
        return dict.setdefault(self, key, default)

    def popitem(self):
        self._san.note_write(self._label, None)
        return dict.popitem(self)

    def update(self, *args, **kwargs):
        self._san.note_write(self._label, None)
        dict.update(self, *args, **kwargs)

    def clear(self):
        self._san.note_write(self._label, None)
        dict.clear(self)


class TrackedList(list):
    """A list whose appends count as commutative accumulation.

    Two same-batch appends are *content*-commutative (the multiset is
    order-independent; element order is permutation mode's job), so
    ``append``/``extend`` only conflict with reads and order-sensitive
    writes.
    """

    __slots__ = ("_san", "_label")

    def __init__(self, san: "ScheduleSanitizer", label: str,
                 iterable=()) -> None:
        list.__init__(self, iterable)
        self._san = san
        self._label = label

    def __reduce__(self):
        return (list, (list(self),))

    # reads ---------------------------------------------------------------
    def __getitem__(self, index):
        self._san.note_read(self._label, None)
        return list.__getitem__(self, index)

    def __iter__(self):
        self._san.note_read(self._label, None)
        return list.__iter__(self)

    def __len__(self):
        self._san.note_read(self._label, None)
        return list.__len__(self)

    def __contains__(self, value):
        self._san.note_read(self._label, None)
        return list.__contains__(self, value)

    def index(self, *args):
        self._san.note_read(self._label, None)
        return list.index(self, *args)

    # commutative accumulation -------------------------------------------
    def append(self, value):
        self._san.note_update(self._label, None, "append")
        list.append(self, value)

    def extend(self, iterable):
        self._san.note_update(self._label, None, "append")
        list.extend(self, iterable)

    # order-sensitive writes ----------------------------------------------
    def __setitem__(self, index, value):
        self._san.note_write(self._label, None)
        list.__setitem__(self, index, value)

    def __delitem__(self, index):
        self._san.note_write(self._label, None)
        list.__delitem__(self, index)

    def insert(self, index, value):
        self._san.note_write(self._label, None)
        list.insert(self, index, value)

    def pop(self, *args):
        self._san.note_write(self._label, None)
        return list.pop(self, *args)

    def remove(self, value):
        self._san.note_write(self._label, None)
        list.remove(self, value)

    def sort(self, **kwargs):
        self._san.note_write(self._label, None)
        list.sort(self, **kwargs)

    def reverse(self):
        self._san.note_write(self._label, None)
        list.reverse(self)

    def clear(self):
        self._san.note_write(self._label, None)
        list.clear(self)


class TrackedSet(set):
    """A set with per-element commutative add/discard tracking."""

    __slots__ = ("_san", "_label")

    def __init__(self, san: "ScheduleSanitizer", label: str,
                 iterable=()) -> None:
        set.__init__(self, iterable)
        self._san = san
        self._label = label

    def __reduce__(self):
        return (set, (set(self),))

    # reads ---------------------------------------------------------------
    def __contains__(self, value):
        self._san.note_read(self._label, _item_key(value))
        return set.__contains__(self, value)

    def __iter__(self):
        self._san.note_read(self._label, None)
        return set.__iter__(self)

    def __len__(self):
        self._san.note_read(self._label, None)
        return set.__len__(self)

    # commutative per-element updates -------------------------------------
    def add(self, value):
        self._san.note_update(self._label, _item_key(value), "add")
        set.add(self, value)

    def discard(self, value):
        self._san.note_update(self._label, _item_key(value), "discard")
        set.discard(self, value)

    def remove(self, value):
        self._san.note_update(self._label, _item_key(value), "discard")
        set.remove(self, value)

    def update(self, *iterables):
        self._san.note_update(self._label, None, "add")
        set.update(self, *iterables)

    # order-sensitive writes ----------------------------------------------
    def pop(self):
        self._san.note_write(self._label, None)
        return set.pop(self)

    def clear(self):
        self._san.note_write(self._label, None)
        set.clear(self)


class TrackedDeque(deque):
    """A deque distinguishing append ends (they do not commute)."""

    __slots__ = ("_san", "_label")

    def __init__(self, san: "ScheduleSanitizer", label: str,
                 iterable=(), maxlen=None) -> None:
        deque.__init__(self, iterable, maxlen)
        self._san = san
        self._label = label

    def __reduce__(self):
        return (deque, (list(self), self.maxlen))

    # reads ---------------------------------------------------------------
    def __getitem__(self, index):
        self._san.note_read(self._label, None)
        return deque.__getitem__(self, index)

    def __iter__(self):
        self._san.note_read(self._label, None)
        return deque.__iter__(self)

    def __len__(self):
        self._san.note_read(self._label, None)
        return deque.__len__(self)

    def __contains__(self, value):
        self._san.note_read(self._label, None)
        return deque.__contains__(self, value)

    # commutative accumulation, one tag per end ---------------------------
    def append(self, value):
        self._san.note_update(self._label, None, "append")
        deque.append(self, value)

    def extend(self, iterable):
        self._san.note_update(self._label, None, "append")
        deque.extend(self, iterable)

    def appendleft(self, value):
        self._san.note_update(self._label, None, "appendleft")
        deque.appendleft(self, value)

    def extendleft(self, iterable):
        self._san.note_update(self._label, None, "appendleft")
        deque.extendleft(self, iterable)

    # order-sensitive writes ----------------------------------------------
    def popleft(self):
        self._san.note_write(self._label, None)
        return deque.popleft(self)

    def pop(self):
        self._san.note_write(self._label, None)
        return deque.pop(self)

    def remove(self, value):
        self._san.note_write(self._label, None)
        deque.remove(self, value)

    def rotate(self, n=1):
        self._san.note_write(self._label, None)
        deque.rotate(self, n)

    def clear(self):
        self._san.note_write(self._label, None)
        deque.clear(self)


class TrackedRandom(random.Random):
    """A substream whose draws count as writes on its stream label.

    Every high-level ``random.Random`` method funnels through
    :meth:`random` or :meth:`getrandbits`, so noting just those two
    covers ``uniform``/``randrange``/``expovariate``/... without
    changing a single drawn value (state is adopted via ``setstate``).
    """

    def __init__(self, san: "ScheduleSanitizer", label: str,
                 state: tuple) -> None:
        random.Random.__init__(self)
        self.setstate(state)
        self._san = san
        self._label = label

    def random(self):
        self._san.note_write(self._label, None)
        return random.Random.random(self)

    def getrandbits(self, k):
        self._san.note_write(self._label, None)
        return random.Random.getrandbits(self, k)


#: Exact container types :meth:`ScheduleSanitizer.track_object` wraps.
_WRAPPABLE = {dict: TrackedDict, list: TrackedList, set: TrackedSet,
              deque: TrackedDeque}


def _event_label(event: Any, callbacks: list) -> str:
    """Human-readable identity of one dispatch: event kind -> waiters."""
    base = type(event).__name__
    generator = getattr(event, "_generator", None)
    if generator is not None:
        name = getattr(generator, "__name__", None)
        if name:
            base = f"Process({name})"
    names = []
    for callback in callbacks:
        owner = getattr(callback, "__self__", None)
        generator = getattr(owner, "_generator", None)
        if generator is not None:
            name = getattr(generator, "__name__", None)
            if name and name not in names:
                names.append(name)
    if names:
        return f"{base}->{','.join(names)}"
    return base


_KIND_NAMES = {"r": "read", "w": "write"}


def _kind_name(kind: str) -> str:
    return _KIND_NAMES.get(kind, "update")


class ScheduleSanitizer:
    """Race detector + schedule permuter for one simulation run.

    Attach to an environment *before* running the workload::

        san = ScheduleSanitizer(SanitizeConfig())
        san.attach(env)
        san.track_object("transfers", transfer_service)
        env.run()
        for race in san.races: ...

    While attached, the kernel dispatches through
    ``_step_batch_sanitized``; with ``permute=False`` the dispatch order
    is bit-identical to the normal hot loop.
    """

    def __init__(self, config: Optional[SanitizeConfig] = None) -> None:
        self.config = config if config is not None else SanitizeConfig()
        self.env = None
        # -- run-level results --------------------------------------------
        self.races: List[ScheduleRace] = []
        #: Distinct races observed, counted past the ``max_races`` cap.
        self.races_total = 0
        self.batches = 0
        #: Batches whose ready pool offered an actual ordering choice.
        self.choice_batches = 0
        self.permuted_batches = 0
        #: States whose access list hit ``max_accesses_per_state`` (the
        #: tail was not conflict-checked — reported, never silent).
        self.truncated_states = 0
        #: Witness capture (``record_choice_batch``): dispatch labels of
        #: the recorded batch, its timestamp, and its races.
        self.recorded_batch: Optional[List[str]] = None
        self.recorded_batch_time: Optional[float] = None
        self.recorded_batch_races: List[ScheduleRace] = []
        # -- internals ----------------------------------------------------
        self._race_keys = set()
        self._wrapped_rngs: Dict[int, TrackedRandom] = {}
        if self.config.permute and self.config.order == "random":
            self._rng = RandomStreams(
                self.config.permute_seed).stream("sanitizer/permutation")
        else:
            self._rng = None
        # -- per-batch state ----------------------------------------------
        self._batch_time = 0.0
        self._labels: List[str] = []
        self._anc: List[frozenset] = []
        self._prio: List[int] = []
        self._pending: Dict[int, Tuple[frozenset, int]] = {}
        self._acc: Dict[str, List[Tuple[Optional[str], str, int]]] = {}
        self._seen_acc = set()
        self._cur: Optional[int] = None
        self._counted = False
        self._permute_this = False
        self._recording = False

    # -- lifecycle --------------------------------------------------------

    def attach(self, env) -> "ScheduleSanitizer":
        """Route ``env``'s dispatch through the sanitizer."""
        if env._sanitizer is not None:
            raise AnalysisError("environment already has a sanitizer attached")
        env._sanitizer = self
        self.env = env
        return self

    def detach(self) -> None:
        """Restore the environment's normal hot loop."""
        if self.env is not None:
            self.env._sanitizer = None
            self.env = None

    # -- state registration ------------------------------------------------

    def track_value(self, label: str, value: Any) -> Any:
        """Wrap one container in its tracked proxy (identity if unknown)."""
        wrapper = _WRAPPABLE.get(type(value))
        if wrapper is None:
            return value
        if wrapper is TrackedDeque:
            return TrackedDeque(self, label, value, value.maxlen)
        return wrapper(self, label, value)

    def track_object(self, name: str, obj: Any,
                     attrs: Optional[Tuple[str, ...]] = None) -> Any:
        """Replace ``obj``'s plain container attributes with proxies.

        Only exact-type ``dict``/``list``/``set``/``deque`` attributes
        are wrapped (subclasses carry their own semantics). ``attrs``
        narrows the sweep to specific attribute names.
        """
        try:
            items = dict(vars(obj))
        except TypeError:
            items = {}
            for cls in type(obj).__mro__:
                for attr in getattr(cls, "__slots__", ()):
                    if attr not in items and hasattr(obj, attr):
                        items[attr] = getattr(obj, attr)
        for attr, value in sorted(items.items()):
            if attrs is not None and attr not in attrs:
                continue
            if type(value) not in _WRAPPABLE:
                continue
            label = f"{name}.{attr.lstrip('_')}"
            setattr(obj, attr, self.track_value(label, value))
        return obj

    def wrap_rng(self, label: str, rng: random.Random) -> random.Random:
        """Adopt ``rng``'s state into a draw-tracking clone."""
        if isinstance(rng, TrackedRandom):
            return rng
        # The memo pins the raw rng alive: keyed by id() alone, a freed
        # rng's address can be recycled by a brand-new stream, silently
        # aliasing two streams onto one wrapper (and one state).
        entry = self._wrapped_rngs.get(id(rng))
        if entry is not None and entry[0] is rng:
            return entry[1]
        wrapped = TrackedRandom(self, label, rng.getstate())
        self._wrapped_rngs[id(rng)] = (rng, wrapped)
        return wrapped

    def track_streams(self, streams: RandomStreams,
                      prefix: str = "stream:") -> RandomStreams:
        """Make every (present and future) substream draw-tracked.

        Call this *before* subsystems pull their streams: a consumer
        that already holds a raw ``random.Random`` keeps it.
        """
        for name, rng in sorted(streams._streams.items()):
            streams._streams[name] = self.wrap_rng(prefix + name, rng)
        original = type(streams).stream
        original_spawn = type(streams).spawn
        sanitizer = self

        def stream(name: str) -> random.Random:
            rng = original(streams, name)
            if not isinstance(rng, TrackedRandom):
                rng = sanitizer.wrap_rng(prefix + name, rng)
                streams._streams[name] = rng
            return rng

        def spawn(name: str) -> RandomStreams:
            # Child families inherit tracking so per-zone recovery
            # streams (streams.spawn("recovery/<zone>")) stay visible.
            child = original_spawn(streams, name)
            return sanitizer.track_streams(child,
                                           prefix=f"{prefix}{name}/")

        streams.stream = stream
        streams.spawn = spawn
        return streams

    # -- kernel hooks ------------------------------------------------------

    def begin_batch(self, now: float, ready_urgent: list,
                    ready_normal: list) -> None:
        """One timestamp's drain is starting; seed the ready pools."""
        self.batches += 1
        self._batch_time = now
        self._labels = []
        self._anc = []
        self._prio = []
        self._pending = {}
        self._acc = {}
        self._seen_acc = set()
        self._cur = None
        self._counted = False
        self._permute_this = False
        root = frozenset()
        for event in ready_urgent:
            self._pending[id(event)] = (root, 0)
        for event in ready_normal:
            self._pending[id(event)] = (root, 1)

    def pick(self, pool: list) -> int:
        """Index of the next event to dispatch from ``pool``."""
        n = len(pool)
        if n <= 1:
            return 0
        if not self._counted:
            self._counted = True
            self.choice_batches += 1
            config = self.config
            if config.permute:
                limit = config.max_permuted_batches
                if limit is None or self.choice_batches <= limit:
                    self._permute_this = True
                    self.permuted_batches += 1
            if (config.record_choice_batch is not None
                    and self.choice_batches == config.record_choice_batch):
                self._recording = True
                self.recorded_batch = []
                self.recorded_batch_time = self._batch_time
        if not self._permute_this:
            return 0
        if self.config.order == "reverse":
            return n - 1
        return self._rng.randrange(n)

    def on_dispatch(self, event: Any, callbacks: list) -> None:
        """``event`` is about to run its callbacks."""
        index = len(self._labels)
        ancestors, priority = self._pending.pop(id(event), (frozenset(), 1))
        label = _event_label(event, callbacks)
        self._labels.append(label)
        self._anc.append(ancestors)
        self._prio.append(priority)
        self._cur = index
        if self._recording:
            self.recorded_batch.append(label)

    def on_spawned(self, children, priority: int) -> None:
        """Events the current dispatch scheduled at this timestamp."""
        current = self._cur
        if current is None:
            return
        ancestors = self._anc[current] | {current}
        for child in children:
            self._pending[id(child)] = (ancestors, priority)

    def after_dispatch(self) -> None:
        """Kernel hook: the current event's cascade is fully absorbed."""
        self._cur = None

    # -- access recording --------------------------------------------------

    def note_read(self, state: str, item: Optional[str]) -> None:
        """Record a read of ``state`` (``item``-granular for dicts/sets)."""
        self._note(state, item, "r")

    def note_write(self, state: str, item: Optional[str]) -> None:
        """Record a write to ``state`` (conflicts with everything)."""
        self._note(state, item, "w")

    def note_update(self, state: str, item: Optional[str], op: str) -> None:
        """A commutative write (conflicts only across ops and with reads)."""
        self._note(state, item, "c:" + op)

    def _note(self, state: str, item: Optional[str], kind: str) -> None:
        current = self._cur
        if current is None:
            return
        key = (state, item, kind, current)
        if key in self._seen_acc:
            return
        self._seen_acc.add(key)
        self._acc.setdefault(state, []).append((item, kind, current))

    # -- batch analysis ----------------------------------------------------

    def end_batch(self) -> None:
        """Close the batch: find conflicts, emit telemetry, reset."""
        new_races: List[ScheduleRace] = []
        anc = self._anc
        prio = self._prio
        labels = self._labels
        cap = self.config.max_accesses_per_state
        for state, accesses in sorted(self._acc.items()):
            if len(accesses) < 2:
                continue
            if len(accesses) > cap:
                self.truncated_states += 1
                accesses = accesses[:cap]
            n = len(accesses)
            for i in range(n - 1):
                item_a, kind_a, index_a = accesses[i]
                for j in range(i + 1, n):
                    item_b, kind_b, index_b = accesses[j]
                    if index_a == index_b:
                        continue
                    if kind_a == "r" and kind_b == "r":
                        continue
                    if kind_a == kind_b and kind_a.startswith("c:"):
                        continue
                    if (item_a is not None and item_b is not None
                            and item_a != item_b):
                        continue
                    if prio[index_a] != prio[index_b]:
                        continue  # cross-priority order is contracted
                    if index_a in anc[index_b] or index_b in anc[index_a]:
                        continue  # scheduled-by chain orders them
                    race = ScheduleRace(
                        time=self._batch_time, state=state,
                        item=item_a if item_a is not None else item_b,
                        a_label=labels[index_a], a_kind=_kind_name(kind_a),
                        b_label=labels[index_b], b_kind=_kind_name(kind_b))
                    key = (state, race.item,
                           *sorted([(race.a_label, race.a_kind),
                                    (race.b_label, race.b_kind)]))
                    if key in self._race_keys:
                        continue
                    self._race_keys.add(key)
                    self.races_total += 1
                    new_races.append(race)
                    if len(self.races) < self.config.max_races:
                        self.races.append(race)
        if self._recording:
            self.recorded_batch_races = new_races
            self._recording = False
        env = self.env
        telemetry = getattr(env, "telemetry", None) if env is not None else None
        if telemetry is not None:
            telemetry.sanitizer_batches.inc()
            for race in new_races:
                telemetry.sanitizer_races.labels(kind=race.kind_pair).inc()
        self._acc = {}
        self._seen_acc = set()
        self._pending = {}

    # -- reporting ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready run summary (embedded in sanitize reports)."""
        return {
            "batches": self.batches,
            "choice_batches": self.choice_batches,
            "permuted_batches": self.permuted_batches,
            "races_total": self.races_total,
            "truncated_states": self.truncated_states,
            "races": [race.to_dict() for race in self.races],
        }


# --------------------------------------------------------------------------
# Order-independence proofs
# --------------------------------------------------------------------------


def signature_digest(signature: Any) -> str:
    """Short stable digest of an arbitrary run signature value."""
    return hashlib.sha256(repr(signature).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PermutationWitness:
    """A minimized counterexample to order-independence.

    ``choice_batch`` is the first batch whose permutation changes the
    canonical signature; ``baseline_order``/``permuted_order`` list that
    batch's dispatches in both schedules (identical simulation state up
    to the batch, so the pair is directly comparable).
    """

    time: float
    choice_batch: int
    baseline_order: List[str]
    permuted_order: List[str]
    races: List[dict]
    baseline_signature: str
    permuted_signature: str

    def to_dict(self) -> dict:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {
            "time": self.time,
            "choice_batch": self.choice_batch,
            "baseline_order": list(self.baseline_order),
            "permuted_order": list(self.permuted_order),
            "races": [dict(race) for race in self.races],
            "baseline_signature": self.baseline_signature,
            "permuted_signature": self.permuted_signature,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PermutationWitness":
        return cls(
            time=float(data["time"]),
            choice_batch=int(data["choice_batch"]),
            baseline_order=list(data["baseline_order"]),
            permuted_order=list(data["permuted_order"]),
            races=[dict(race) for race in data.get("races", [])],
            baseline_signature=data["baseline_signature"],
            permuted_signature=data["permuted_signature"])


@dataclass(frozen=True)
class PermutationProof:
    """Outcome of :func:`prove_order_independence` for one scenario."""

    proved: bool
    runs: int
    choice_batches: int
    races_total: int
    witness: Optional[PermutationWitness] = None

    def to_dict(self) -> dict:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {
            "proved": self.proved,
            "runs": self.runs,
            "choice_batches": self.choice_batches,
            "races_total": self.races_total,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PermutationProof":
        witness = data.get("witness")
        return cls(
            proved=bool(data["proved"]),
            runs=int(data["runs"]),
            choice_batches=int(data["choice_batches"]),
            races_total=int(data["races_total"]),
            witness=(None if witness is None
                     else PermutationWitness.from_dict(witness)))


def prove_order_independence(
        run_fn: Callable[[SanitizeConfig], Tuple[Any, ScheduleSanitizer]],
        *, order: str = "reverse", permute_seed: int = 0,
        max_runs: int = 40) -> PermutationProof:
    """Prove (or refute, with a minimized witness) order-independence.

    ``run_fn`` executes one *fresh* instance of the workload under the
    given config and returns ``(canonical_signature, sanitizer)``. The
    canonical signature must be insensitive to benign same-timestamp
    reordering of commutative aggregates (sorted completion lists, not
    completion-order lists) — it is the property being proved.

    Protocol: baseline run, then one fully-permuted run per adversary
    schedule — the requested ``order`` plus two seeded shuffles, since
    a single deterministic adversary can cancel itself (reversing the
    batch that *creates* events also reverses their eid order, which
    restores the baseline pairing one batch later). All-equal
    signatures proves the property. On the first divergence,
    binary-search the smallest prefix of choice batches whose
    permutation flips the signature, then replay twice more to capture
    that batch in both orders.
    """
    baseline_config = SanitizeConfig(
        permute=False, order=order, permute_seed=permute_seed)
    baseline_signature, baseline_san = run_fn(baseline_config)
    races_total = baseline_san.races_total
    total_choices = baseline_san.choice_batches
    runs = 1
    if total_choices == 0:
        return PermutationProof(proved=True, runs=runs,
                                choice_batches=0, races_total=races_total)
    probes = [(order, permute_seed)]
    for extra_seed in (permute_seed, permute_seed + 1):
        if ("random", extra_seed) not in probes:
            probes.append(("random", extra_seed))
    permuted_config = None
    for probe_order, probe_seed in probes:
        config = SanitizeConfig(permute=True, order=probe_order,
                                permute_seed=probe_seed)
        full_signature, _ = run_fn(config)
        runs += 1
        if full_signature != baseline_signature:
            permuted_config = config
            break
    divergent = None
    if permuted_config is None:
        # Every full-permutation adversary matched — but two adjacent
        # batches can still cancel (permuting the creation batch
        # re-permutes the next batch's eid order back into the baseline
        # pairing). Prefix schedules permute batches 1..k only, so the
        # boundary batch k+1 runs in its (now reshuffled) natural order
        # and a cancellation pair straddling it diverges. Probe k
        # ascending; the first divergence is already minimal.
        primary = replace(baseline_config, permute=True)
        for limit in range(1, total_choices):
            if runs >= max_runs - 2:   # keep budget for the capture pair
                break
            prefix_signature, _ = run_fn(
                replace(primary, max_permuted_batches=limit))
            runs += 1
            if prefix_signature != baseline_signature:
                divergent = limit
                permuted_config = primary
                break
        if divergent is None:
            return PermutationProof(proved=True, runs=runs,
                                    choice_batches=total_choices,
                                    races_total=races_total)
    else:
        # Smallest N such that permuting choice batches 1..N diverges.
        # Invariant: limit=high diverges, limit=low-1 does not (limit=0
        # is the baseline schedule by construction).
        low, high = 1, total_choices
        while low < high and runs < max_runs:
            mid = (low + high) // 2
            mid_signature, _ = run_fn(
                replace(permuted_config, max_permuted_batches=mid))
            runs += 1
            if mid_signature == baseline_signature:
                low = mid + 1
            else:
                high = mid
        divergent = high
    permuted_signature, permuted_san = run_fn(replace(
        permuted_config, max_permuted_batches=divergent,
        record_choice_batch=divergent))
    runs += 1
    _, ordered_san = run_fn(replace(
        permuted_config, max_permuted_batches=divergent - 1,
        record_choice_batch=divergent))
    runs += 1
    witness = PermutationWitness(
        time=(permuted_san.recorded_batch_time
              if permuted_san.recorded_batch_time is not None else 0.0),
        choice_batch=divergent,
        baseline_order=list(ordered_san.recorded_batch or []),
        permuted_order=list(permuted_san.recorded_batch or []),
        races=[race.to_dict() for race in permuted_san.recorded_batch_races],
        baseline_signature=signature_digest(baseline_signature),
        permuted_signature=signature_digest(permuted_signature))
    return PermutationProof(proved=False, runs=runs,
                            choice_batches=total_choices,
                            races_total=races_total, witness=witness)

"""Pure-python implementation of the table-driven verdict kernel.

This module is the compilation unit behind the
``repro.core._kernel_native`` seam: ``tools/build_native_kernel.py``
compiles a verbatim copy of this file with Cython and drops the
extension next to it; :mod:`repro.core.kernel` imports whichever is
available.  Keep it self-contained (only :mod:`repro.config` and
:mod:`repro.errors` imports) and free of typing-only constructs the
compilers reject.

:class:`KernelMachine` decides Problem ECPV with *exactly* the merged
GSS semantics of :class:`repro.core.machine.PVMachine` — the
differential suite pins ``kernel ≡ machine ≡ earley`` — but over the
dense tables of :mod:`repro.core.tables`:

* a GSS node is an index into parallel lists (``element id``,
  ``position``, ``parent ids``, ``finishable bit``) instead of an
  object; node ``0`` is the shared stack-bottom sentinel;
* a token round intersects one precomputed closure bitmask with one
  match mask and one embed mask per explored frame key — no set
  iteration, no string comparison, no per-checker closure cache;
* round targets (consumption and continuation nodes) are interned in
  round-local parallel lists; hypothesized *entry* frames are never
  materialized at all — their shared continuation sets are resolved
  straight into the targets' parent lists when the round freezes
  (a machine entry node never becomes anyone's parent, so nothing
  observable is lost);
* acceptance replaces the machine's path-enumerating DFS with a
  linear reverse-reachability pass: a node is *good* when it is
  finishable and the bottom sentinel is reachable root-ward through
  finishable nodes; accept iff some surviving leaf is good.

Bit-twiddling idiom used throughout (lowest set bit extraction)::

    low = mask & -mask
    index = low.bit_length() - 1
    mask ^= low

Python ints are arbitrary-width, so automata with more than 63
positions need no widening logic (pinned by the bitmask-width tests).

The document walk does not step a machine per element.  It steps
:class:`KernelState` objects, a lazy DFA over the machine's own
configurations: each live configuration of at most
:data:`STATE_NODE_LIMIT` GSS nodes is interned once per schema, in the
schema's one runtime memo, and a state keeps the successors it has
already met in its ``next`` map.  A child is one ``next`` lookup; only a
miss runs :func:`advance`, which decodes the configuration into a
:class:`KernelMachine`, runs one round and interns the result.  A larger
configuration is not interned: its frame steps the raw machine, which
answers the same ``next`` / ``accepts`` protocol with an empty map.
"""

from array import array
from sys import getsizeof
from types import MappingProxyType

from repro.config import MACHINE_NODE_LIMIT
from repro.errors import PVError

__all__ = [
    "KernelMachine",
    "KernelState",
    "advance",
    "initial_state",
    "IMPLEMENTATION",
    "EMISSIONS_LIMIT",
    "EMISSIONS_BYTES_LIMIT",
    "STATE_NODE_LIMIT",
]

#: Which build this is; the native copy is patched to say "native".
IMPLEMENTATION = "pure"

#: Pseudo-position "nothing consumed yet" (mirrors ``repro.core.dag.ENTRY``).
_ENTRY = -1

#: Node id of the shared stack-bottom sentinel.
_BOTTOM = 0

#: Most entries one schema's ``emissions`` memo may hold.  A miss that
#: finds it full clears it first, so a client DTD whose documents keep
#: reaching new GSS states cannot grow it for the life of the process.
#: Realistic schemas settle in the hundreds of entries.
EMISSIONS_LIMIT = 1 << 14

#: Most bytes one schema's memo may be charged, interned states, their
#: codes and successor maps included.  A store that would pass it clears
#: the memo first, as a full entry count does.
EMISSIONS_BYTES_LIMIT = 3 << 20

#: Most GSS nodes (the bottom sentinel aside) an interned configuration
#: may hold.  A larger one is not interned: its frame steps a raw
#: :class:`KernelMachine` until the configuration shrinks back.
STATE_NODE_LIMIT = 64

# What the memo is charged per entry: rough CPython sizes of the objects
# an entry keeps alive, its share of the memo's hash table included.  An
# emission entry adds its lists' items, a state its code.
_ENTRY_BYTES = 160
_STATE_BYTES = 200
_EDGE_BYTES = 64

#: A raw machine's ``next`` map: it has no interned successors, so every
#: step is a miss.
_NO_EDGES = MappingProxyType({})


class KernelState:
    """One interned kernel configuration: a state of the lazy DFA.

    ``code`` is the configuration in canonical form (see
    :meth:`KernelMachine._code`), ``accepts`` whether the content may end
    here, and ``next`` maps a symbol id to the successor state met so
    far.  A state is immutable but for ``next``, holds no reference to
    the memo that interned it, and so stays valid after a clear.  States
    are runtime-only: the memo that holds them never pickles.
    """

    __slots__ = ("code", "accepts", "next")

    def __init__(self, code, accepts):
        self.code = code
        self.accepts = accepts
        self.next = {}


# The state after a round with no survivor: it accepts nothing, and
# advance keeps it on every symbol.  Its map is read-only, as every
# schema shares it.
_DEAD = KernelState(None, False)
_DEAD.next = _NO_EDGES


def _charge(memo, charge):
    """Charge a schema's memo *charge* bytes for what is stored next.

    A charge that finds the memo at either bound clears it first.  States
    already handed out stay valid: a clear only forgets them.
    """
    with memo.lock:
        if len(memo) >= EMISSIONS_LIMIT or (
            memo.charged + charge > EMISSIONS_BYTES_LIMIT
        ):
            memo.clear()
        memo.charged += charge


def _intern(memo, code, accepts):
    """The memo's state for *code*, interned on first sight."""
    state = memo.get(code)
    if state is None:
        state = KernelState(code, accepts)
        _charge(memo, _STATE_BYTES + getsizeof(code))
        memo[code] = state
    return state


def initial_state(tables, element_id):
    """The state of element *element_id* before its first child.

    It is interned under ``~element_id``, so the walk asks the memo for
    that key first and calls this only on a miss.
    """
    return _intern(
        tables.emissions, ~element_id, tables.elements[element_id].entry_fin
    )


def advance(tables, state, sym):
    """The successor of *state* on symbol id *sym*, after a ``next`` miss.

    Decodes the configuration into a :class:`KernelMachine`, runs one
    round and interns the result, which becomes ``state.next[sym]``.  A
    result past :data:`STATE_NODE_LIMIT` nodes is returned as the raw
    machine itself, and a raw *state* (such a machine) is stepped in
    place, until its configuration is small enough to intern again.
    """
    if state.__class__ is KernelMachine:
        machine = state
    elif state is _DEAD:
        return _DEAD
    else:
        machine = _decode(tables, state.code)
    memo = tables.emissions
    if machine.step(sym):
        code = machine._code()
        if code is None:
            return machine
        successor = _intern(memo, code, machine.accepts_now())
    else:
        successor = _DEAD
    if machine is not state:
        _charge(memo, _EDGE_BYTES)
        state.next[sym] = successor
    return successor


def _decode(tables, code):
    """A fresh :class:`KernelMachine` in the configuration *code*."""
    elements = tables.elements
    if code.__class__ is int:
        # Flat: ~((mask + 1) * element count + element), mask -1 = ENTRY.
        shifted, element_id = divmod(~code, len(elements))
        machine = KernelMachine(tables, tables.symbols[element_id])
        if shifted:
            machine._flat_entry = False
            machine._flat_mask = shifted - 1
        return machine
    ints = array("q")
    ints.frombytes(code)
    machine = KernelMachine(tables, tables.symbols[ints[0]])
    machine._flat = False
    elem = [-1]
    pos = [_ENTRY]
    key = [0]
    parents = [[]]
    fin = [True]
    at = 2
    end = len(ints)
    while at < end:
        packed = ints[at]
        count = ints[at + 1]
        element_id = packed >> 21
        index = (packed & 0x1FFFFF) - 1
        element = elements[element_id]
        elem.append(element_id)
        pos.append(index)
        key.append(packed)
        parents.append(ints[at + 2 : at + 2 + count].tolist())
        if index == _ENTRY:
            fin.append(element.entry_fin)
        else:
            fin.append((element.fin_mask >> index) & 1)
        at += 2 + count
    machine._elem = elem
    machine._pos = pos
    machine._key = key
    machine._parents = parents
    machine._fin = fin
    machine._allocated = len(elem)
    machine.leaves = list(range(1, ints[1] + 1))
    return machine


def _compute_emissions(tables, position, sym):
    """One key's round emissions: (match indices, (index, child) descends).

    Document-independent — a pure function of the element tables, the
    position, and the symbol — so results live in the shared
    ``CompiledTables.emissions`` memo and the bit loops run once per
    distinct ``(element, position, symbol)`` triple per process.
    """
    closure = tables.closures[position + 1]
    if not closure:
        return ((), ())
    match_list = []
    mask = closure & tables.match_masks.get(sym, 0)
    while mask:
        low = mask & -mask
        mask ^= low
        match_list.append(low.bit_length() - 1)
    cont_list = []
    mask = closure & tables.embed_masks.get(sym, 0)
    pos_elem = tables.pos_elem
    while mask:
        low = mask & -mask
        mask ^= low
        index = low.bit_length() - 1
        cont_list.append((index, pos_elem[index]))
    return (tuple(match_list), tuple(cont_list))


class KernelMachine:
    """Exact ECPV recognizer over :class:`repro.core.tables.CompiledTables`.

    One instance checks one element's content sequence.  Feed interned
    symbol ids through :meth:`step` (or strings through :meth:`recognize`);
    ``-1`` is the "undeclared symbol" id and matches nothing anywhere.
    The document walk builds one only on a :class:`KernelState` miss, or
    for a configuration too large to intern; ``next`` and ``accepts`` let
    it stand in a frame where a state would.
    """

    __slots__ = (
        "tables",
        "element",
        "leaves",
        "rejected_at",
        "_elements",
        "_root_elem",
        "_root_tables",
        "_elem",
        "_pos",
        "_key",
        "_parents",
        "_fin",
        "_allocated",
        "_consumed",
        "_flat",
        "_flat_entry",
        "_flat_mask",
    )

    def __init__(self, tables, element):
        self.tables = tables
        self.element = element
        element_id = tables.sid[element]
        self._elements = tables.elements
        self._root_elem = element_id
        self._root_tables = tables.elements[element_id]
        # Parallel node store; node 0 is the bottom sentinel, node 1 the
        # root frame "checking <element>, nothing consumed yet".  Built
        # lazily on the first flat-regime exit — most content checks never
        # hypothesize an insertion and stay pure bitmask.
        self._elem = None
        self._pos = None
        # Per node: the packed exploration key (element << 21 | pos + 1).
        self._key = None
        self._parents = None
        self._fin = None
        self._allocated = 2
        self.leaves = [1]
        self.rejected_at = None
        self._consumed = 0
        # Flat regime: until the first insertion hypothesis fires, every
        # surviving node sits directly on the bottom sentinel in the root
        # element's automaton, so the whole GSS collapses to one bitmask
        # of positions and a round is pure bitwise arithmetic.
        self._flat = True
        self._flat_entry = True
        self._flat_mask = 0

    # -- stepping -------------------------------------------------------------

    #: No interned successors: in a frame, every step is a miss.
    next = _NO_EDGES

    @property
    def accepts(self):
        """:meth:`accepts_now`, read the way a :class:`KernelState`'s is."""
        return self.accepts_now()

    def step(self, sym):
        """Feed one interned symbol id; False when no hypothesis survives."""
        if self.rejected_at is not None:
            return False
        if self._flat:
            # A flat round is bitwise arithmetic on the position set; its
            # result is memoized as a KernelState edge, not here.
            tables = self._root_tables
            closures = tables.closures
            if self._flat_entry:
                closure = closures[0]
            else:
                closure = 0
                mask = self._flat_mask
                while mask:
                    low = mask & -mask
                    mask ^= low
                    # bit i's closure lives in closures[i + 1]
                    closure |= closures[low.bit_length()]
            if not closure & tables.embed_masks.get(sym, 0):
                survivors = closure & tables.match_masks.get(sym, 0)
                self._consumed += 1
                self._flat_entry = False
                self._flat_mask = survivors
                if not survivors:
                    self.rejected_at = self._consumed - 1
                    return False
                return True
            # An insertion hypothesis fires: materialize the flat state as
            # GSS nodes and run the general round.
            self._exit_flat()
        leaves = self.leaves
        elements = self._elements
        fin = self._fin
        parents = self._parents

        # Fast path: a single surviving frame whose round-exploration set
        # is provably just itself (not finishable, or parented only by the
        # bottom sentinel) and whose closure hypothesizes no insertions
        # for this symbol.  The round is then pure consumption: each match
        # bit becomes a leaf that *aliases* the frame's (frozen) parent
        # list, skipping all round-interning machinery.  This is the
        # common shape for flat, directly-matching content.
        if len(leaves) == 1:
            frame = leaves[0]
            frame_parents = parents[frame]
            if not fin[frame] or (
                len(frame_parents) == 1 and frame_parents[0] == _BOTTOM
            ):
                element_id = self._elem[frame]
                tables = elements[element_id]
                closure = tables.closures[self._pos[frame] + 1]
                if closure & tables.embed_masks.get(sym, 0) == 0:
                    mask = closure & tables.match_masks.get(sym, 0)
                    elem = self._elem
                    pos = self._pos
                    key = self._key
                    ebase = (element_id << 21) + 1
                    fin_mask = tables.fin_mask
                    node = self._allocated
                    new_leaves = []
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        index = low.bit_length() - 1
                        elem.append(element_id)
                        pos.append(index)
                        key.append(ebase + index)
                        parents.append(frame_parents)
                        fin.append((fin_mask >> index) & 1)
                        new_leaves.append(node)
                        node += 1
                    self._allocated = node
                    if node > MACHINE_NODE_LIMIT:
                        raise PVError(
                            "KernelMachine exceeded its node allocation limit"
                        )
                    return self._finish_round(new_leaves)
        return self._full_step(sym)

    def _exit_flat(self):
        """Materialize the flat bitmask state as bottom-parented nodes."""
        self._flat = False
        element_id = self._root_elem
        if self._elem is None:
            self._elem = [-1, element_id]
            self._pos = [_ENTRY, _ENTRY]
            self._key = [0, element_id << 21]
            self._parents = [[], [_BOTTOM]]
            self._fin = [True, self._root_tables.entry_fin]
        if self._flat_entry:
            self.leaves = [1]
            return
        tables = self._root_tables
        elem = self._elem
        pos = self._pos
        key = self._key
        parents = self._parents
        fin = self._fin
        bottom_parents = parents[1]
        ebase = (element_id << 21) + 1
        fin_mask = tables.fin_mask
        node = self._allocated
        leaves = []
        mask = self._flat_mask
        while mask:
            low = mask & -mask
            mask ^= low
            index = low.bit_length() - 1
            elem.append(element_id)
            pos.append(index)
            key.append(ebase + index)
            parents.append(bottom_parents)
            fin.append((fin_mask >> index) & 1)
            leaves.append(node)
            node += 1
        self._allocated = node
        self.leaves = leaves

    def _full_step(self, sym):
        """The general round: key-replayed GSS exploration over bitmasks.

        Parent bookkeeping is done per exploration *key*, not per frame:
        every frame sharing a key contributes the same way to every target
        that key emits, so each target records the key records that
        emitted it, and a key's frame set is resolved into one shared
        parent list exactly once when the round freezes.  This is
        observably identical to the machine's symmetric frame-by-frame
        source registration (the invariant both maintain: a target's
        parents are the union of its emitting keys' frames' parents).
        """
        elements = self._elements
        elem = self._elem
        pos = self._pos
        parents = self._parents
        fin = self._fin
        emissions = self.tables.emissions

        # Round targets: interned (kind, element, position) nodes-to-be.
        # kind 0 = consumption ("leaf"), kind 1 = continuation.  A target
        # is fully described by its packed key — ((element << 21 |
        # position+1) << 1) | kind — plus the key records that emitted it.
        target_key = []
        target_records = []
        target_index = {}
        # Entry frames: one per hypothesized missing element this round.
        # Never materialized — only their continuation sets survive, as
        # negative frame refs encoded -(entry_index + 1).  Newly created
        # entries join the exploration stack like any other frame
        # (ordering is free to differ from the machine's eager recursion:
        # the round's fixed point is the same either way).
        entry_conts = []
        entry_index = {}
        entry_packed = []
        # Per exploration key: [frames, resolved-parents-or-None], or
        # False for a key that emits nothing this round (its frames need
        # no recording).  The positional exploration runs once per key;
        # later frames with the same key only widen the stack contexts.
        key_replay = {}

        # One worklist drives the whole exploration: surviving leaves, then
        # root-ward finishable ancestors (moving to a parent abandons a
        # frame: its remaining content must be silently completable), plus
        # hypothesized entry frames pushed as negative refs.  Replays — a
        # frame whose (element, position) key was already explored — are
        # the common case and only widen the key's frame set; a fresh key
        # interns its cached emission lists inline.
        sym1 = sym + 1
        explored = bytearray(self._allocated)
        key = self._key
        key_get = key_replay.get
        emissions_get = emissions.get
        ti_get = target_index.get
        ei_get = entry_index.get
        stack = list(self.leaves)
        pop = stack.pop
        push = stack.append
        while stack:
            frame = pop()
            if frame >= 0:
                if explored[frame]:
                    continue
                explored[frame] = 1
                packed = key[frame]
                if fin[frame]:
                    for parent in parents[frame]:
                        if parent != _BOTTOM:
                            push(parent)
            else:
                packed = entry_packed[-1 - frame]
            record = key_get(packed)
            if record:
                record[0].append(frame)
                continue
            if record is False:
                # Key already known to emit nothing for this symbol.
                continue
            ekey = (packed << 22) | sym1
            cached = emissions_get(ekey)
            element_id = packed >> 21
            if cached is None:
                cached = _compute_emissions(
                    elements[element_id], (packed & 0x1FFFFF) - 1, sym
                )
                _charge(
                    emissions,
                    _ENTRY_BYTES + 8 * len(cached[0]) + 64 * len(cached[1]),
                )
                emissions[ekey] = cached
            match_list, cont_list = cached
            if not match_list and not cont_list:
                # A dead key: no frame context ever needs recording.
                key_replay[packed] = False
                continue
            record = [[frame], None]
            key_replay[packed] = record
            ebase = (element_id << 21) + 1
            for index in match_list:
                tkey = (ebase + index) << 1
                tidx = ti_get(tkey)
                if tidx is None:
                    target_index[tkey] = len(target_key)
                    target_key.append(tkey)
                    target_records.append([record])
                else:
                    target_records[tidx].append(record)
            for index, child in cont_list:
                tkey = ((ebase + index) << 1) | 1
                tidx = ti_get(tkey)
                if tidx is None:
                    tidx = len(target_key)
                    target_index[tkey] = tidx
                    target_key.append(tkey)
                    target_records.append([record])
                else:
                    target_records[tidx].append(record)
                eidx = ei_get(child)
                if eidx is None:
                    entry_index[child] = len(entry_conts)
                    push(-1 - len(entry_conts))
                    entry_conts.append([tidx])
                    entry_packed.append(child << 21)
                else:
                    conts = entry_conts[eidx]
                    if tidx not in conts:
                        conts.append(tidx)

        # Freeze: materialize targets as global nodes.  Entry refs resolve
        # to their continuation targets' global ids — base + tidx is known
        # before those nodes exist.
        base = self._allocated
        count = len(target_key)
        self._allocated = base + count
        if self._allocated > MACHINE_NODE_LIMIT:
            raise PVError("KernelMachine exceeded its node allocation limit")

        def resolve(record):
            frames = record[0]
            if len(frames) == 1:
                ref = frames[0]
                if ref >= 0:
                    resolved = parents[ref]
                else:
                    resolved = [base + cont for cont in entry_conts[-ref - 1]]
            else:
                resolved = []
                seen = set()
                for ref in frames:
                    if ref >= 0:
                        for parent in parents[ref]:
                            if parent not in seen:
                                seen.add(parent)
                                resolved.append(parent)
                    else:
                        for cont in entry_conts[-ref - 1]:
                            parent = base + cont
                            if parent not in seen:
                                seen.add(parent)
                                resolved.append(parent)
            record[1] = resolved
            return resolved

        new_leaves = []
        root_elem = self._root_elem
        refold = True
        refold_mask = 0
        last_elem = -1
        fin_mask = 0
        for tidx in range(count):
            tkey = target_key[tidx]
            packed = tkey >> 1
            element_id = packed >> 21
            if element_id != last_elem:
                last_elem = element_id
                fin_mask = elements[element_id].fin_mask
            index = (packed & 0x1FFFFF) - 1
            records = target_records[tidx]
            if len(records) == 1:
                record = records[0]
                parent_list = record[1]
                if parent_list is None:
                    frames = record[0]
                    if len(frames) == 1:
                        ref = frames[0]
                        if ref >= 0:
                            parent_list = parents[ref]
                        else:
                            parent_list = [
                                base + cont for cont in entry_conts[-1 - ref]
                            ]
                        record[1] = parent_list
                    else:
                        parent_list = resolve(record)
            else:
                parent_list = []
                parent_seen = set()
                for record in records:
                    resolved = record[1]
                    if resolved is None:
                        resolved = resolve(record)
                    for parent in resolved:
                        if parent not in parent_seen:
                            parent_seen.add(parent)
                            parent_list.append(parent)
            elem.append(element_id)
            pos.append(index)
            key.append(packed)
            parents.append(parent_list)
            fin.append((fin_mask >> index) & 1)
            if not tkey & 1:
                new_leaves.append(base + tidx)
                if refold:
                    if (
                        element_id == root_elem
                        and len(parent_list) == 1
                        and parent_list[0] == _BOTTOM
                    ):
                        refold_mask |= 1 << index
                    else:
                        refold = False
        # When every survivor is a bottom-parented root-element node, the
        # GSS has collapsed back to the flat regime: drop to the bitmask
        # representation (the rest of the graph is unreachable garbage).
        if refold and new_leaves:
            self._flat = True
            self._flat_entry = False
            self._flat_mask = refold_mask
        return self._finish_round(new_leaves)

    def _finish_round(self, new_leaves):
        self._consumed += 1
        self.leaves = new_leaves
        if not new_leaves:
            self.rejected_at = self._consumed - 1
            return False
        return True

    # -- interning --------------------------------------------------------------

    def _code(self):
        """This live configuration in canonical form, the memo's state key.

        A flat configuration is one negative int (emission keys are
        non-negative).  Otherwise the code is the bytes of one int array:
        the root element, the leaf count, then per node its packed key,
        parent count and parents.  Nodes are the ones the leaves reach
        through parent edges, numbered from the leaves in discovery order;
        the bottom sentinel is 0.  ``None`` past :data:`STATE_NODE_LIMIT`
        nodes.
        """
        if self._flat:
            mask = -1 if self._flat_entry else self._flat_mask
            return ~((mask + 1) * len(self._elements) + self._root_elem)
        leaves = self.leaves
        if len(leaves) > STATE_NODE_LIMIT:
            return None
        parents = self._parents
        number = {_BOTTOM: 0}
        for leaf in leaves:
            number[leaf] = len(number)
        order = list(leaves)
        at = 0
        while at < len(order):
            for parent in parents[order[at]]:
                if parent not in number:
                    if len(order) == STATE_NODE_LIMIT:
                        return None
                    number[parent] = len(number)
                    order.append(parent)
            at += 1
        key = self._key
        code = [self._root_elem, len(leaves)]
        for node in order:
            node_parents = parents[node]
            code.append(key[node])
            code.append(len(node_parents))
            for parent in node_parents:
                code.append(number[parent])
        return array("q", code).tobytes()

    # -- acceptance -----------------------------------------------------------

    def accepts_now(self):
        """Would stopping here be accepted? (A root-ward finishable path.)

        Equivalent to the machine's path DFS: a leaf is accepted iff the
        bottom sentinel is reachable through finishable nodes, and any
        root-ward path is witnessed by a simple one — so plain reverse
        reachability (linear in GSS size) decides it without the DFS's
        pathological path enumeration.
        """
        if self.rejected_at is not None:
            return False
        if self._flat:
            if self._flat_entry:
                return self._root_tables.entry_fin
            return bool(self._flat_mask & self._root_tables.fin_mask)
        parents = self._parents
        fin = self._fin
        for leaf in self.leaves:
            if fin[leaf] and _BOTTOM in parents[leaf]:
                return True
        # Slow path: propagate "good" (reaches bottom via finishable
        # nodes) down the reversed parent edges, restricted to finishable
        # nodes — only they can extend a closing path.
        count = self._allocated
        children = [[] for _ in range(count)]
        good = bytearray(count)
        stack = []
        for node in range(1, count):
            if not fin[node]:
                continue
            for parent in parents[node]:
                if parent == _BOTTOM:
                    if not good[node]:
                        good[node] = 1
                        stack.append(node)
                else:
                    children[parent].append(node)
        while stack:
            parent = stack.pop()
            for child in children[parent]:
                if not good[child]:
                    good[child] = 1
                    stack.append(child)
        return any(good[leaf] for leaf in self.leaves)

    # -- string-level conveniences --------------------------------------------

    def recognize(self, symbols):
        """Decide ECPV for a ``Delta_T`` token sequence (strings)."""
        sid = self.tables.sid.get
        step = self.step
        for symbol in symbols:
            if not step(sid(symbol, -1)):
                return False
        return self.accepts_now()

    @property
    def allocated_nodes(self):
        """Total GSS nodes materialized (benchmark instrumentation)."""
        return self._allocated

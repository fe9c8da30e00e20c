"""The table-driven kernel: tables, machine semantics, artifact transport.

The kernel's correctness story is differential — it reruns the exact
:class:`PVMachine`'s merged-GSS semantics over dense tables, so every
test here pins it against the machine (and the Earley reference) rather
than against hand-derived expectations.  The structural tests cover what
the differential corpus cannot see directly: the compiled table shapes,
the >63-position bitmask regime (where masks stop fitting a machine
word), and the pickle/wire path the ring's artifact hand-off ships
tables through.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading
from itertools import product

import pytest

from repro.core import kernel as seam
from repro.core import stream
from repro.core.dag import ENTRY, build_dag
from repro.core.kernel import (
    EMISSIONS_BYTES_LIMIT,
    EMISSIONS_LIMIT,
    IMPLEMENTATION,
    NATIVE,
    KernelMachine,
    KernelState,
    kernel_machine_for_dtd,
)
from repro.core.machine import PVMachine
from repro.core.pv import PVChecker
from repro.core.tables import CompiledTables, KernelMemo, compile_tables
from repro.dtd import catalog
from repro.dtd.model import PCDATA
from repro.dtd.parser import parse_dtd
from repro.dtd.random_gen import random_dtd
from repro.service.compiled import compile_schema, decode_artifact, encode_artifact
from repro.workloads.corrupt import corrupt_swap
from repro.workloads.degrade import degrade
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.delta import SIGMA
from repro.xmlmodel.serialize import to_xml
from test_differential import RANDOM_DTD_CONFIGS

DIFFERENTIAL_DTDS = (
    "paper-figure1",
    "example6-T2",
    "play",
    "dictionary",
    "manuscript",
    "tei-lite",
    "docbook-article",
    "with-any",
    "strong-chain",
)

#: A content model with 70 Glushkov positions: bitmasks must run past the
#: 63-bit machine-word boundary (Python ints are arbitrary-width, but the
#: shift/or arithmetic crossing that line is exactly what this pins).
WIDE = "<!ELEMENT r (%s)><!ELEMENT a EMPTY>" % ", ".join(["a?"] * 70)


def _tables(dtd) -> CompiledTables:
    return compile_tables(build_dag(dtd))


def _memo_bytes(memo: dict) -> int:
    """What *memo* holds: a recursive ``sys.getsizeof`` over its keys,
    values and the states they reach, each object counted once."""
    seen = set()
    total = 0
    stack = [memo]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, tuple):
            stack.extend(obj)
        elif isinstance(obj, KernelState):
            stack.extend((obj.code, obj.accepts, obj.next))
    return total


class TestCompiledTables:
    def test_symbols_and_ids_are_a_bijection(self):
        tables = _tables(catalog.paper_figure1())
        assert tables.symbols[-1] == PCDATA
        assert tables.sigma_id == len(tables.symbols) - 1
        for index, name in enumerate(tables.symbols):
            assert tables.sid[name] == index
        assert tables.symbols[tables.root_id] == "r"

    def test_element_table_shapes(self):
        tables = _tables(catalog.paper_figure1())
        for element in tables.elements:
            # Slot 0 is the virtual ENTRY closure; one slot per position.
            assert len(element.closures) == element.size + 1
            assert len(element.pos_label) == element.size
            assert len(element.pos_elem) == element.size
            width_mask = (1 << element.size) - 1
            assert element.fin_mask & ~width_mask == 0
            for mask in element.closures:
                assert mask & ~width_mask == 0
            for mask in element.match_masks.values():
                assert mask & ~width_mask == 0
            for index in range(element.size):
                if element.pos_label[index] == tables.sigma_id:
                    assert element.pos_elem[index] == -1

    def test_empty_content_element_has_no_positions(self):
        tables = _tables(catalog.paper_figure1())
        e = tables.element("e")
        assert e.size == 0
        assert e.entry_fin  # EMPTY accepts the empty content immediately

    def test_element_accessor_rejects_undeclared_names(self):
        tables = _tables(catalog.paper_figure1())
        with pytest.raises(KeyError):
            tables.element("nope")

    def test_emissions_memo_never_pickles(self):
        """Emission entries and interned states live in the runtime memo
        only: after checks through the walk, the tables and the artifact
        pickle to the bytes they had before any check."""
        dtd = catalog.paper_figure1()
        schema = compile_schema(dtd)
        tables = schema.tables
        tables_bytes = pickle.dumps(tables)
        schema_bytes = pickle.dumps(schema)
        checker = PVChecker(dtd, algorithm="kernel", compiled=schema)
        # Valid, in need of insertions, and not potentially valid.
        for text in ("<r><a><c/><d/></a></r>", "<r><d>x</d><e/></r>",
                     "<r><a><c><e/></c></a></r>"):
            checker.check_text(text)
        memo = tables.emissions
        assert any(isinstance(state, KernelState) for state in memo.values())
        assert any(isinstance(key, bytes) for key in memo)  # non-flat states
        assert memo.charged > 0
        assert pickle.dumps(tables) == tables_bytes
        assert pickle.dumps(schema) == schema_bytes
        revived = pickle.loads(tables_bytes)
        assert revived.emissions == {}
        assert isinstance(revived.emissions, KernelMemo)
        assert revived.emissions.charged == 0
        # ...and the revived tables still drive verdicts.
        assert KernelMachine(revived, "r").recognize(["a"])
        assert pickle.loads(schema_bytes).tables.emissions == {}


    def test_emissions_memo_stays_bounded(self):
        """A DTD whose children cannot be inserted reaches new flat states
        with almost every document; the memo is cleared at its bound
        instead of growing for the life of the process."""
        dtd = parse_dtd(
            "<!ELEMENT r ((a|b)*, a" + ", (a|b)" * 14 + ")>"
            "<!ELEMENT a (q)> <!ELEMENT b (q)> <!ELEMENT q (q)>"
        )
        schema = compile_schema(dtd)
        checker = PVChecker(dtd, algorithm="kernel", compiled=schema)
        rng = random.Random(170)
        peak = peak_bytes = 0
        for count in range(1, 1001):
            children = "".join(rng.choice(("<a/>", "<b/>")) for _ in range(60))
            checker.check_text(f"<r>{children}</r>")
            peak = max(peak, len(schema.tables.emissions))
            if count % 50 == 0:
                peak_bytes = max(peak_bytes, _memo_bytes(schema.tables.emissions))
        assert peak <= EMISSIONS_LIMIT
        # The unbounded memo would have passed the bound well before this.
        assert peak > EMISSIONS_LIMIT // 2
        # Every state carries a successor map, so here the byte bound
        # clears first.  What the memo holds at its peak, states included,
        # stays near what it is charged (3.1 MB on CPython 3.11).
        assert EMISSIONS_BYTES_LIMIT // 2 < peak_bytes
        assert peak_bytes <= EMISSIONS_BYTES_LIMIT * 5 // 4


def _dfs_closure(tables, position: int) -> int:
    """One silent closure by a fresh DFS from *position*: the oracle.

    Every follow position is eligible, and so is every follow position
    of an insertable position reached through insertable positions.
    """
    if tables.automaton is None:
        return 0
    eligible = set(tables.children(position))
    stack = [index for index in eligible if tables.insertable[index]]
    seen = set(stack)
    while stack:
        index = stack.pop()
        for successor in tables.children(index):
            eligible.add(successor)
            if tables.insertable[successor] and successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return sum(1 << index for index in eligible)


def _assert_closures_match_the_dfs(dtd) -> int:
    """Compare every element's closures; the number of automata compared."""
    dag = build_dag(dtd)
    compiled = compile_tables(dag)
    for element in compiled.elements:
        name = compiled.symbols[element.element_id]
        tables = dag.dag(name).exact_tables
        expected = [_dfs_closure(tables, ENTRY)] + [
            _dfs_closure(tables, index) for index in range(element.size)
        ]
        assert list(element.closures) == expected, name
    return len(compiled.elements)


class TestSilentClosures:
    """``compile_tables`` computes all closures of an automaton in one
    pass over its insertable components; each must equal the per-position
    DFS it replaced, so tables, artifacts and verdicts stay the same."""

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_closures_match_the_dfs(self, name):
        assert _assert_closures_match_the_dfs(catalog.load(name))

    def test_random_dtd_closures_match_the_dfs(self):
        compared = sum(
            _assert_closures_match_the_dfs(random_dtd(config))
            for config in RANDOM_DTD_CONFIGS
        )
        assert compared >= len(RANDOM_DTD_CONFIGS) * 8

    def test_long_optional_sequence_matches_the_dfs(self):
        """``r (a?, ×300)``: each position's closure is every later one,
        the shape on which a DFS per position costs cubic time."""
        dtd = parse_dtd(
            "<!ELEMENT r (%s)><!ELEMENT a EMPTY>" % ", ".join(["a?"] * 300)
        )
        _assert_closures_match_the_dfs(dtd)
        closures = _tables(dtd).element("r").closures
        assert closures[0] == (1 << 300) - 1
        assert closures[300] == 0

    def test_cycles_through_insertable_positions_match_the_dfs(self):
        """Starred groups put insertable positions on follow cycles, so a
        component holds several positions that share one reach."""
        dtd = parse_dtd(
            "<!ELEMENT r ((a, b?)*, (c | (a?, b)+)*, d?, (b, c?)+)>"
            "<!ELEMENT a EMPTY><!ELEMENT b (#PCDATA)>"
            "<!ELEMENT c (a?)><!ELEMENT d (e)><!ELEMENT e (e)>"
        )
        _assert_closures_match_the_dfs(dtd)


class TestWideBitmasks:
    def test_positions_exceed_a_machine_word(self):
        tables = _tables(parse_dtd(WIDE))
        assert tables.element("r").size == 70
        assert tables.element("r").fin_mask > (1 << 63)

    def test_kernel_matches_machine_past_63_positions(self):
        dtd = parse_dtd(WIDE)
        tables = _tables(dtd)
        rng = random.Random(13)
        contents = [["a"] * count for count in (0, 1, 63, 64, 69, 70, 71)]
        contents += [
            ["a" if rng.random() < 0.8 else SIGMA for _ in range(length)]
            for length in (5, 40, 66)
        ]
        for content in contents:
            exact = PVMachine.for_dtd(dtd, "r").recognize(content)
            kernel = KernelMachine(tables, "r").recognize(content)
            assert exact == kernel, content


class TestKernelMachineSemantics:
    @pytest.mark.parametrize("name", ("paper-figure1", "example6-T2", "with-any"))
    def test_exhaustive_short_contents_match_the_machine(self, name):
        dtd = catalog.load(name)
        tables = _tables(dtd)
        # The same contents stepped as interned states.
        stepped = PVChecker(dtd, algorithm="kernel", compiled=compile_schema(dtd))
        names = list(dtd.element_names())
        alphabet = names[:4] + [SIGMA]
        for element in names:
            for length in range(4):
                for tokens in product(alphabet, repeat=length):
                    # Delta_T never emits two adjacent sigma tokens.
                    if any(
                        tokens[i] == SIGMA and tokens[i + 1] == SIGMA
                        for i in range(len(tokens) - 1)
                    ):
                        continue
                    exact = PVMachine.for_dtd(dtd, element).recognize(tokens)
                    kernel = KernelMachine(tables, element).recognize(tokens)
                    assert exact == kernel, (name, element, tokens)
                    assert stepped.check_content(element, tokens) == exact

    def test_unknown_symbols_reject(self):
        machine = kernel_machine_for_dtd(catalog.paper_figure1())
        assert not machine.recognize(["undeclared-element"])

    def test_machine_for_non_root_element(self):
        machine = kernel_machine_for_dtd(catalog.paper_figure1(), "f")
        assert machine.recognize(["c", "e"])
        assert not machine.recognize(["e", "c"])


CHAIN_DTD = "<!ELEMENT r (x*)><!ELEMENT x (x*)>"


def _corpus(name: str, seed: int, count: int) -> list[str]:
    """Generated documents of one catalog DTD, each followed by a
    degraded copy (half its tags removed) and, where one exists, a
    swapped copy (usually not potentially valid)."""
    dtd = catalog.load(name)
    rng = random.Random(seed)
    texts = []
    generator = DocumentGenerator(dtd, seed=seed)
    for document in generator.documents(count, target_nodes=40, max_depth=8):
        texts.append(to_xml(document))
        texts.append(to_xml(degrade(document, rng, fraction=0.5)[0]))
        swapped = corrupt_swap(document, rng)
        if swapped is not None:
            texts.append(to_xml(swapped))
    return texts


class TestInternedStates:
    """The walk steps interned kernel configurations: a child is one
    ``next`` lookup, and only a miss runs a machine round."""

    def test_deep_chain_misses_do_not_grow_with_depth(self, monkeypatch):
        """``<r><x>…</x></r>`` under ``x (x*)``: every level repeats the
        same two configurations, so a cold check misses as often at
        20,000 levels as at 1,000."""
        misses = []

        def counting(tables, state, sym):
            misses.append(sym)
            return seam.advance(tables, state, sym)

        monkeypatch.setattr(stream, "advance", counting)
        dtd = parse_dtd(CHAIN_DTD)
        counts = []
        for depth in (1_000, 20_000):
            checker = PVChecker(dtd, algorithm="kernel", compiled=compile_schema(dtd))
            del misses[:]
            text = "<r>" + "<x>" * depth + "</x>" * depth + "</r>"
            assert checker.check_text(text).potentially_valid
            counts.append(len(misses))
        assert counts[0] == counts[1] > 0

    def test_a_memo_clear_never_invalidates_a_held_state(self, monkeypatch):
        """With the memo bounded at 8 entries it clears many times inside
        every document, under frames that hold states.  Four threads
        checking one schema's corpus must still answer as a serial run
        with a warm memo does."""
        dtd = catalog.load("xhtml-basic")
        schema = compile_schema(dtd)
        checker = PVChecker(dtd, algorithm="kernel", compiled=schema)
        texts = _corpus("xhtml-basic", 26, 6)
        for text in texts:
            checker.check_text(text)
        expected = [checker.check_text(text) for text in texts]
        assert not all(verdict.potentially_valid for verdict in expected)

        clears = []
        clear = KernelMemo.clear

        def counting_clear(memo):
            clears.append(len(memo))
            clear(memo)

        monkeypatch.setattr(KernelMemo, "clear", counting_clear)
        monkeypatch.setattr(seam._impl, "EMISSIONS_LIMIT", 8)
        schema.tables.emissions.clear()
        results = [None] * 4

        def run(slot):
            order = list(range(len(texts)))
            random.Random(slot).shuffle(order)
            verdicts = {index: checker.check_text(texts[index]) for index in order}
            results[slot] = [verdicts[index] for index in range(len(texts))]

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4
        assert len(clears) > len(texts)
        memo = schema.tables.emissions
        assert len(memo) <= 8
        assert 0 < memo.charged <= EMISSIONS_BYTES_LIMIT

    def test_configurations_past_the_node_bound_run_raw(self, monkeypatch):
        """With the node bound at 0 every non-flat configuration is
        stepped as a raw machine; verdicts and failures do not change."""
        dtd = catalog.load("xhtml-basic")
        texts = _corpus("xhtml-basic", 27, 4)
        interned = PVChecker(dtd, algorithm="kernel", compiled=compile_schema(dtd))
        expected = [interned.check_text(text) for text in texts]
        monkeypatch.setattr(seam._impl, "STATE_NODE_LIMIT", 0)
        schema = compile_schema(dtd)
        raw = PVChecker(dtd, algorithm="kernel", compiled=schema)
        assert [raw.check_text(text) for text in texts] == expected
        assert not any(isinstance(key, bytes) for key in schema.tables.emissions)
        machine = PVChecker(dtd, algorithm="machine")
        assert [
            machine.check_text(text).potentially_valid for text in texts
        ] == [verdict.potentially_valid for verdict in expected]

    @pytest.mark.parametrize("name", ("xhtml-basic", "docbook-article", "strong-chain"))
    def test_codes_round_trip(self, name):
        """A state's code decodes to a machine that encodes to the same
        code and accepts as the state says."""
        dtd = catalog.load(name)
        schema = compile_schema(dtd)
        checker = PVChecker(dtd, algorithm="kernel", compiled=schema)
        for text in _corpus(name, 28, 4):
            checker.check_text(text)
        states = [
            state
            for state in schema.tables.emissions.values()
            if isinstance(state, KernelState)
        ]
        assert any(isinstance(state.code, bytes) for state in states)
        for state in states:
            machine = seam._impl._decode(schema.tables, state.code)
            assert machine._code() == state.code
            assert bool(machine.accepts_now()) == bool(state.accepts)


@pytest.mark.parametrize("name", DIFFERENTIAL_DTDS)
def test_kernel_machine_earley_agree_on_documents(name):
    """The ladder's exact tiers are verdict-identical document by document."""
    dtd = catalog.load(name)
    checkers = [
        PVChecker(dtd, algorithm=algorithm)
        for algorithm in ("kernel", "machine", "earley")
    ]
    rng = random.Random(2006)
    generator = DocumentGenerator(dtd, seed=2006)
    for index, document in enumerate(
        generator.documents(3, target_nodes=18, max_depth=8)
    ):
        degraded, _count = degrade(document, rng, fraction=0.6)
        for variant in (document, degraded):
            verdicts = [
                checker.is_potentially_valid(variant) for checker in checkers
            ]
            assert verdicts[0] == verdicts[1] == verdicts[2], (name, index)


class TestArtifactTransport:
    def test_tables_survive_the_wire_format(self):
        schema = compile_schema(catalog.manuscript())
        blob = encode_artifact(schema)
        revived = decode_artifact(blob, schema.fingerprint)
        assert revived is not None
        # The shipped pickle carries the tables — no rebuild on arrival.
        assert isinstance(revived.tables, CompiledTables)
        assert revived.tables.symbols == schema.tables.symbols

    def test_revived_artifact_drives_the_kernel(self):
        dtd = catalog.manuscript()
        schema = compile_schema(dtd)
        revived = decode_artifact(encode_artifact(schema), schema.fingerprint)
        direct = PVChecker(dtd, algorithm="kernel", compiled=schema)
        shipped = PVChecker(dtd, algorithm="kernel", compiled=revived)
        generator = DocumentGenerator(dtd, seed=42)
        for document in generator.documents(3, target_nodes=20):
            assert direct.is_potentially_valid(document) == (
                shipped.is_potentially_valid(document)
            )


class TestKernelChecker:
    def test_is_a_pinned_pv_checker(self, doc_w, doc_s):
        checker = PVChecker(catalog.paper_figure1(), algorithm="kernel")
        assert checker.algorithm == "kernel"
        # Example 1: s is valid (hence potentially valid); w is not even
        # potentially valid — every backend agrees on both.
        assert checker.is_potentially_valid(doc_s)
        assert not checker.is_potentially_valid(doc_w)

    def test_from_compiled(self):
        schema = compile_schema(catalog.paper_figure1())
        checker = PVChecker.from_compiled(schema, algorithm="kernel")
        assert checker.compiled is schema
        assert checker.check_content("f", ["c", "e"])


def test_implementation_flags_are_consistent():
    assert IMPLEMENTATION in ("pure", "native")
    assert NATIVE == (IMPLEMENTATION == "native")

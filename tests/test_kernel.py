"""The table-driven kernel: tables, machine semantics, artifact transport.

The kernel's correctness story is differential — it reruns the exact
:class:`PVMachine`'s merged-GSS semantics over dense tables, so every
test here pins it against the machine (and the Earley reference) rather
than against hand-derived expectations.  The structural tests cover what
the differential corpus cannot see directly: the compiled table shapes,
the >63-position bitmask regime (where masks stop fitting a machine
word), and the pickle/wire path the artifact store ships tables through.
"""

from __future__ import annotations

import pickle
import random
from itertools import product

import pytest

from repro.core.dag import ENTRY, build_dag
from repro.core.kernel import (
    EMISSIONS_LIMIT,
    IMPLEMENTATION,
    NATIVE,
    KernelMachine,
    kernel_machine_for_dtd,
)
from repro.core.machine import PVMachine
from repro.core.pv import PVChecker
from repro.core.tables import CompiledTables, compile_tables
from repro.dtd import catalog
from repro.dtd.model import PCDATA
from repro.dtd.parser import parse_dtd
from repro.dtd.random_gen import random_dtd
from repro.service.compiled import compile_schema
from repro.service.store import decode_artifact, encode_artifact
from repro.workloads.degrade import degrade
from repro.workloads.docgen import DocumentGenerator
from repro.xmlmodel.delta import SIGMA
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
        tables = _tables(catalog.paper_figure1())
        machine = KernelMachine(tables, "r")
        machine.recognize(["a"])
        assert tables.emissions  # the run populated the shared memo
        revived = pickle.loads(pickle.dumps(tables))
        assert revived.emissions == {}
        # ...and the revived tables still drive verdicts.
        assert KernelMachine(revived, "r").recognize(["a"])


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
        peak = 0
        for _ in range(1000):
            children = "".join(rng.choice(("<a/>", "<b/>")) for _ in range(60))
            checker.check_text(f"<r>{children}</r>")
            peak = max(peak, len(schema.tables.emissions))
        assert peak <= EMISSIONS_LIMIT
        # The unbounded memo would have passed the bound well before this.
        assert peak > EMISSIONS_LIMIT // 2


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

    def test_unknown_symbols_reject(self):
        machine = kernel_machine_for_dtd(catalog.paper_figure1())
        assert not machine.recognize(["undeclared-element"])

    def test_machine_for_non_root_element(self):
        machine = kernel_machine_for_dtd(catalog.paper_figure1(), "f")
        assert machine.recognize(["c", "e"])
        assert not machine.recognize(["e", "c"])


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
        assert schema.has_tables
        blob = encode_artifact(schema)
        revived = decode_artifact(blob, schema.fingerprint)
        assert revived is not None
        # The shipped pickle carries the tables — no rebuild on arrival.
        assert revived.has_tables
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

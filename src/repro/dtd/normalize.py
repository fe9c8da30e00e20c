"""Corollary 3.1 normal form for content models.

The paper proves (Corollary 3.1) that for the *potential validity* language
the ``?`` operator can be removed outright and every ``+`` replaced by ``*``
without changing ``L(G'_{T,r})`` — a consequence of Theorem 3 (every
nonterminal of ``G'`` derives the empty string).  All PV machinery
(star-groups, the DAG model, the recognizers) operates on this normal form,
which :func:`repro.dtd.stargroups.flatten` applies on its way; the
*standard* validator keeps the original models, where ``?``/``+`` of
course still matter.
"""

from __future__ import annotations

from repro.dtd.ast import Choice, ContentNode, Opt, Plus, Seq, Star, fold

__all__ = ["normalize_node"]


def normalize_node(node: ContentNode) -> ContentNode:
    """Return *node* with every ``?`` dropped and every ``+`` turned into ``*``.

    The transformation is purely structural and preserves the paper's
    position counting: no ``Name``/``PCData`` leaf is added or removed.

    >>> from repro.dtd.parser import parse_content_spec
    >>> from repro.dtd.ast import to_text
    >>> model = parse_content_spec("(b?, (c | f)+, d)").model
    >>> to_text(normalize_node(model))
    '(b, (c | f)*, d)'
    """

    def up(current: ContentNode, results: list) -> ContentNode:
        if isinstance(current, (Seq, Choice)):
            return type(current)(tuple(results))
        if isinstance(current, (Star, Plus)):
            return Star(results[0])
        if isinstance(current, Opt):
            return results[0]
        return current  # Name and PCData leaves

    return fold(node, up)  # type: ignore[return-value]


"""Run a recursion written as generators from an explicit stack.

A frame is a generator: it yields the generator of each sub-call and is
sent that call's return value, so a call chain of any depth costs no
interpreter stack.  No frame catches an exception, so an exception
leaves the driver as it left the frame.
"""

from __future__ import annotations

from typing import Any, Generator

__all__ = ["trampoline"]


def trampoline(frame: Generator) -> Any:
    """Run *frame* and every sub-call it yields; return *frame*'s value."""
    stack = [frame]
    value = None
    while True:
        try:
            call = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(call)
            value = None

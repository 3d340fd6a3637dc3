"""The one grammar for graph descriptions: ``oridom construct`` and the
``g=``/``h=`` factors of ``oridom orient`` are read by it.

Grammar:  expr = op '(' expr ',' expr ')' | family
          op = cart | lex | corona | join
          family = name ':' int[,int...]     e.g. path:3, multi:1,2,2
          name = path | cycle | complete | empty | multi | multipartite

``cart(path:3,complete:3)`` builds the Cartesian product of P_3 and K_3.
An int is a run of ASCII digits; ``parse_int`` holds that rule for every
integer oridom reads from text (``orient`` parameters, graph files, cache
values and the ``--max-edges``/``--seed`` flags too). Spaces and tabs may
separate tokens; no other character counts as whitespace.
"""

from __future__ import annotations

from .graphs import UndirectedGraph, complete, cycle, empty, multipartite, path
from .products import cartesian, corona, join, lexicographic

# the only characters that separate tokens or fields in text oridom reads
SPACES = " \t"

_OPS = {
    "cart": cartesian,
    "lex": lexicographic,
    "corona": corona,
    "join": join,
}
_FAMILIES = {"path": path, "cycle": cycle, "complete": complete, "empty": empty,
             "multi": multipartite, "multipartite": multipartite}


class ExprError(ValueError):
    """Malformed construction expression, or an integer that is not ASCII digits."""


def _ascii_digits(text: str) -> bool:
    # str.isdigit() alone also takes '²' and '٣'; int() takes '٣', '1_0', '+2' and spaces
    return text.isascii() and text.isdigit()


def parse_int(text: str) -> int:
    """The integer that ``text``, a whole run of ASCII digits, spells."""
    if not _ascii_digits(text):
        raise ExprError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ExprError(f"integer too long: {len(text)} digits") from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in SPACES:
            self.pos += 1

    def _expect(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ExprError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def _word(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise ExprError(f"expected a name at position {start} in {self.text!r}")
        return self.text[start : self.pos]

    def parse(self) -> UndirectedGraph:
        graph = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprError(f"trailing input at position {self.pos} in {self.text!r}")
        return graph

    def _expr(self) -> UndirectedGraph:
        name = self._word()
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            if name not in _OPS:
                raise ExprError(f"unknown operation {name!r}")
            self._expect("(")
            left = self._expr()
            self._expect(",")
            right = self._expr()
            self._expect(")")
            try:
                return _OPS[name](left, right)
            except ValueError as exc:  # the product is over the size cap
                raise ExprError(str(exc)) from None
        self._expect(":")
        params = [self._int()]
        self._skip_ws()
        while self.pos < len(self.text) and self.text[self.pos] == ",":
            # a comma binds to the family only when another integer follows
            mark = self.pos
            self.pos += 1
            self._skip_ws()
            if self.pos < len(self.text) and _ascii_digits(self.text[self.pos]):
                params.append(self._int())
            else:
                self.pos = mark
                break
        if name not in _FAMILIES:
            raise ExprError(f"unknown family {name!r}")
        if name not in ("multi", "multipartite") and len(params) != 1:
            raise ExprError(f"family {name!r} takes one parameter, got {params}")
        try:
            return _FAMILIES[name](*params)
        except ValueError as exc:
            raise ExprError(str(exc)) from None

    def _int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _ascii_digits(self.text[self.pos]):
            self.pos += 1
        if start == self.pos:
            raise ExprError(f"expected an integer at position {start} in {self.text!r}")
        try:
            return parse_int(self.text[start : self.pos])
        except ExprError:  # more digits than int() converts
            raise ExprError(f"integer too long at position {start}") from None


def parse_graph_expr(text: str) -> UndirectedGraph:
    """Build the graph that a construction expression describes."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExprError(
            f"expression nested too deeply for the parser ({len(text)} characters)"
        ) from None

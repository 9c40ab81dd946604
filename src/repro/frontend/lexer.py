"""Table-driven lexer for the C subset.

Every common token (hex, float and integer literals with their suffixes,
ASCII identifiers and keywords, operators, newlines) is matched by one
compiled master regex at the current offset, with the blanks before it
folded into the same match.  Operators are an alternation built
longest-first from :data:`~repro.frontend.tokens.MULTI_CHAR_OPERATORS` and
:data:`~repro.frontend.tokens.SINGLE_CHAR_OPERATORS`, so maximal munch is
one regex step.  Lines are counted at newline matches, and a column is the
offset from the start of the current line.  The rare tokens the master
regex leaves out (pragma markers, char and string literals, non-ASCII
identifiers) have small dedicated matchers.

Malformed input raises :class:`~repro.frontend.errors.LexError` with the
location of the offending token, and nothing else: source arrives from
outside the program (``CompileServer`` accepts it over TCP).
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.frontend.errors import LexError, SourceLocation
from repro.frontend.preprocessor import PRAGMA_MARKER
from repro.frontend.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)

#: Blanks other than newline; newlines are their own alternative so that
#: line starts are known without rescanning the text.
_BLANKS = r"[ \t\r\f\v]*"
_WHITESPACE = r"[ \t\r\n\f\v]*"

#: ``\d`` is any Unicode decimal digit, as ``int``/``float`` accept them.
_EXPONENT = r"(?:[eE][+-]?\d+)"

_OPERATORS = {text: kind for text, kind in MULTI_CHAR_OPERATORS}
_OPERATORS.update(SINGLE_CHAR_OPERATORS)

#: The master regex.  Its named groups are its top-level alternatives; the
#: group name of a match (``lastgroup``) is the token class.  Suffixes sit
#: outside the named groups: they are consumed but not part of the text.
#: Order matters where alternatives share a first character: hex before
#: float before int, and float before the ``.`` operator.
_TOKEN_RE = re.compile(
    _BLANKS
    + "(?:"
    + "|".join(
        [
            r"(?P<name>[A-Za-z_]\w*)",
            r"(?P<hex>0[xX][0-9a-fA-F]*)[uUlL]*",
            r"(?P<float>\d+\.(?!\.)\d*" + _EXPONENT + r"?"
            r"|\d+" + _EXPONENT + r"|\.\d+" + _EXPONENT + r"?)[fFlL]?",
            r"(?P<int>\d+)[uUlL]*",
            "(?P<op>"
            + "|".join(
                re.escape(text) for text in sorted(_OPERATORS, key=len, reverse=True)
            )
            + ")",
            r"(?P<newline>\n)",
        ]
    )
    + ")"
)

_BLANKS_RE = re.compile(_BLANKS)
_WORD_RE = re.compile(r"\w*")
_PRAGMA_OPEN_RE = re.compile(_WHITESPACE + r'\(' + _WHITESPACE + '"')
_PRAGMA_CLOSE_RE = re.compile(_WHITESPACE + r"\)?" + _WHITESPACE + ";?")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\[\s\S])*)"')
_STRING_ESCAPE_RE = re.compile(r"\\([\s\S])")

_CHAR_ESCAPES = {"n": 10, "t": 9, "0": 0, "r": 13, "\\": 92, "'": 39, '"': 34}
_STRING_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", '"': '"'}


class Lexer:
    """Converts preprocessed source text into a list of :class:`Token`.

    The lexer expects comments to already be stripped and pragmas to be
    rewritten as ``__REPRO_PRAGMA__("...");`` by the preprocessor; it turns
    those markers back into first-class ``PRAGMA`` tokens so the parser can
    attach them to the following loop.
    """

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename

    def tokenize(self) -> List[Token]:
        source = self.source
        filename = self.filename
        match_token = _TOKEN_RE.match
        operators = _OPERATORS
        tokens: List[Token] = []
        append = tokens.append
        position = 0
        line = 1
        line_start = 0  # offset of the first character of ``line``
        while True:
            match = match_token(source, position)
            if match is None:
                start = _BLANKS_RE.match(source, position).end()
                location = SourceLocation(line, start - line_start + 1, filename)
                if start == len(source):
                    append(Token(TokenKind.EOF, "", location))
                    return tokens
                token, position = self._lex_rare(start, location)
            else:
                group = match.lastgroup
                position = match.end()
                if group == "newline":
                    line += 1
                    line_start = position
                    continue
                start = match.start(group)
                text = match.group(group)
                location = SourceLocation(line, start - line_start + 1, filename)
                if group == "name":
                    if text in KEYWORDS:
                        append(Token(TokenKind.KEYWORD, text, location, text))
                        continue
                    if text != PRAGMA_MARKER:
                        append(Token(TokenKind.IDENTIFIER, text, location, text))
                        continue
                    token, position = self._lex_pragma_marker(position, location)
                elif group == "op":
                    append(Token(operators[text], text, location))
                    continue
                elif group == "int":
                    append(Token(TokenKind.INT_LITERAL, text, location, int(text, 10)))
                    continue
                elif group == "float":
                    append(Token(TokenKind.FLOAT_LITERAL, text, location, float(text)))
                    continue
                elif len(text) == 2:
                    raise LexError("hexadecimal literal requires digits", location)
                else:
                    append(Token(TokenKind.INT_LITERAL, text, location, int(text, 16)))
                    continue
            # A rare token may span lines (a string, a pragma marker).
            append(token)
            newlines = source.count("\n", start, position)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, position) + 1

    # -- rare tokens: each returns the token and the offset after it ----------

    def _lex_rare(self, start: int, location: SourceLocation) -> Tuple[Token, int]:
        """Lex a token the master regex does not cover."""
        source = self.source
        ch = source[start]
        if ch == "'":
            return self._lex_char(start, location)
        if ch == '"':
            return self._lex_string(start, location)
        if ch.isalpha():
            end = _WORD_RE.match(source, start + 1).end()
            text = source[start:end]
            return Token(TokenKind.IDENTIFIER, text, location, text), end
        if ch.isdigit():
            # A digit int() cannot read, such as a superscript.
            raise LexError(f"invalid digit {ch!r} in numeric literal", location)
        raise LexError(f"unexpected character {ch!r}", location)

    def _lex_pragma_marker(
        self, position: int, location: SourceLocation
    ) -> Tuple[Token, int]:
        # Expect: ("pragma body");  — produced by the preprocessor.
        source = self.source
        opening = _PRAGMA_OPEN_RE.match(source, position)
        if opening is None:
            raise LexError("malformed pragma marker", location)
        close = source.find('"', opening.end())
        if close < 0:
            raise LexError("unterminated pragma marker", location)
        body = source[opening.end() : close]
        end = _PRAGMA_CLOSE_RE.match(source, close + 1).end()
        return Token(TokenKind.PRAGMA, body, location, body), end

    def _lex_char(self, start: int, location: SourceLocation) -> Tuple[Token, int]:
        source = self.source
        index = start + 1  # past the opening quote
        if source.startswith("\\", index):
            index += 1
            if index >= len(source):
                raise LexError("unterminated character literal", location)
            escape = source[index]
            value = _CHAR_ESCAPES.get(escape, ord(escape))
        elif index < len(source):
            value = ord(source[index])
        else:
            raise LexError("unterminated character literal", location)
        if not source.startswith("'", index + 1):
            raise LexError("unterminated character literal", location)
        token = Token(TokenKind.CHAR_LITERAL, f"'{chr(value)}'", location, value)
        return token, index + 2

    def _lex_string(self, start: int, location: SourceLocation) -> Tuple[Token, int]:
        match = _STRING_RE.match(self.source, start)
        if match is None:
            raise LexError("unterminated string literal", location)
        text = _STRING_ESCAPE_RE.sub(
            lambda escape: _STRING_ESCAPES.get(escape.group(1), escape.group(1)),
            match.group(1),
        )
        return Token(TokenKind.STRING_LITERAL, text, location, text), match.end()


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Tokenize preprocessed source text."""
    return Lexer(source, filename).tokenize()

"""Lexer tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_lexer import reference_tokenize

from repro.frontend.errors import LexError, SourceLocation
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind

#: Fragments that stress the lexer's number, operator, literal, blank and
#: pragma-marker rules when glued together in any order.
C_TOKEN_SOUP = [
    "..", ".", "1.", ".5", "1e", "E", "e", "5.e3", "1e+5", "2e-3", "0x",
    "0X1f", "0", "9", "u", "U", "l", "L", "f", "F", "a", "_x", "int",
    "+", "++", "a+++b", "-", "->", "<", "<<=", ">>", "=", "==", "!", "&&",
    "|", ";", "(", ")", "{", "]", " ", "\t", "\n", "\f", "\v", "\r",
    "'", "'a'", "'\\n'", '"', '"s"', "\\", "__REPRO_PRAGMA__",
    '("vectorize_width(4)");', "$", "#", "@", "²", "é", "٣",
]
C_SOUP = "".join(sorted(set("".join(C_TOKEN_SOUP))))


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo")
        assert tokens[0].kind == TokenKind.KEYWORD
        assert tokens[0].text == "int"
        assert tokens[1].kind == TokenKind.IDENTIFIER
        assert tokens[1].text == "foo"

    def test_eof_is_last(self):
        tokens = tokenize("x")
        assert tokens[-1].kind == TokenKind.EOF

    def test_empty_source_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == TokenKind.EOF

    def test_underscore_identifier(self):
        tokens = tokenize("__attribute__ _x x_1")
        assert tokens[0].kind == TokenKind.KEYWORD
        assert tokens[1].text == "_x"
        assert tokens[2].text == "x_1"

    def test_whitespace_is_skipped(self):
        assert texts("a\t \n b") == ["a", "b"]


class TestNumbers:
    def test_decimal_integer(self):
        token = tokenize("1234")[0]
        assert token.kind == TokenKind.INT_LITERAL
        assert token.value == 1234

    def test_hex_integer(self):
        token = tokenize("0xFF")[0]
        assert token.kind == TokenKind.INT_LITERAL
        assert token.value == 255

    def test_integer_suffixes_ignored(self):
        token = tokenize("10UL")[0]
        assert token.value == 10

    def test_float_literal(self):
        token = tokenize("3.5")[0]
        assert token.kind == TokenKind.FLOAT_LITERAL
        assert token.value == pytest.approx(3.5)

    def test_float_with_exponent(self):
        token = tokenize("1e3")[0]
        assert token.kind == TokenKind.FLOAT_LITERAL
        assert token.value == pytest.approx(1000.0)

    def test_float_with_f_suffix(self):
        token = tokenize("0.25f")[0]
        assert token.kind == TokenKind.FLOAT_LITERAL
        assert token.value == pytest.approx(0.25)

    def test_leading_dot_float(self):
        token = tokenize(".5")[0]
        assert token.kind == TokenKind.FLOAT_LITERAL
        assert token.value == pytest.approx(0.5)


class TestOperators:
    @pytest.mark.parametrize(
        "source, kind",
        [
            ("+", TokenKind.PLUS),
            ("-", TokenKind.MINUS),
            ("*", TokenKind.STAR),
            ("/", TokenKind.SLASH),
            ("%", TokenKind.PERCENT),
            ("<<", TokenKind.SHL),
            (">>", TokenKind.SHR),
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
            ("==", TokenKind.EQ),
            ("!=", TokenKind.NE),
            ("&&", TokenKind.LOGICAL_AND),
            ("||", TokenKind.LOGICAL_OR),
            ("+=", TokenKind.PLUS_ASSIGN),
            ("-=", TokenKind.MINUS_ASSIGN),
            ("*=", TokenKind.STAR_ASSIGN),
            ("++", TokenKind.INCREMENT),
            ("--", TokenKind.DECREMENT),
            ("<<=", TokenKind.SHL_ASSIGN),
        ],
    )
    def test_operator_kinds(self, source, kind):
        assert tokenize(source)[0].kind == kind

    def test_maximal_munch(self):
        # '+++' lexes as '++' then '+'.
        tokens = tokenize("a+++b")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.IDENTIFIER,
            TokenKind.INCREMENT,
            TokenKind.PLUS,
            TokenKind.IDENTIFIER,
        ]

    def test_brackets_and_punctuation(self):
        assert kinds("a[i];")[:5] == [
            TokenKind.IDENTIFIER,
            TokenKind.LBRACKET,
            TokenKind.IDENTIFIER,
            TokenKind.RBRACKET,
            TokenKind.SEMICOLON,
        ]

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestLiterals:
    def test_char_literal(self):
        token = tokenize("'A'")[0]
        assert token.kind == TokenKind.CHAR_LITERAL
        assert token.value == 65

    def test_char_escape(self):
        token = tokenize(r"'\n'")[0]
        assert token.value == 10

    def test_string_literal(self):
        token = tokenize('"hello"')[0]
        assert token.kind == TokenKind.STRING_LITERAL
        assert token.value == "hello"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_filename_propagates(self):
        tokens = tokenize("x", filename="kernel.c")
        assert tokens[0].location.filename == "kernel.c"


class TestPragmaMarker:
    def test_pragma_marker_round_trip(self):
        from repro.frontend.preprocessor import preprocess

        text, _ = preprocess("#pragma clang loop vectorize_width(4)\nint x;")
        tokens = tokenize(text)
        assert tokens[0].kind == TokenKind.PRAGMA
        assert "vectorize_width(4)" in tokens[0].value


class TestMalformedInput:
    """Source reaches the lexer from outside the program (``CompileServer``
    accepts it over TCP), so malformed text must fail as a located
    ``LexError``, never as an incidental ``TypeError``/``ValueError``."""

    @pytest.mark.parametrize(
        "source, location",
        [
            ("x = '", (1, 5)),
            ("x = '\\", (1, 5)),
            ("x = 'ab'", (1, 5)),
            ("x = ²;", (1, 5)),
            ("x = 1²;", (1, 6)),
            ("\n  0x;", (2, 3)),
            ("y = \"abc", (1, 5)),
            ("__REPRO_PRAGMA__ x", (1, 1)),
            ('__REPRO_PRAGMA__("abc', (1, 1)),
        ],
    )
    def test_raises_located_lex_error(self, source, location):
        with pytest.raises(LexError) as raised:
            tokenize(source, filename="k.c")
        assert raised.value.location == SourceLocation(*location, "k.c")

    @settings(max_examples=300, deadline=None)
    @given(source=st.one_of(st.text(), st.text(alphabet=C_SOUP)))
    def test_any_text_lexes_or_raises_lex_error(self, source):
        try:
            tokens = tokenize(source)
        except LexError:
            return
        assert tokens[-1].kind == TokenKind.EOF
        assert all(token.kind != TokenKind.EOF for token in tokens[:-1])


def lex_outcome(lex, source):
    """A lexer's tokens, or the message and location of its ``LexError``."""
    try:
        return lex(source, "k.c")
    except LexError as error:
        return (error.message, error.location)


def assert_same_as_reference(source):
    """The table-driven lexer behaves exactly like the char-at-a-time one.

    The one allowed difference: inputs the reference crashed on with a
    non-``LexError`` (for example ``'`` at end of input, or a superscript
    digit in a number) must now give tokens or a ``LexError``.
    """
    try:
        expected = lex_outcome(reference_tokenize, source)
    except (TypeError, ValueError):
        lex_outcome(tokenize, source)
        return
    assert lex_outcome(tokenize, source) == expected


def bundled_kernels():
    from repro.datasets import (
        dot_product_kernel,
        llvm_vectorizer_suite,
        mibench_suite,
        polybench_suite,
        test_benchmarks,
    )

    return [
        dot_product_kernel(),
        *llvm_vectorizer_suite(),
        *test_benchmarks(),
        *polybench_suite(),
        *mibench_suite(),
    ]


class TestReferenceLexerEquivalence:
    def test_bundled_kernels_plain_and_with_pragmas(self):
        from repro.core.pragma_injector import inject_pragmas
        from repro.frontend.preprocessor import preprocess

        kernels = bundled_kernels()
        for kernel in kernels:
            decisions = {loop.loop_index: (4, 2) for loop in kernel.loops()}
            annotated = inject_pragmas(
                kernel.source, decisions, function_name=kernel.function_name
            )
            assert "__REPRO_PRAGMA__" in preprocess(annotated)[0] or not decisions
            for source in (kernel.source, annotated):
                text, _ = preprocess(source)
                assert lex_outcome(tokenize, text) == lex_outcome(
                    reference_tokenize, text
                ), kernel.name

    @settings(max_examples=400, deadline=None)
    @given(pieces=st.lists(st.sampled_from(C_TOKEN_SOUP), max_size=16))
    def test_token_soup(self, pieces):
        assert_same_as_reference("".join(pieces))

    @pytest.mark.parametrize(
        "source",
        ["..", "1.", ".5", "1e", "1e+", "5.e3", "1..2", "0x", "0xu", "0x1Fu",
         "a+++b", "10UL", "7lu", "3.5f", "1e3L", "a\f\v\rb", "\r\n x",
         '__REPRO_PRAGMA__ ( "vectorize_width(4)" ) ;', "'\\''", "'\\q'",
         '"a\\"b\\n"', "'\n'", "x = ٣;", "é1 = 2"],
    )
    def test_edge_cases(self, source):
        assert_same_as_reference(source)

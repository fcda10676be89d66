"""Hand-rolled SQL lexer with line/column tracking.

Every token carries its 1-based source position, and every
:class:`~repro.errors.SqlError` raised downstream points back to one --
so a typo in a 5-line statement is reported as ``line 3, column 17``
rather than "syntax error".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SqlError

__all__ = ["KEYWORDS", "Token", "tokenize"]

#: Reserved words, recognized case-insensitively and normalized to upper
#: case.  COST / SELECTIVITY / AT / SEMIJOIN are this dialect's extensions
#: for declaring UDF and predicate statistics inline.
KEYWORDS = frozenset(
    {
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "AND",
        "AS",
        "COUNT",
        "SUM",
        "MIN",
        "MAX",
        "AVG",
        "COST",
        "SELECTIVITY",
        "SEMIJOIN",
        "AT",
        "CLIENT",
        "SERVER",
    }
)

#: Two-character operators first so ``<=`` never lexes as ``<`` ``=``.
_TWO_CHAR = ("<=", ">=", "<>", "!=")
_ONE_CHAR = frozenset("(),.*=<>")


@dataclass(frozen=True)
class Token:
    """One lexical token: kind, source text, and 1-based position."""

    kind: str  # 'keyword', 'ident', 'number', 'string', 'symbol', 'eof'
    text: str
    line: int
    column: int

    def matches(self, kind: str, text: str | None = None) -> bool:
        return self.kind == kind and (text is None or self.text == text)


def tokenize(sql: str) -> list[Token]:
    """Split ``sql`` into tokens; raise :class:`SqlError` on bad input."""
    tokens: list[Token] = []
    line, column = 1, 1
    index, length = 0, len(sql)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if sql[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = sql[index]
        if char in " \t\r\n":
            advance(1)
            continue
        if sql.startswith("--", index):  # line comment
            while index < length and sql[index] != "\n":
                advance(1)
            continue
        start_line, start_column = line, column
        if char.isdigit() or (
            char == "." and index + 1 < length and sql[index + 1].isdigit()
        ):
            end = index
            seen_dot = seen_exp = False
            while end < length:
                c = sql[end]
                if c.isdigit():
                    end += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    end += 1
                elif c in "eE" and not seen_exp and end > index:
                    seen_exp = True
                    end += 1
                    if end < length and sql[end] in "+-":
                        end += 1
                else:
                    break
            text = sql[index:end]
            try:
                float(text)
            except ValueError:
                raise SqlError(f"malformed number {text!r}", start_line, start_column)
            tokens.append(Token("number", text, start_line, start_column))
            advance(end - index)
            continue
        if char.isalpha() or char == "_":
            end = index
            while end < length and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            text = sql[index:end]
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, start_line, start_column))
            else:
                tokens.append(Token("ident", text, start_line, start_column))
            advance(end - index)
            continue
        if char == "'":
            end = index + 1
            while end < length and sql[end] != "'":
                end += 1
            if end >= length:
                raise SqlError("unterminated string literal", start_line, start_column)
            tokens.append(Token("string", sql[index + 1 : end], start_line, start_column))
            advance(end + 1 - index)
            continue
        two = sql[index : index + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("symbol", two, start_line, start_column))
            advance(2)
            continue
        if char in _ONE_CHAR:
            tokens.append(Token("symbol", char, start_line, start_column))
            advance(1)
            continue
        raise SqlError(f"unexpected character {char!r}", start_line, start_column)

    tokens.append(Token("eof", "", line, column))
    return tokens

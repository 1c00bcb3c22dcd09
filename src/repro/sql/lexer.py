"""SQL tokenizer."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

from repro.errors import UserError


class SQLSyntaxError(UserError):
    sqlstate = "42601"


KEYWORDS = {
    "SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
    "DELETE", "CREATE", "TABLE", "INDEX", "UNIQUE", "ON", "USING", "DROP",
    "BEGIN", "COMMIT", "ROLLBACK", "TO", "SAVEPOINT", "RELEASE", "PREPARE",
    "PREPARED", "TRANSACTION", "ISOLATION", "LEVEL", "READ", "COMMITTED",
    "REPEATABLE", "SERIALIZABLE", "ONLY", "DEFERRABLE", "LOCK", "IN", "MODE",
    "AND", "OR", "NOT", "BETWEEN", "TRUE", "FALSE", "NULL", "ORDER", "BY",
    "ASC", "DESC", "LIMIT", "FOR", "COUNT", "SUM", "MIN", "MAX", "AVG",
    "PRIMARY", "KEY", "VACUUM", "AS", "BTREE", "HASH", "ACCESS", "SHARE",
    "ROW", "EXCLUSIVE", "S2PL", "GIST", "ANALYZE", "EXPLAIN", "EXECUTE",
    "DEALLOCATE", "ALL", "JOIN", "INNER", "GROUP", "HAVING",
}

SYMBOLS = ("<>", "!=", "<=", ">=", "=", "<", ">", "(", ")", ",", "*", "+",
           "-", ";", ".")


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | ident | number | string | symbol | end
    value: Any
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.value in names

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind == "symbol" and self.value in symbols


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text[i:i + 2] == "--":
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch == "'":
            j = i + 1
            parts = []
            while True:
                if j >= n:
                    raise SQLSyntaxError(f"unterminated string at {i}")
                if text[j] == "'":
                    if text[j:j + 2] == "''":  # escaped quote
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(Token("string", "".join(parts), i))
            i = j + 1
            continue
        if ch == "$" and i + 1 < n and text[i + 1].isdigit():
            # Prepared-statement parameter: $1, $2, ...
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("param", int(text[i + 1:j]), i))
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "."
                                                   and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            literal = text[i:j]
            value = float(literal) if seen_dot else int(literal)
            tokens.append(Token("number", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, i))
            else:
                # Interned, so rows stored from separately parsed
                # statements share their column-name keys.
                tokens.append(Token("ident", sys.intern(word), i))
            i = j
            continue
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(Token("symbol", symbol, i))
                i += len(symbol)
                break
        else:
            raise SQLSyntaxError(f"unexpected character {ch!r} at {i}")
    tokens.append(Token("end", None, n))
    return tokens

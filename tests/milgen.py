"""Seeded random MIL programs for differential tests of the static passes.

Two generators, both deterministic for a given seed:

* :func:`typed_programs` — well-formed procedures: declared names, right
  arities, BAT-typed parameters, chains of selections, bulk operators,
  joins and appends under ``IF``/``WHILE``/``PARALLEL``. Their findings are
  the interesting ones (MIL006 inserts, FLOW002 dead stores, PERF lints).
* :func:`wild_programs` — anything the grammar allows: undefined and
  undeclared names, wrong arities, unknown methods and commands, nested
  ``PROC``\\ s, ``RETURN`` mid-block and file-level statements.

:data:`SIGNATURES` is a small command table with value contracts and one
extension module, for the ``FLOW004``/``FLOW005`` rules.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.errors import MilSyntaxError
from repro.monet.mil import parse
from repro.monet.module import CommandSignature

SIGNATURES = {
    "quant": CommandSignature(
        "quant", ("BAT[void,dbl]",), "BAT[void,int]", module="m", arg_ranges=((0.0, 1.0),)
    ),
    "score": CommandSignature("score", ("BAT[void,int]",), "flt", module="m"),
    "prob": CommandSignature("prob", (), "dbl", module="m", returns_range=(0.0, 1.0)),
    "mmap": CommandSignature("mmap", ("BAT", "str", "dbl"), "BAT", module="bulk"),
    "mselect": CommandSignature("mselect", ("BAT", "str", "any"), "BAT", module="bulk"),
    "print": CommandSignature("print", ("any",), "any", varargs=True),
    "iscore": CommandSignature("iscore", ("int",), "flt"),
}

# -- well-formed procedures -------------------------------------------------

_BAT_EXPRS = (
    "{b}.select({lo}, {hi})", 'mselect({b}, "{cmp}", {c})', 'mmap({b}, "{ar}", {c})',
    "{b}.sort", "{b}.copy", "{b}.join({b2})", "{b}.semijoin({b2})", "{b}.kunion({b2})",
    "{b}.slice(0, 10)", 'msetop("union", {b}, {b2})', "{b}.reverse.reverse", "{b}.mark",
    "{b}.unique", "{b}", "new(void, dbl)", "{b}.histogram", "quantize({b})",
)
_SCALAR_EXPRS = (
    'maggr({b}, "{agg}")', "{b}.count", "{b}.max", "{b}.min", "{b}.avg", "{b}.sum",
    "{s} + {c}", "{s} * 2", "{c}", "{s}", "{b}.find(0)", "{b}.exist(1)",
)


class _Typed:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.procs: list[tuple[str, int, int]] = []

    def fill(self, template: str, bats: list[str], scalars: list[str]) -> str:
        r = self.rng
        return template.format(
            b=r.choice(bats), b2=r.choice(bats), s=r.choice(scalars),
            c=r.choice(["0.2", "0.5", "1.0", "2.0", "3"]),
            lo=r.choice(["0.1", "0.0", "0.5"]), hi=r.choice(["0.9", "1.0", "2.0"]),
            cmp=r.choice(["<=", ">=", "<", ">", "="]), ar=r.choice(["*", "+", "-", "/"]),
            agg=r.choice(["count", "max", "min", "avg", "sum"]),
        )

    def bat(self, bats: list[str], scalars: list[str]) -> str:
        return self.fill(self.rng.choice(_BAT_EXPRS), bats, scalars)

    def scalar(self, bats: list[str], scalars: list[str]) -> str:
        return self.fill(self.rng.choice(_SCALAR_EXPRS), bats, scalars)

    def block(self, bats: list[str], scalars: list[str], depth: int, pad: str, n: int) -> str:
        r, out = self.rng, []
        for _ in range(n):
            k = r.randrange(10 if depth < 3 else 5)
            inner = pad + "  "
            if k in (0, 1):
                out.append(f"{pad}{r.choice(bats)} := {self.bat(bats, scalars)};")
            elif k == 2:
                out.append(f"{pad}{r.choice(scalars)} := {self.scalar(bats, scalars)};")
            elif k == 3:
                value = r.choice(["0.5", "1.5", r.choice(scalars)])
                out.append(f"{pad}{r.choice(bats)}.insert({value});")
            elif k == 4 and self.procs and r.random() < 0.5:
                name, n_bats, n_scalars = r.choice(self.procs)
                args = [r.choice(bats) for _ in range(n_bats)]
                args += [r.choice(scalars) for _ in range(n_scalars)]
                out.append(f"{pad}{r.choice(scalars)} := {name}({', '.join(args)});")
            elif k == 4:
                out.append(f"{pad}{r.choice(bats)}.delete(0);")
            elif k in (5, 6):
                bound = r.choice(["0", "0.5", r.choice(scalars)])
                then = self.block(bats, scalars, depth + 1, inner, r.randrange(1, 5))
                text = f"{pad}IF ({r.choice(scalars)} > {bound}) {{\n{then}\n{pad}}}"
                if r.random() < 0.5:
                    orelse = self.block(bats, scalars, depth + 1, inner, r.randrange(1, 5))
                    text += f" ELSE {{\n{orelse}\n{pad}}}"
                out.append(text)
            elif k == 7:
                body = self.block(bats, scalars, depth + 1, inner, r.randrange(1, 5))
                out.append(f"{pad}WHILE ({r.choice(scalars)} < 4) {{\n{body}\n{pad}}}")
            elif k == 8:
                body = self.block(bats, scalars, depth + 1, inner, r.randrange(2, 4))
                out.append(f"{pad}PARALLEL {{\n{body}\n{pad}}}")
            else:
                var = f"v{r.randrange(100)}"
                if r.random() < 0.5:
                    out.append(f"{pad}VAR {var} := {self.scalar(bats, scalars)};")
                    out.append(f"{pad}{r.choice(scalars)} := {var};")
                else:
                    out.append(f"{pad}VAR {var} := {self.bat(bats, scalars)};")
                    out.append(f"{pad}{r.choice(bats)} := {var};")
        return "\n".join(out)

    def proc(self, index: int) -> str:
        r = self.rng
        n_bats, n_scalars = r.randrange(1, 3), r.randrange(0, 2)
        params = [
            f"BAT[{r.choice(['void', 'void', 'oid'])},{r.choice(['dbl', 'dbl', 'int'])}] f{j + 1}"
            for j in range(n_bats)
        ] + [f"int n{j}" for j in range(n_scalars)]
        bats = [f"f{j + 1}" for j in range(n_bats)] + ["x", "y"]
        scalars = [f"n{j}" for j in range(n_scalars)] + ["k", "m"]
        body = [
            "  VAR x := new(void, dbl);",
            f"  VAR y := {self.bat(bats[:n_bats], ['0'])};",
            "  VAR k := 0;",
            "  VAR m := 0.5;",
            self.block(bats, scalars, 0, "  ", r.randrange(2, 7)),
        ]
        returns = r.choice(["any", "int", "dbl", "BAT[void,dbl]"])
        result = r.choice(bats) if returns in ("any", "BAT[void,dbl]") else r.choice(scalars)
        body.append(f"  RETURN {result};")
        name = f"c{index}"
        self.procs.append((name, n_bats, n_scalars))
        return f"PROC {name}({', '.join(params)}) : {returns} := {{\n" + "\n".join(body) + "\n}\n"


def typed_programs(n: int, seed: int = 77) -> Iterator[tuple[str, str]]:
    """``n`` well-formed programs of one to three procedures each."""
    rng = random.Random(seed)
    for i in range(n):
        gen = _Typed(rng)
        yield f"typed{i}", "".join(gen.proc(j) for j in range(rng.randrange(1, 4)))


# -- anything the grammar allows --------------------------------------------

_TYPES = ("BAT[void,dbl]", "BAT[void,int]", "BAT[oid,dbl]", "BAT[void,flt]", "BAT",
          "int", "dbl", "str", "any")
_NAMES = ("a", "b", "c", "x", "y", "r", "s", "t")
_METHODS = (
    "insert", "insert_bulk", "delete", "replace", "find", "exist", "fetch", "reverse",
    "mirror", "mark", "copy", "slice", "unique", "sort", "select", "filter_tail", "join",
    "semijoin", "kdiff", "kunion", "max", "min", "sum", "avg", "count", "histogram",
    "heads", "tails", "tail_array", "head_array", "name", "head_type", "tail_type",
    "revrese", "tail_exists",
)
_COMMANDS = (
    "mselect", "mmap", "maggr", "msetop", "quantize", "quant", "score", "prob", "print",
    "persist", "dbnInfer", "hmmOneCall", "abs", "len", "iscore", "ghost", "threadcnt",
    "cancelpoint",
)
_OPS = ("+", "-", "*", "/", "<", ">", "<=", ">=", "=", "!=", "AND", "OR")
_STRINGS = ('"<="', '">="', '"*"', '"+"', '"count"', '"max"', '"avg"', '"union"', '"x"',
            '"="', '"<"', '"sum"', '"diff"')


class _Wild:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.procs: list[str] = []

    def literal(self) -> str:
        r = self.rng
        k = r.randrange(6)
        if k == 0:
            return str(r.randrange(-2, 5))
        if k == 1:
            return repr(r.choice([0.0, 0.5, 1.0, 2.0, 3.0, -1.0, 0.1, 0.9]))
        if k == 2:
            return r.choice(_STRINGS)
        if k == 3:
            return r.choice(["TRUE", "FALSE"])
        return str(r.randrange(0, 3))

    def expr(self, depth: int = 0) -> str:
        r = self.rng
        k = r.randrange(10 if depth < 3 else 3)
        if k == 0:
            return self.literal()
        if k in (1, 2):
            return r.choice(_NAMES + ("gbat", "meta_event_start"))
        if k == 3:
            head, tail = r.choice(["void", "oid", "int"]), r.choice(["dbl", "int", "str", "wrong"])
            return f"new({head}, {tail})"
        if k in (4, 5):
            method, n = r.choice(_METHODS), r.randrange(3)
            target = r.choice(_NAMES) if r.random() < 0.8 else f"({self.expr(depth + 1)})"
            if n == 0 and r.random() < 0.5:
                return f"{target}.{method}"
            return f"{target}.{method}({', '.join(self.expr(depth + 1) for _ in range(n))})"
        if k in (6, 7):
            func = r.choice(_COMMANDS + tuple(self.procs))
            args = [self.expr(depth + 1) for _ in range(r.randrange(4))]
            if func in ("mselect", "mmap", "maggr") and r.random() < 0.7:
                op = r.choice(['"<="', '">="', '"*"', '"+"', '"="', '"max"', '"count"', '"avg"'])
                args = [r.choice(_NAMES), op, self.literal()][: r.choice([2, 3, 3])]
            if func == "msetop" and r.random() < 0.7:
                args = [r.choice(['"union"', '"diff"']), r.choice(_NAMES), r.choice(_NAMES)]
            return f"{func}({', '.join(args)})"
        if k == 8:
            return f"({self.expr(depth + 1)} {r.choice(_OPS)} {self.expr(depth + 1)})"
        return f"{r.choice(['-', 'NOT '])}{self.expr(depth + 1)}"

    def statement(self, depth: int, pad: str) -> str:
        r = self.rng
        k = r.randrange(14 if depth < 3 else 8)
        if k in (0, 1):
            if r.random() < 0.2:
                return f"{pad}VAR {r.choice(_NAMES)};\n"
            return f"{pad}VAR {r.choice(_NAMES)} := {self.expr()};\n"
        if k in (2, 3):
            return f"{pad}{r.choice(_NAMES)} := {self.expr()};\n"
        if k in (4, 5):
            return f"{pad}{self.expr()};\n"
        if k == 6:
            method = r.choice(["insert", "delete", "insert_bulk", "replace"])
            args = ", ".join(self.expr(2) for _ in range(r.randrange(1, 3)))
            return f"{pad}{r.choice(_NAMES)}.{method}({args});\n"
        if k == 7:
            if r.random() < 0.3:
                return f"{pad}RETURN {self.expr()};\n"
            name, source = r.choice(_NAMES), r.choice(_NAMES)
            return f"{pad}{name} := {source}.select({self.literal()}, {self.literal()});\n"
        if k in (8, 9):
            text = f"{pad}IF ({self.expr()}) {{\n{self.block(depth + 1, pad + '  ')}{pad}}}"
            if r.random() < 0.6:
                text += f" ELSE {{\n{self.block(depth + 1, pad + '  ')}{pad}}}"
            return text + "\n"
        if k in (10, 11):
            return f"{pad}WHILE ({self.expr()}) {{\n{self.block(depth + 1, pad + '  ')}{pad}}}\n"
        if k == 12:
            return f"{pad}PARALLEL {{\n{self.block(depth + 1, pad + '  ', lo=2)}{pad}}}\n"
        if r.random() < 0.3:
            return self.proc(depth + 1, pad)
        return f"{pad}{r.choice(_NAMES)} := {r.choice(_NAMES)}.copy;\n"

    def block(self, depth: int, pad: str, lo: int = 1) -> str:
        return "".join(self.statement(depth, pad) for _ in range(self.rng.randrange(lo, 5)))

    def proc(self, depth: int = 0, pad: str = "") -> str:
        r = self.rng
        name = r.choice(["p", "q", "helper", "outer"]) + str(r.randrange(3))
        params = ", ".join(
            f"{r.choice(_TYPES)} {r.choice(_NAMES)}" for _ in range(r.randrange(0, 4))
        )
        returns = f" : {r.choice(_TYPES)}" if r.random() < 0.6 else ""
        self.procs.append(name)
        body = self.block(depth, pad + "  ")
        return f"{pad}PROC {name}({params}){returns} := {{\n{body}{pad}}}\n"


def wild_programs(n: int, seed: int = 1234) -> Iterator[tuple[str, str]]:
    """``n`` parseable programs of one to three procedures, some with
    file-level code."""
    rng = random.Random(seed)
    count = 0
    while count < n:
        gen = _Wild(rng)
        parts = [gen.proc() for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.3:
            parts.append(gen.block(1, ""))
        try:
            parse("".join(parts))
        except MilSyntaxError:  # e.g. NOT as a comparison operand
            continue
        yield f"wild{count}", "".join(parts)
        count += 1

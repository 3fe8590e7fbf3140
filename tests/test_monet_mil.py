"""MIL interpreter: tokenizer, parser, evaluation, procedures, PARALLEL."""

import pytest

from repro.errors import MilNameError, MilSyntaxError, MilTypeError
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.monet.mil import parse, tokenize


@pytest.fixture()
def kernel():
    return MonetKernel()


class TestTokenizer:
    def test_numbers(self):
        kinds = [t.kind for t in tokenize("1 2.5 2.2e-3 .5")]
        assert kinds == ["int", "float", "float", "float", "eof"]

    def test_strings_and_escapes(self):
        tokens = tokenize('"hello" "a\\"b"')
        assert tokens[0].kind == "string"
        assert tokens[1].kind == "string"

    def test_keywords_case_insensitive(self):
        assert tokenize("proc")[0].kind == "PROC"
        assert tokenize("Var")[0].kind == "VAR"

    def test_comments_skipped(self):
        tokens = tokenize("x # a comment\ny")
        assert [t.text for t in tokens[:-1]] == ["x", "y"]

    def test_unknown_character(self):
        with pytest.raises(MilSyntaxError):
            tokenize("x @ y")

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]


class TestParser:
    def test_var_decl(self):
        assert len(parse("VAR x := 1;")) == 1

    def test_missing_semicolon(self):
        with pytest.raises(MilSyntaxError):
            parse("VAR x := 1")

    def test_proc_with_bat_params(self):
        (proc,) = parse("PROC f(BAT[oid,dbl] a, int n) : str := { RETURN n; }")
        assert proc.params[0].type_name == "BAT[oid,dbl]"
        assert proc.params[1].type_name == "int"

    def test_nested_method_chain(self):
        parse("VAR y := (b.reverse).find(x);")

    def test_if_else_while(self):
        parse("IF (x > 1) { y := 1; } ELSE { y := 2; } WHILE (y < 5) { y := y + 1; }")


class TestEvaluation:
    def test_arithmetic(self, kernel):
        assert kernel.run("VAR x := 2 + 3 * 4; RETURN x;") == 14

    def test_precedence_parentheses(self, kernel):
        assert kernel.run("RETURN (2 + 3) * 4;") == 20

    def test_comparison_and_boolean(self, kernel):
        assert kernel.run("RETURN 1 < 2 AND NOT (3 = 4);") is True

    def test_string_concat(self, kernel):
        assert kernel.run('RETURN "a" + "b";') == "ab"

    def test_unary_minus(self, kernel):
        assert kernel.run("RETURN -3 + 5;") == 2

    def test_scientific_literal(self, kernel):
        assert kernel.run("RETURN 2.2e-3;") == pytest.approx(0.0022)

    def test_new_creates_bat(self, kernel):
        result = kernel.run("VAR b := new(void, int); b.insert(7); RETURN b;")
        assert isinstance(result, BAT)
        assert result.tails() == [7]

    def test_undeclared_assignment_rejected(self, kernel):
        with pytest.raises(MilNameError):
            kernel.run("x := 1;")

    def test_unknown_name(self, kernel):
        with pytest.raises(MilNameError):
            kernel.run("RETURN mystery;")

    def test_none_valued_attribute_is_a_method(self, kernel):
        # a transient BAT's name is None: still a MIL property, not a
        # missing method (the static checker accepts it, so must the run)
        kernel.run("PROC nm() : str := { VAR c := new(void, int); RETURN c.name; }")
        assert kernel.run("RETURN nm();") is None
        kernel.run('persist("speeds", new(void, dbl));')
        assert kernel.run("RETURN speeds.name;") == "speeds"
        with pytest.raises(MilNameError):
            kernel.run("VAR b := new(void, int); RETURN b.nosuch;")

    def test_private_attribute_blocked(self, kernel):
        with pytest.raises(MilNameError):
            kernel.run("VAR b := new(void, int); RETURN b._head;")

    def test_builtin_functions(self, kernel):
        assert kernel.run("RETURN sqrt(9.0);") == 3.0
        assert kernel.run("RETURN abs(-4);") == 4

    def test_if_branches(self, kernel):
        source = """
        VAR x := 10;
        VAR label := "";
        IF (x > 5) { label := "big"; } ELSE { label := "small"; }
        RETURN label;
        """
        assert kernel.run(source) == "big"

    def test_while_loop(self, kernel):
        source = """
        VAR total := 0;
        VAR i := 0;
        WHILE (i < 5) { total := total + i; i := i + 1; }
        RETURN total;
        """
        assert kernel.run(source) == 10


class TestProcedures:
    def test_define_and_call(self, kernel):
        kernel.run("PROC double(int n) : int := { RETURN n * 2; }")
        assert kernel.call("double", [21]) == 42

    def test_proc_arity_check(self, kernel):
        kernel.run("PROC f(int n) : int := { RETURN n; }")
        with pytest.raises(MilTypeError):
            kernel.call("f", [1, 2])

    def test_proc_bat_parameter_typecheck(self, kernel):
        kernel.run("PROC g(BAT[void,int] b) : int := { RETURN b.count(); }")
        with pytest.raises(MilTypeError):
            kernel.call("g", [42])

    def test_proc_calls_proc(self, kernel):
        kernel.run(
            """
            PROC inc(int n) : int := { RETURN n + 1; }
            PROC twice(int n) : int := { RETURN inc(inc(n)); }
            """
        )
        assert kernel.call("twice", [5]) == 7

    def test_unknown_proc(self, kernel):
        with pytest.raises(MilNameError):
            kernel.call("nope", [])

    def test_paper_fig4_shape(self, kernel):
        """The Fig. 4 pattern: parallel inserts, max, reverse-find."""
        kernel.register_command("score", lambda name: {"a": 0.2, "b": 0.9}[name])
        kernel.run(
            """
            PROC pick() : str := {
              VAR n := threadcnt(3);
              VAR parEval := new(str, flt);
              PARALLEL {
                parEval.insert("a", score("a"));
                parEval.insert("b", score("b"));
              }
              VAR best := parEval.max;
              RETURN (parEval.reverse).find(best);
            }
            """
        )
        assert kernel.call("pick", []) == "b"


class TestParallel:
    def test_parallel_inserts_complete(self, kernel):
        kernel.run(
            """
            VAR acc := new(str, int);
            VAR n := threadcnt(5);
            PARALLEL {
              acc.insert("a", 1);
              acc.insert("b", 2);
              acc.insert("c", 3);
              acc.insert("d", 4);
            }
            RETURN acc;
            """
        )
        # the final RETURN ran after the barrier
        kernel.run("VAR x := 0; RETURN x;")  # separate run ok
        # re-run to fetch the catalog-less local: use a PROC instead
        kernel.run(
            """
            PROC count4() : int := {
              VAR acc := new(str, int);
              PARALLEL {
                acc.insert("a", 1);
                acc.insert("b", 2);
                acc.insert("c", 3);
                acc.insert("d", 4);
              }
              RETURN acc.count();
            }
            """
        )
        assert kernel.call("count4", []) == 4

    def test_parallel_propagates_errors(self, kernel):
        def boom():
            raise ValueError("worker failure")

        kernel.register_command("boom", boom)
        with pytest.raises(ValueError):
            kernel.run("PARALLEL { boom(); }")

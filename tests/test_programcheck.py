"""Whole-program interprocedural analysis: call graph, summaries, CALLnnn.

Covers the callgraph structures (sites, fingerprints, SCC order), the
per-proc summary lattice and its bottom-up propagation, the three CALL
codes at every registration choke point (kernel, service, sharded fleet),
the summary memoization satellite, and the interpreter's recursion-depth
guard that CALL002 statically predicts.
"""

import tempfile
from pathlib import Path

import pytest

from repro.check.callgraph import CallGraph, collect_call_sites, fingerprint
from repro.check.programcheck import ProgramChecker, SummaryCache
from repro.errors import MilCheckError, MilRecursionError, ShardingCheckError
from repro.monet.kernel import MonetKernel
from repro.monet.mil import MIL_RECURSION_LIMIT, ProcDef, parse


def _defs(source):
    return {s.name: s for s in parse(source) if isinstance(s, ProcDef)}


def _env(kernel):
    interp = kernel.interpreter
    return dict(
        commands=interp._commands,
        signatures=interp._signatures,
        globals_names=list(interp._globals.variables),
        procedures=dict(interp._procs),
    )


@pytest.fixture()
def kernel():
    return MonetKernel(check="warn")


# ---------------------------------------------------------------------------
# call graph structure
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_call_sites_track_conditionality_and_branch(self):
        defs = _defs(
            """
            PROC p(BAT[str,flt] out, int n) : void := {
              helper(out);
              IF (n > 0) { maybe(out); }
              PARALLEL {
                left(out);
                right(out);
              }
            }
            """
        )
        sites = {s.callee: s for s in collect_call_sites(defs["p"])}
        assert not sites["helper"].conditional
        assert sites["maybe"].conditional
        assert sites["left"].branch == 0
        assert sites["right"].branch == 1
        assert sites["helper"].arg_names == ("out",)

    def test_fingerprint_ignores_layout_but_not_structure(self):
        a = _defs("PROC f(int n) : int := { RETURN n + 1; }")["f"]
        b = _defs("PROC f(int n) : int :=\n{\n  RETURN n + 1;\n}")["f"]
        c = _defs("PROC f(int n) : int := { RETURN n + 2; }")["f"]
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(c)

    def test_sccs_come_out_callee_first(self):
        defs = _defs(
            """
            PROC leaf() : int := { RETURN 1; }
            PROC mid() : int := { RETURN leaf(); }
            PROC top() : int := { RETURN mid(); }
            """
        )
        order = CallGraph(defs).sccs()
        assert order.index(("leaf",)) < order.index(("mid",))
        assert order.index(("mid",)) < order.index(("top",))

    def test_mutual_recursion_is_one_recursive_scc(self):
        defs = _defs(
            """
            PROC ping(int n) : int := { IF (n > 0) { RETURN pong(n - 1); } RETURN 0; }
            PROC pong(int n) : int := { IF (n > 0) { RETURN ping(n - 1); } RETURN 0; }
            """
        )
        assert CallGraph(defs).recursive_sccs() == [("ping", "pong")]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


class TestSummaries:
    def test_effects_propagate_transitively(self, kernel):
        checker = ProgramChecker(**_env(kernel))
        checker.check_source(
            """
            PROC deep(BAT[str,flt] out) : void := {
              out.delete("x");
              persist("snap", out);
            }
            PROC mid(BAT[str,flt] b) : void := { deep(b); }
            PROC top(BAT[str,flt] a) : void := { mid(a); }
            """
        )
        top = checker.summary("top")
        assert top.param_writes == (0,)
        assert top.calls == ("mid",)

    @pytest.mark.parametrize(
        "body",
        [
            "RETURN 0 + p.replace(0, 2.0).count;",  # BinOp operand
            "RETURN -p.replace(0, 2.0).count;",  # UnaryOp operand
            "IF (p.replace(0, 2.0).count > 0) { RETURN 1; } RETURN 0;",
            "WHILE (p.delete(0).count > 0) { cancelpoint(); } RETURN 0;",
            "VAR n := p.replace(0, 2.0).count; RETURN n;",
            "VAR n := 0; n := p.replace(0, 2.0).count; RETURN n;",
            "RETURN helper(p.delete(0));",  # call argument
        ],
    )
    def test_writes_inside_expressions_reach_the_summary(self, kernel, body):
        """A callee write is a write wherever it sits in the statement: the
        summary (and so CALL004 in the callers) sees it in conditions,
        operands, initialisers and arguments, not only as a bare statement."""
        checker = ProgramChecker(**_env(kernel))
        checker.check_source(
            "PROC helper(BAT[void,dbl] q) : int := { RETURN q.count; }\n"
            f"PROC wr(BAT[void,dbl] p) : int := {{ {body} }}\n"
            "PROC app(BAT[void,dbl] p) : int := { RETURN 0 + p.insert(1.0).count; }\n"
            "PROC glob() : int := { RETURN 0 + catalogBat.delete(0).count; }\n"
        )
        assert checker.summary("wr").param_writes == (0,)
        assert checker.summary("app").param_appends == (0,)
        assert checker.summary("glob").global_writes == ("catalogBat",)

    def test_cancelpoint_reachability_crosses_calls(self, kernel):
        checker = ProgramChecker(**_env(kernel))
        checker.check_source(
            """
            PROC breath() : void := { cancelpoint(); }
            PROC outer(int n) : int := {
              breath();
              IF (n > 0) { RETURN outer(n - 1); }
              RETURN 0;
            }
            """
        )
        assert checker.summary("outer").has_cancelpoint
        # and because the cycle is cancellable, no CALL002 fired
        report = checker.check_source(
            "PROC outer2(int n) : int := "
            "{ breath(); IF (n > 0) { RETURN outer2(n - 1); } RETURN 0; }"
        )
        assert "CALL002" not in [d.code for d in report]

    def test_cost_includes_callees(self, kernel):
        checker = ProgramChecker(**_env(kernel))
        checker.check_source(
            """
            PROC inner(BAT[void,dbl] x) : dbl := { RETURN x.sum(); }
            PROC outer(BAT[void,dbl] x) : dbl := { RETURN inner(x); }
            """
        )
        assert checker.summary("outer").cost > checker.summary("inner").cost * 0.99
        assert checker.summary("outer").cost >= checker.summary("inner").cost


# ---------------------------------------------------------------------------
# memoization (satellite)
# ---------------------------------------------------------------------------


class TestSummaryCache:
    def test_identical_redefinition_is_a_cache_hit(self, kernel):
        source = "PROC stable(BAT[void,dbl] x) : dbl := { RETURN x.sum(); }"
        kernel.run(source)
        cache = kernel.interpreter.program_cache
        misses_before = cache.misses
        hits_before = cache.hits
        kernel.run(source)
        assert cache.misses == misses_before
        assert cache.hits > hits_before

    def test_changed_source_recomputes_and_changes_fingerprint(self, kernel):
        kernel.run("PROC churn(BAT[void,dbl] x) : dbl := { RETURN x.sum(); }")
        cache = kernel.interpreter.program_cache
        fp_before = cache.entries["churn"].fingerprint
        misses_before = cache.misses
        kernel.run("PROC churn(BAT[void,dbl] x) : dbl := { RETURN x.max(); }")
        assert cache.entries["churn"].fingerprint != fp_before
        assert cache.misses > misses_before

    def test_explicit_invalidation_counts(self):
        cache = SummaryCache()
        cache.invalidate("absent")
        assert cache.invalidations == 0


# ---------------------------------------------------------------------------
# CALL codes at the kernel choke point
# ---------------------------------------------------------------------------


class TestCallCodes:
    def test_call002_error_blocks_registration_under_check_error(self):
        kernel = MonetKernel(check="error")
        with pytest.raises(MilCheckError) as err:
            kernel.run("PROC spin(int n) : int := { RETURN spin(n); }")
        assert "CALL002" in [d.code for d in err.value.diagnostics]

    def test_call002_warning_for_uncancellable_conditional_recursion(self, kernel):
        kernel.run(
            "PROC walk(int n) : int := { IF (n > 0) { RETURN walk(n - 1); } RETURN 0; }"
        )
        codes = [(d.code, d.severity.name) for d in kernel.diagnostics]
        assert ("CALL002", "WARNING") in codes
        assert ("CALL002", "ERROR") not in codes

    def test_call004_needs_the_callee_summary(self, kernel):
        kernel.run('PROC scrub(BAT[str,flt] out) : void := { out.delete("x"); }')
        kernel.run(
            """
            PROC fan(BAT[str,flt] out) : void := {
              PARALLEL {
                scrub(out);
                out.insert("k", 1.0);
              }
            }
            """
        )
        assert [d.code for d in kernel.diagnostics if d.code.startswith("CALL")] == [
            "CALL004"
        ]


# ---------------------------------------------------------------------------
# the other choke points
# ---------------------------------------------------------------------------


class TestChokePoints:
    def test_service_registration_rejects_call_errors(self):
        from repro.cobra.vdbms import CobraVDBMS
        from repro.service import QueryService

        service = QueryService(CobraVDBMS(check="off"))
        with pytest.raises(MilCheckError) as err:
            service.register_proc("PROC spin(int n) : int := { RETURN spin(n); }")
        assert "CALL002" in [d.code for d in err.value.diagnostics]
        assert service.register_proc("PROC fine(int n) : int := { RETURN n; }") == [
            "fine"
        ]

    def test_scatter_registration_rejects_call_errors(self):
        from repro.sharding import ShardedKernel
        from repro.sharding.fleet import ShardConfig

        with tempfile.TemporaryDirectory() as tmp:
            fleet = ShardedKernel(
                Path(tmp), shards=2, config=ShardConfig(fsync=False, check="error")
            )
            try:
                with pytest.raises(ShardingCheckError) as err:
                    fleet.run("PROC spin(int n) : int := { RETURN spin(n); }")
                assert "CALL002" in [d.code for d in err.value.diagnostics]
                fleet.run("PROC fine(int n) : int := { RETURN n; }")
            finally:
                fleet.close()


# ---------------------------------------------------------------------------
# the runtime guard CALL002 predicts (satellite)
# ---------------------------------------------------------------------------


class TestRecursionGuard:
    def test_deep_recursion_raises_typed_error_at_the_limit(self):
        kernel = MonetKernel(check="warn")  # CALL002 warns, still registers
        kernel.run(
            "PROC down(int n) : int := { IF (n > 0) { RETURN down(n - 1); } RETURN 0; }"
        )
        with pytest.raises(MilRecursionError) as err:
            kernel.call("down", [MIL_RECURSION_LIMIT + 10])
        assert err.value.proc == "down"
        assert err.value.depth == MIL_RECURSION_LIMIT + 1

    def test_recursion_below_the_limit_completes(self):
        kernel = MonetKernel(check="warn")
        kernel.run(
            "PROC down(int n) : int := { IF (n > 0) { RETURN down(n - 1); } RETURN 0; }"
        )
        assert kernel.call("down", [MIL_RECURSION_LIMIT - 4]) == 0

    def test_depth_resets_between_calls(self):
        kernel = MonetKernel(check="warn")
        kernel.run(
            "PROC down(int n) : int := { IF (n > 0) { RETURN down(n - 1); } RETURN 0; }"
        )
        for _ in range(3):
            assert kernel.call("down", [MIL_RECURSION_LIMIT // 2]) == 0

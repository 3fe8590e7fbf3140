"""Kernel catalog, modules, parallel executor, multi-BAT operators."""

import gc
import threading
import time
import weakref

import pytest

from repro.errors import MonetError
from repro.monet.bat import BAT
from repro.monet.kernel import MonetKernel
from repro.monet.module import MonetModule, command
from repro.monet.parallel import ParallelExecutor


class TestCatalog:
    def test_persist_and_fetch(self):
        k = MonetKernel()
        b = BAT("void", "int")
        k.persist("numbers", b)
        assert k.bat("numbers") is b
        assert "numbers" in k.catalog_names()

    def test_missing_bat(self):
        with pytest.raises(MonetError):
            MonetKernel().bat("nope")

    def test_drop(self):
        k = MonetKernel()
        k.persist("x", BAT("void", "int"))
        k.drop("x")
        with pytest.raises(MonetError):
            k.bat("x")

    def test_catalog_visible_from_mil(self):
        k = MonetKernel()
        b = BAT("void", "int")
        b.insert_bulk(None, [1, 2, 3])
        k.persist("nums", b)
        assert k.run("RETURN nums.count();") == 3


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects while the test runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestLifetime:
    @pytest.mark.parametrize("check", ["error", "sanitize"])
    def test_a_dropped_kernel_is_freed_by_reference_counting(self, no_cyclic_gc, check):
        kernel = MonetKernel(check=check)
        kernel.persist("nums", BAT("void", "int").insert(1))
        assert kernel.run("RETURN bat(\"nums\").count();") == 1
        refs = weakref.ref(kernel), weakref.ref(kernel.bat("nums"))
        del kernel
        assert [ref() for ref in refs] == [None, None]

    def test_an_interpreter_outliving_its_kernel_refuses_to_run(self):
        kernel = MonetKernel()
        interpreter = kernel.interpreter
        del kernel
        gc.collect()
        with pytest.raises(MonetError, match="kernel .* is gone"):
            interpreter.run("x := bat(\"nums\");")


class TestModules:
    def test_load_module_registers_commands(self):
        class Demo(MonetModule):
            name = "demo"

            @command()
            def triple(self, n: int) -> int:
                return n * 3

        k = MonetKernel()
        k.load_module(Demo())
        assert k.has_command("triple")
        assert k.run("RETURN triple(4);") == 12

    def test_duplicate_module_rejected(self):
        class Demo(MonetModule):
            name = "demo"

            @command()
            def f(self):
                return 1

        k = MonetKernel()
        k.load_module(Demo())
        with pytest.raises(MonetError):
            k.load_module(Demo())

    def test_command_clash_rejected(self):
        class A(MonetModule):
            name = "a"

            @command()
            def same(self):
                return 1

        class B(MonetModule):
            name = "b"

            @command()
            def same(self):
                return 2

        k = MonetKernel()
        k.load_module(A())
        with pytest.raises(MonetError):
            k.load_module(B())

    def test_custom_command_name(self):
        class Named(MonetModule):
            name = "named"

            @command("otherName")
            def python_name(self):
                return "ok"

        k = MonetKernel()
        k.load_module(Named())
        assert k.run("RETURN otherName();") == "ok"


class TestParallelExecutor:
    def test_threadcnt_convention(self):
        ex = ParallelExecutor()
        assert ex.threadcnt(7) == 6  # n workers = threadcnt - 1

    def test_threadcnt_minimum(self):
        assert ParallelExecutor().threadcnt(1) == 1

    def test_invalid_thread_count(self):
        with pytest.raises(MonetError):
            ParallelExecutor(threads=0)

    def test_results_in_submission_order(self):
        ex = ParallelExecutor(threads=4)
        results = ex.run([lambda i=i: i * i for i in range(10)])
        assert results == [i * i for i in range(10)]

    def test_actually_concurrent(self):
        ex = ParallelExecutor(threads=4)
        barrier = threading.Barrier(3, timeout=5)
        results = ex.run([barrier.wait for _ in range(3)])
        assert len(results) == 3

    def test_error_propagates_with_original_type(self):
        ex = ParallelExecutor(threads=2)
        seen = []

        def good():
            seen.append(1)

        def bad():
            raise RuntimeError("x")

        # Already-running branches finish; queued ones may be cancelled.
        with pytest.raises(RuntimeError, match="x"):
            ex.run([bad, good, good])
        assert len(seen) <= 2

    def test_failure_cancels_queued_branches(self):
        ex = ParallelExecutor(threads=2)
        seen = []

        def bad():
            raise RuntimeError("first branch down")

        def good():
            time.sleep(0.005)
            seen.append(1)

        with pytest.raises(RuntimeError) as info:
            ex.run([bad] + [good] * 50)
        # the failure must have stopped the queue well before it drained
        assert len(seen) < 50
        context = getattr(info.value, "context_notes", [])
        assert any("parallel branch 1" in note for note in context)
        assert any("cancelled" in note for note in context)

    def test_empty_run(self):
        assert ParallelExecutor().run([]) == []

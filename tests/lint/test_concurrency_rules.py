"""CON001 (bare acquire) and CON002 (worker-reachable global writes)."""

from __future__ import annotations

import textwrap

from .conftest import findings_for, rules_fired

#: The exact shape src/repro/cache.py:FileLock.__enter__ had before the
#: fix this rule shipped with — the rule's first true positive.
PRE_FIX_FILELOCK = textwrap.dedent(
    """
    class FileLock:
        def acquire(self):
            pass

        def release(self):
            pass

        def __enter__(self):
            self.acquire()
            return self

        def __exit__(self, *exc):
            self.release()
    """
)

#: The shipped fix: acquire scoped by an except-reraise that releases.
POST_FIX_FILELOCK = textwrap.dedent(
    """
    class FileLock:
        def acquire(self):
            pass

        def release(self):
            pass

        def __enter__(self):
            try:
                self.acquire()
                return self
            except BaseException:
                self.release()
                raise

        def __exit__(self, *exc):
            self.release()
    """
)


class TestCon001BareAcquire:
    def test_pre_fix_filelock_pattern_fires(self, lint_tree):
        result, _ = lint_tree({"cache.py": PRE_FIX_FILELOCK})
        found = findings_for(result, "CON001")
        assert len(found) == 1
        assert found[0].line == 10
        assert "acquire() is not scoped" in found[0].message

    def test_post_fix_filelock_pattern_is_clean(self, lint_tree):
        result, _ = lint_tree({"cache.py": POST_FIX_FILELOCK})
        assert rules_fired(result) == []

    def test_acquire_then_try_finally_is_clean(self, lint_tree):
        result, _ = lint_tree({
            "mod.py": textwrap.dedent(
                """
                import threading

                LOCK = threading.Lock()

                def critical(fn):
                    LOCK.acquire()
                    try:
                        return fn()
                    finally:
                        LOCK.release()
                """
            )
        })
        assert rules_fired(result) == []

    def test_with_statement_is_clean(self, lint_tree):
        result, _ = lint_tree({
            "mod.py": textwrap.dedent(
                """
                import threading

                LOCK = threading.Lock()

                def critical(fn):
                    with LOCK:
                        return fn()
                """
            )
        })
        assert rules_fired(result) == []

    def test_acquire_without_matching_release_fires(self, lint_tree):
        result, _ = lint_tree({
            "mod.py": textwrap.dedent(
                """
                import threading

                A = threading.Lock()
                B = threading.Lock()

                def wrong(fn):
                    A.acquire()
                    try:
                        return fn()
                    finally:
                        B.release()
                """
            )
        })
        assert rules_fired(result) == ["CON001"]


WORKER_WRITE = textwrap.dedent(
    """
    from repro.parallel import supervised_map

    RESULTS = []
    TOTALS = {}

    def work(item):
        RESULTS.append(item * 2)
        TOTALS[item] = item * 2
        return item * 2

    def run(items):
        return supervised_map(work, items)
    """
)


class TestCon002WorkerGlobalWrite:
    def test_worker_mutating_module_state_fires(self, lint_tree):
        result, _ = lint_tree({"camp.py": WORKER_WRITE})
        found = findings_for(result, "CON002")
        assert len(found) == 2  # the append and the subscript write
        assert "RESULTS.append" in found[0].message
        assert "worker dispatch" in found[0].message

    def test_global_rebind_from_worker_fires(self, lint_tree):
        result, _ = lint_tree({
            "camp.py": textwrap.dedent(
                """
                from repro.parallel import supervised_map

                _MEMO = None

                def work(item):
                    global _MEMO
                    _MEMO = item
                    return item

                def run(items):
                    return supervised_map(work, items)
                """
            )
        })
        assert rules_fired(result) == ["CON002"]

    def test_transitive_reachability_fires(self, lint_tree):
        result, _ = lint_tree({
            "camp.py": textwrap.dedent(
                """
                from repro.parallel import supervised_map

                SEEN = []

                def record(item):
                    SEEN.append(item)

                def work(item):
                    record(item)
                    return item

                def run(items):
                    return supervised_map(work, items)
                """
            )
        })
        found = findings_for(result, "CON002")
        assert len(found) == 1
        assert "SEEN.append" in found[0].message

    def test_pure_worker_is_clean(self, lint_tree):
        result, _ = lint_tree({
            "camp.py": textwrap.dedent(
                """
                from repro.parallel import supervised_map

                LIMITS = (1, 2, 3)

                def work(item):
                    local = []
                    local.append(item)
                    return sum(local) + LIMITS[0]

                def run(items):
                    return supervised_map(work, items)
                """
            )
        })
        assert rules_fired(result) == []

    def test_initializer_is_exempt(self, lint_tree):
        # Per-process context setup through the initializer hook is the
        # documented pattern (repro.parallel) — not a race.
        result, _ = lint_tree({
            "camp.py": textwrap.dedent(
                """
                from repro.parallel import supervised_map

                _CTX = None

                def init(config):
                    global _CTX
                    _CTX = config

                def work(item):
                    return _CTX, item

                def run(items, config):
                    return supervised_map(
                        work, items, initializer=init, initargs=(config,)
                    )
                """
            )
        })
        assert rules_fired(result) == []

    def test_lambda_worker_is_traversed(self, lint_tree):
        result, _ = lint_tree({
            "camp.py": textwrap.dedent(
                """
                from repro.parallel import supervised_map

                LOG = []

                def record(item):
                    LOG.append(item)
                    return item

                def run(items):
                    return supervised_map(lambda it: record(it), items)
                """
            )
        })
        assert rules_fired(result) == ["CON002"]

    def test_non_worker_writer_is_clean(self, lint_tree):
        # The same write is fine when nothing dispatches the function.
        result, _ = lint_tree({
            "camp.py": textwrap.dedent(
                """
                CACHE = {}

                def remember(key, value):
                    CACHE[key] = value
                """
            )
        })
        assert rules_fired(result) == []

    def test_comprehension_target_does_not_shadow_global(self, lint_tree):
        # The v1 blind spot: a comprehension target named like a module
        # global looked like a local binding to the old scope scan, so
        # the .append() two lines later sailed through.  Python 3
        # comprehension targets live in their own scope — the global is
        # still the global, and the worker still mutates it.
        result, _ = lint_tree({
            "camp.py": textwrap.dedent(
                """
                from repro.parallel import supervised_map

                RESULTS = []

                def work(item):
                    doubled = [RESULTS for RESULTS in range(item)]
                    RESULTS.append(item)
                    return doubled

                def run(items):
                    return supervised_map(work, items)
                """
            )
        })
        found = findings_for(result, "CON002")
        assert len(found) == 1
        assert "RESULTS.append" in found[0].message

    def test_true_local_shadow_stays_clean(self, lint_tree):
        # A real local assignment (not a comprehension target) does
        # shadow the global; writes to it are not shared state.
        result, _ = lint_tree({
            "camp.py": textwrap.dedent(
                """
                from repro.parallel import supervised_map

                RESULTS = []

                def work(item):
                    RESULTS = []
                    RESULTS.append(item)
                    return RESULTS

                def run(items):
                    return supervised_map(work, items)
                """
            )
        })
        assert rules_fired(result) == []

    def test_walrus_binding_is_a_real_local(self, lint_tree):
        # A NamedExpr target binds the *function* scope even inside a
        # comprehension — writes to it are local, not shared.
        result, _ = lint_tree({
            "camp.py": textwrap.dedent(
                """
                from repro.parallel import supervised_map

                BUF = []

                def work(item):
                    pairs = [(BUF := [item]) for _ in range(2)]
                    BUF.append(item)
                    return pairs

                def run(items):
                    return supervised_map(work, items)
                """
            )
        })
        assert rules_fired(result) == []

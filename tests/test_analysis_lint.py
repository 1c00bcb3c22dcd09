"""The AST invariant linter (repro.analysis.lint): rule fixtures,
noqa suppression, fix-it hints, and a clean run over the real tree."""

import os
import textwrap

from repro.analysis.lint import all_rules, lint_paths
from repro.analysis.lint.core import (ProjectIndex, build_contexts,
                                      module_name_for)

SRC_REPRO = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "src", "repro")


def lint_snippet(tmp_path, source, relpath="repro/mod.py", extra=()):
    """Write dedented ``source`` at ``relpath`` (plus any ``extra``
    (relpath, source) files) under tmp_path and lint them together."""
    paths = []
    for rel, text in [(relpath, source)] + list(extra):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
        paths.append(str(path))
    return lint_paths(paths)


def rule_ids(report):
    return [f.rule for f in report.findings]


class TestCatalog:
    def test_rule_ids_unique_and_hinted(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert len(ids) == len(set(ids))
        for rule in rules:
            assert rule.hint, f"{rule.id} has no fix-it hint"
            assert rule.description, f"{rule.id} has no description"

    def test_module_name_anchors_on_repro(self):
        assert module_name_for("src/repro/mvcc/clog.py") == "repro.mvcc.clog"
        assert module_name_for("src/repro/engine/__init__.py") == \
            "repro.engine"
        assert module_name_for("/tmp/whatever/scratch.py") == "scratch"


class TestClogDiscipline:
    def test_flags_status_methods_in_engine_module(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def visible(clog, tup):
                return clog.did_commit(tup.xmin)
            """)
        assert rule_ids(report) == ["CLOG001"]

    def test_flags_clog_status_call(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def peek(clog, xid):
                return clog.status(xid)
            """)
        assert rule_ids(report) == ["CLOG001"]

    def test_visibility_layer_is_allowed(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def visible(clog, tup):
                return clog.did_commit(tup.xmin)
            """, relpath="repro/mvcc/visibility.py")
        assert report.ok

    def test_non_engine_module_is_ignored(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def poke(clog, xid):
                return clog.did_abort(xid)
            """, relpath="scripts/poke.py")
        assert report.ok

    def test_hint_names_visibility_layer(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def f(clog, x):
                return clog.in_progress(x)
            """)
        rendered = report.findings[0].render()
        assert "hint:" in rendered
        assert "repro.mvcc.visibility" in rendered


class TestDurabilityDiscipline:
    def test_flags_page_write_outside_durable_layer(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def sneak(store, payload):
                store.write_page(1, 2, 0, 99, payload)
            """, relpath="repro/engine/hack.py")
        assert rule_ids(report) == ["DUR001"]

    def test_flags_raw_pwrite(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def sneak(io, f):
                io.pwrite(f, "x.pg", 0, b"data")
            """, relpath="repro/storage/heap_patch.py")
        assert rule_ids(report) == ["DUR001"]

    def test_durable_layer_owns_the_entry_points(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def write_back(store, payload):
                store.write_page(1, 2, 0, 99, payload)
            """, relpath="repro/storage/durable/manager.py")
        assert report.ok

    def test_tests_and_scripts_are_ignored(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def poke(store):
                store.write_page(1, 2, 0, 99, {})
            """, relpath="scripts/poke.py")
        assert report.ok

    def test_hint_mentions_pagelsn_rule(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def sneak(store):
                store.write_page(1, 2, 0, 99, {})
            """, relpath="repro/engine/hack.py")
        assert "pageLSN" in report.findings[0].render()


class TestDeterminism:
    def test_flags_time_and_random_imports(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random
            from time import monotonic
            """)
        assert rule_ids(report) == ["DET001", "DET001"]

    def test_allowlisted_module_passes(self, tmp_path):
        report = lint_snippet(tmp_path, "import time\n",
                              relpath="repro/obs/trace.py")
        assert report.ok

    def test_sim_prefix_passes(self, tmp_path):
        report = lint_snippet(tmp_path, "import random\n",
                              relpath="repro/sim/scheduler.py")
        assert report.ok

    def test_planner_id_dependence_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def choose(candidates):
                return min(candidates, key=lambda c: id(c))
            """, relpath="repro/engine/planner.py")
        assert rule_ids(report) == ["DET001"]
        assert "object identity" in report.findings[0].message

    def test_planner_dict_view_iteration_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def choose(indexes):
                for index in indexes.values():
                    return index
            """, relpath="repro/engine/planner.py")
        assert rule_ids(report) == ["DET001"]
        assert "insertion order" in report.findings[0].message

    def test_planner_min_over_dict_view_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def choose(costs):
                return min(costs.items())
            """, relpath="repro/engine/planner.py")
        assert rule_ids(report) == ["DET001"]

    def test_planner_explicit_key_passes(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def choose(candidates):
                return min(candidates,
                           key=lambda c: (c.cost, c.column, c.index_name))
            """, relpath="repro/engine/planner.py")
        assert report.ok

    def test_dict_views_fine_outside_pure_choice_modules(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def walk(indexes):
                for index in indexes.values():
                    index.touch()
            """, relpath="repro/storage/relation.py")
        assert report.ok


class TestSlotsConsistency:
    def test_flags_undeclared_attribute(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Node:
                __slots__ = ("left", "right")

                def __init__(self):
                    self.left = None
                    self.rigth = None
            """)
        findings = report.findings
        assert rule_ids(report) == ["SLOT001"]
        assert "self.rigth" in findings[0].message

    def test_inherited_slots_resolve_across_files(self, tmp_path):
        base = ("repro/base.py", """
            class Base:
                __slots__ = ("a",)
            """)
        report = lint_snippet(tmp_path, """
            from repro.base import Base

            class Child(Base):
                __slots__ = ("b",)

                def __init__(self):
                    self.a = 1
                    self.b = 2
                    self.c = 3
            """, extra=[base])
        assert rule_ids(report) == ["SLOT001"]
        assert "self.c" in report.findings[0].message

    def test_slotted_dataclass_fields_count(self, tmp_path):
        report = lint_snippet(tmp_path, """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Point:
                x: int
                y: int

                def shift(self):
                    self.x += 1
                    self.z = 0
            """)
        assert rule_ids(report) == ["SLOT001"]
        assert "self.z" in report.findings[0].message

    def test_unslotted_class_is_ignored(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class Bag:
                def __init__(self):
                    self.anything = 1
            """)
        assert report.ok

    def test_name_collision_merges_fail_open(self, tmp_path):
        # Two files define a private helper with the same name but
        # different slots; neither may be checked against the other's
        # slot set (the regression that once flagged index/gist._Node).
        other = ("repro/btree.py", """
            class _Node:
                __slots__ = ("keys", "children")

                def __init__(self):
                    self.keys = []
                    self.children = []
            """)
        report = lint_snippet(tmp_path, """
            class _Node:
                __slots__ = ("entries", "bounds")

                def __init__(self):
                    self.entries = []
                    self.bounds = None
            """, relpath="repro/gist.py", extra=[other])
        assert report.ok

    def test_collision_with_unslotted_twin_fails_open(self, tmp_path):
        index = ProjectIndex()
        contexts, _ = build_contexts([str(p) for p in []])
        assert contexts == []
        # Direct index check: slotted + unslotted twins -> closure None.
        from repro.analysis.lint.core import ClassFacts
        index.record(ClassFacts("X", "repro.a", {"a"}))
        index.record(ClassFacts("X", "repro.b", None))
        assert index.slots_closure("X") is None


class TestLockRules:
    def test_private_member_access_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def hack(lockmgr, sx, target):
                lockmgr._add(sx, target)
            """)
        assert "LOCK001" in rule_ids(report)

    def test_owner_package_may_touch_internals(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def cleanup(lockmgr, sx):
                lockmgr._held.pop(sx, None)
            """, relpath="repro/ssi/cleanup.py")
        assert report.ok

    def test_acquire_without_release_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def grab(lockmgr, xid, tag, mode):
                return lockmgr.acquire(xid, tag, mode)
            """)
        assert rule_ids(report) == ["LOCK002"]

    def test_acquire_with_release_path_passes(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def grab(lockmgr, xid, tag, mode):
                lockmgr.acquire(xid, tag, mode)
                try:
                    pass
                finally:
                    lockmgr.release_all(xid)
            """)
        assert report.ok

    def test_latch_private_state_flagged_in_server(self, tmp_path):
        # Seeded violation: repro.server code reaching into a latch's
        # condition variable instead of using park/notify_all.
        report = lint_snippet(tmp_path, """
            def sneaky_wakeup(latch):
                latch._cond.notify_all()
            """, relpath="repro/server/hack.py")
        assert "LOCK001" in rule_ids(report)

    def test_latch_module_owns_its_internals(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def notify_all(latch):
                latch._cond.notify_all()
            """, relpath="repro/engine/latches.py")
        assert report.ok

    def test_latch_acquire_without_release_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def enter(conn_latch):
                conn_latch.acquire()
            """, relpath="repro/server/hack.py")
        assert rule_ids(report) == ["LOCK002"]

    def test_latch_acquire_with_release_passes(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def enter(conn_latch):
                conn_latch.acquire()
                try:
                    pass
                finally:
                    conn_latch.release()
            """, relpath="repro/server/hack.py")
        assert report.ok

    def test_park_and_bow_are_not_acquisitions(self, tmp_path):
        # CV parking releases and re-acquires the latch internally;
        # park()/bow() must not trip the acquire/release pairing rule
        # even though the function never mentions a release.
        report = lint_snippet(tmp_path, """
            def wait_ready(latch, condition, deadline):
                if latch.park(lambda: condition.ready, deadline=deadline):
                    return True
                latch.bow()
                return False
            """, relpath="repro/server/hack.py")
        assert report.ok, report.render()

    def test_leaked_acquire_on_timeout_path_flagged(self, tmp_path):
        # A bare acquire whose only exits are early returns leaks the
        # latch on the timeout path: no release anywhere in the
        # function, so LOCK002 fires.
        report = lint_snippet(tmp_path, """
            def begin_wait(latch, deadline_passed):
                latch.acquire()
                if deadline_passed():
                    return False
                return True
            """, relpath="repro/server/hack.py")
        assert rule_ids(report) == ["LOCK002"]


class TestHygieneRules:
    def test_mutable_default_flagged_everywhere(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def f(acc=[]):
                return acc

            def g(*, acc=dict()):
                return acc
            """, relpath="scripts/util.py")
        assert rule_ids(report) == ["MUT001", "MUT001"]

    def test_bare_except_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def f():
                try:
                    return 1
                except:
                    return 2
            """, relpath="scripts/util.py")
        assert rule_ids(report) == ["EXC001"]


class TestNoqa:
    SOURCE = """
        def visible(clog, tup):
            return clog.did_commit(tup.xmin){comment}
        """

    def test_named_noqa_suppresses(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            self.SOURCE.format(comment="  # repro: noqa(CLOG001) -- test"))
        assert report.ok

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        report = lint_snippet(
            tmp_path, self.SOURCE.format(comment="  # repro: noqa"))
        assert report.ok

    def test_wrong_rule_noqa_does_not_suppress(self, tmp_path):
        # The CLOG001 finding survives, and the DET001 suppression --
        # which excuses nothing -- is itself flagged as rotted.
        report = lint_snippet(
            tmp_path,
            self.SOURCE.format(comment="  # repro: noqa(DET001)"))
        assert rule_ids(report) == ["NOQA001", "CLOG001"]

    def test_noqa_is_line_scoped(self, tmp_path):
        # The suppression on its own line covers nothing, so the
        # finding stands -- and the off-target noqa is flagged stale.
        report = lint_snippet(tmp_path, """
            # repro: noqa(CLOG001)
            def visible(clog, tup):
                return clog.did_commit(tup.xmin)
            """)
        assert rule_ids(report) == ["NOQA001", "CLOG001"]

    def test_unused_bare_noqa_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def fine():
                return 1  # repro: noqa
            """)
        assert rule_ids(report) == ["NOQA001"]

    def test_other_commands_rules_left_alone(self, tmp_path):
        # RACE002 belongs to the concurrency analyzer's run set; a
        # plain lint run must not declare its suppressions rotted.
        report = lint_snippet(tmp_path, """
            def fine():
                return 1  # repro: noqa(RACE002)
            """)
        assert report.ok, report.render()


class TestRealTree:
    def test_src_repro_lints_clean(self):
        report = lint_paths([SRC_REPRO])
        assert report.parse_errors == []
        assert report.findings == [], report.render()
        assert report.files_checked > 50

    def test_report_renders_summary_line(self):
        report = lint_paths([SRC_REPRO])
        assert report.render().endswith(
            f"0 finding(s) in {report.files_checked} file(s)")

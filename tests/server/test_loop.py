"""uvloop opt-in plumbing: both sides of the optional-dependency fallback.

The wheel may or may not exist in any given environment, so these tests
fake both worlds through ``sys.modules`` and assert the contract the
serving stack relies on: a missing wheel (or an explicit opt-out) leaves
the stdlib policy untouched and an available wheel installs its policy.
"""

import asyncio
import sys
import types

import pytest

from repro.server.loop import install_uvloop, loop_label


class FakePolicy(asyncio.DefaultEventLoopPolicy):
    """Stands in for uvloop.EventLoopPolicy (a real, usable policy)."""


@pytest.fixture
def fake_uvloop(monkeypatch):
    mod = types.ModuleType("uvloop")
    mod.EventLoopPolicy = FakePolicy
    monkeypatch.setitem(sys.modules, "uvloop", mod)
    yield mod
    asyncio.set_event_loop_policy(None)


@pytest.fixture
def no_uvloop(monkeypatch):
    monkeypatch.setitem(sys.modules, "uvloop", None)  # import -> ImportError
    yield
    asyncio.set_event_loop_policy(None)


class TestInstall:
    def test_installs_policy_when_wheel_present(self, fake_uvloop):
        assert install_uvloop() is True
        assert isinstance(asyncio.get_event_loop_policy(), FakePolicy)

    def test_missing_wheel_falls_back_silently(self, no_uvloop):
        before = asyncio.get_event_loop_policy()
        assert install_uvloop() is False
        assert asyncio.get_event_loop_policy() is before

    def test_explicit_opt_out_never_imports(self, fake_uvloop):
        before = asyncio.get_event_loop_policy()
        assert install_uvloop(False) is False
        assert asyncio.get_event_loop_policy() is before

    def test_asyncio_run_still_works_after_fallback(self, no_uvloop):
        install_uvloop()

        async def ping():
            return "pong"

        assert asyncio.run(ping()) == "pong"


class TestLabel:
    def test_labels(self):
        assert loop_label(True) == "uvloop"
        assert loop_label(False) == "asyncio"

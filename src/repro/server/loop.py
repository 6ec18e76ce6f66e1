"""Optional uvloop acceleration for the serving/loadgen event loops.

uvloop (a libuv-backed drop-in replacement for the stdlib asyncio loop)
typically buys 2–4× on socket-heavy workloads, but it is a compiled
third-party wheel the runtime may not have.  The serving stack therefore
treats it as a pure optimisation: :func:`install_uvloop` swaps the event
loop policy when the import succeeds and reports what happened, and every
caller (``repro serve``, ``repro loadgen``) falls back to stdlib asyncio
with identical semantics when it does not.

One leg of the CI test matrix installs the wheel and the rest do not, so
both sides of the fallback stay exercised (the served == offline parity
test runs on each loop).
"""

from __future__ import annotations

import asyncio

__all__ = ["install_uvloop", "loop_label"]


def install_uvloop(enable: bool = True) -> bool:
    """Install uvloop's event-loop policy when possible; report success.

    ``enable=False`` (the ``--no-uvloop`` escape hatch) and a missing
    wheel both leave the stdlib policy untouched and return ``False`` —
    the caller's ``asyncio.run`` then behaves exactly as before.
    """
    if not enable:
        return False
    try:
        import uvloop
    except ImportError:
        return False
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


def loop_label(installed: bool) -> str:
    """Human-readable loop name for logs and bench reports."""
    return "uvloop" if installed else "asyncio"

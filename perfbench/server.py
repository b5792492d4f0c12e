"""The serve workloads' server child: a default ``ServeApp`` on loopback.

    python -m perfbench.server [--trace] [--spans]

Prints a ``READY`` line with its port and set-up split once it listens,
then reads commands on stdin: ``begin`` and ``end`` bracket the measured
window, ``stop`` (or end of input) shuts the app down and prints a
``RESULT`` line.  With ``--trace`` the layers are wrapped before the app
is built, and the event loop's idle time is measured at its selector.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
from time import perf_counter

from .worker import emit, peak_rss_mb


def _read_commands(loop, commands: asyncio.Queue) -> None:
    while True:
        line = sys.stdin.readline()
        command = line.strip() if line else "stop"
        loop.call_soon_threadsafe(commands.put_nowait, command)
        if command == "stop":
            return


async def serve(t_import: float, tracer, selector) -> None:
    from repro.serve import ServeApp

    t0 = perf_counter()
    app = ServeApp()
    t1 = perf_counter()
    await app.start()
    emit(
        "READY",
        {
            "port": app.port,
            "import_s": t_import,
            "build_s": t1 - t0,
            "warmup_s": perf_counter() - t1,
        },
    )
    commands: asyncio.Queue = asyncio.Queue()
    reader = threading.Thread(
        target=_read_commands,
        args=(asyncio.get_running_loop(), commands),
        daemon=True,
    )
    reader.start()
    window: dict = {}
    while (command := await commands.get()) != "stop":
        if command == "begin":
            window["start"] = perf_counter()
            if tracer is not None:
                tracer.reset()
                selector.idle_s = 0.0
        elif command == "end":
            window["seconds"] = perf_counter() - window["start"]
            if tracer is not None:
                window["snapshot"] = tracer.snapshot()
                window["loop_busy_frac"] = 1.0 - selector.idle_s / window["seconds"]
                window["spans"] = tracer.spans
                tracer.keep_spans = False
    rss_mb = peak_rss_mb()
    await app.stop()
    # Let connection handlers see their client's close before the loop ends.
    handlers = asyncio.all_tasks() - {asyncio.current_task()}
    if handlers:
        await asyncio.wait(handlers, timeout=5.0)
    window.pop("start", None)
    emit("RESULT", {"rss_mb": rss_mb, "window": window, "stats": app.stats()["router"]["cache"]})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m perfbench.server")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", action="store_true")
    args = parser.parse_args(argv)
    t0 = perf_counter()
    import repro.serve  # noqa: F401  (timed as the import step)

    tracer = selector = None
    if args.trace:
        from .spans import TimedSelector, Tracer, install_serve_layers

        tracer = Tracer(keep_spans=args.spans)
        install_serve_layers(tracer)
        tracer.count_work = True
        selector = TimedSelector()
    t_import = perf_counter() - t0
    if selector is None:
        loop = asyncio.new_event_loop()
    else:
        loop = asyncio.SelectorEventLoop(selector)
    try:
        loop.run_until_complete(serve(t_import, tracer, selector))
    finally:
        loop.close()


if __name__ == "__main__":
    main()

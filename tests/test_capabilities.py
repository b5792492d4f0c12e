"""Conformance walk over the supported-configuration matrix.

The walk crosses the five drivers (``simulate``, ``ensemble``,
``tempering``, ``distributed`` and the ``Scheduler``) with every
updater, dtype, field, coupling kind, block shape, backend kind and
``fused`` selection.  ``fused=True`` rides along with ``"auto"`` and
``False``; the ``"tpu"`` backend refuses it and resolves ``"auto"`` to
the elementwise engine, and ``distributed()`` runs on that backend only.

Each cell must do one of two things:

* be rejected up front: a :class:`ValueError` from
  ``SimulationConfig(...)``, from the factory call or from
  ``Scheduler.submit``;
* or run three sweeps on exactly the updater, dtype, block shape and
  engine it names, and match its reference.  A float cell's reference
  is the same config with ``fused=False``.  A packed cell's reference is
  ``simulate()`` of the same config.  Three sweeps are the fused
  engine's warm-up, its recording and one replayed sweep.

Nothing may raise inside ``run()``, ``sweep()`` or a scheduler batch
build.  Finally the "What each forbids" table in ``docs/engines.md``
must say what the walk observed, row for row; a fused cell counts as
traced only if its executor replayed a sweep and never fell back.  The
table's lattice width and allocation rows are not part of the walk and
are not checked.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    LadderSpec,
    ModelSpec,
    SimulationConfig,
    distributed,
    ensemble,
    simulate,
    tempering,
)
from repro.core.config import UPDATERS, resolve_fused
from repro.sched import Scheduler
from repro.sched.coalesce import compat_key

SHAPE = (8, 128)
BLOCK = (2, 32)
GRID = (1, 2)
SWEEPS = 3
#: Exact binary betas: chain 0 of the ladder runs at T = 2.0, the
#: temperature every other driver uses, so packed tempering cells can be
#: checked against simulate().
LADDER = LadderSpec(betas=(0.5, 0.25), n_replicas=1, swap_interval=2)

DRIVERS = ("simulate", "ensemble", "tempering", "distributed", "scheduler")
DTYPES = ("float32", "bfloat16", "packed")
FIELDS = (0.0, 0.25)
COUPLINGS = ("ferro", "bimodal")
BLOCKS = (None, BLOCK)
BACKENDS = ("numpy", "tpu")
#: False first: it is the reference of the float cells that follow it.
FUSED = (False, "auto", True)

ENGINES = ("elementwise", "fused", "traced", "packed")
DOCS = Path(__file__).resolve().parents[1] / "docs" / "engines.md"


def _config(driver, updater, dtype, field, couplings, block, backend, fused):
    kwargs = dict(
        shape=SHAPE,
        updater=updater,
        dtype=dtype,
        field=field,
        block_shape=block,
        backend=backend,
        fused=fused,
        seed=5,
    )
    if couplings != "ferro":
        kwargs["model"] = ModelSpec(couplings=couplings, disorder_seed=1)
    if driver == "tempering":
        kwargs["ladder"] = LADDER
    else:
        kwargs["temperature"] = 2.0
    if driver == "distributed":
        kwargs["grid"] = GRID
    return SimulationConfig(**kwargs)


def _build(driver, config):
    if driver == "simulate":
        return simulate(config)
    if driver == "ensemble":
        return ensemble(config, n_chains=2)
    if driver == "tempering":
        return tempering(config)
    if driver == "distributed":
        return distributed(config)
    scheduler = Scheduler(n_devices=1, max_batch=4)
    return scheduler, scheduler.submit(config, SWEEPS)


def _built_engine(driver, built):
    """(updater, dtype, block_shape, fused) the driver actually built."""
    if driver == "scheduler":
        _, job = built
        _, updater, dtype, _, _, block, fused = compat_key(job.spec.config)
        return updater, dtype, block, fused
    if driver == "tempering":
        built = built.ensemble
    dtype = built.dtype if driver == "distributed" else built.backend.dtype
    return built.updater_name, dtype.name, built.block_shape, built.fused


def _run(driver, built) -> np.ndarray:
    """``SWEEPS`` sweeps; the lattices they leave (chain 0 first)."""
    if driver == "scheduler":
        scheduler, job = built
        scheduler.drain()
        if job.state != "done":
            raise RuntimeError(f"job ended {job.state}: {job.error!r}")
        return job.result.lattice[None]
    if driver == "distributed":
        built.sweep(SWEEPS)
        return built.gather_lattice()[None]
    built.run(SWEEPS)
    if driver == "simulate":
        return built.lattice[None]
    return built.lattices


def _replayed(driver, built) -> bool:
    """Whether a chain replayed a recorded sweep and never fell back to
    eager sweeps; a scheduler job reads its scheduler's traced stats."""
    if driver == "distributed":
        return False
    if driver == "scheduler":
        counters = built[0].stats()["traced"]
        return counters["sweeps_replayed"] > 0 and counters["fallbacks"] == 0
    if driver == "tempering":
        built = built.ensemble
    executor = built._executor
    return (
        executor is not None
        and executor.sweeps_replayed > 0
        and executor.fallbacks == 0
    )


def _engine(backend, dtype, fused) -> str:
    if dtype == "packed":
        return "packed"
    return "fused" if resolve_fused(fused, backend, dtype) else "elementwise"


def _walk():
    """Walk every cell; return (supported cells, failure messages,
    cells seen replaying)."""
    supported, failures, replayed = set(), [], set()
    packed_refs = {}
    for axes in itertools.product(
        UPDATERS, DTYPES, FIELDS, COUPLINGS, BLOCKS, BACKENDS
    ):
        updater, dtype, field, couplings, block, backend = axes
        float_refs = {}
        for driver, fused in itertools.product(DRIVERS, FUSED):
            cell = (driver,) + axes + (fused,)
            try:
                built = _build(driver, _config(driver, *axes, fused))
            except ValueError:
                continue
            except Exception as exc:  # noqa: BLE001 — reported below
                failures.append(f"{cell}: construction raised {exc!r}")
                continue
            runs_fused = _engine(backend, dtype, fused) != "elementwise"
            want = (updater, dtype, block, runs_fused)
            got = _built_engine(driver, built)
            if block is None:
                got = got[:2] + (None,) + got[3:]
            if got != want:
                failures.append(f"{cell}: built {got}, asked for {want}")
                continue
            try:
                lattices = _run(driver, built)
            except Exception as exc:  # noqa: BLE001 — reported below
                failures.append(f"{cell}: run raised {exc!r}")
                continue
            if dtype == "packed":
                if axes not in packed_refs:
                    ref = simulate(_config("simulate", *axes, "auto"))
                    ref.run(SWEEPS)
                    packed_refs[axes] = ref.lattice
                ref = packed_refs[axes]
                ok = np.array_equal(lattices[0], ref)
            elif fused is False:
                float_refs[driver] = lattices
                ok = True
            else:
                ref = float_refs.get(driver)
                ok = ref is not None and np.array_equal(lattices, ref)
            if not ok:
                failures.append(f"{cell}: lattice differs from its reference")
                continue
            supported.add(cell)
            if _replayed(driver, built):
                replayed.add(cell)
    return supported, failures, replayed


@pytest.fixture(scope="module")
def walk():
    return _walk()


def test_no_cell_fails_after_construction_or_substitutes(walk):
    _, failures, _ = walk
    assert not failures, "\n".join(failures)


def test_walk_sees_every_driver_and_engine(walk):
    supported, _, _ = walk
    assert {cell[0] for cell in supported} == set(DRIVERS)
    engines = {_engine(cell[6], cell[2], cell[-1]) for cell in supported}
    assert engines == {"elementwise", "fused", "packed"}


def test_supported_packed_cells_run_through_the_scheduler(walk):
    supported, _, _ = walk
    packed = {cell[1:] for cell in supported if cell[2] == "packed"}
    scheduled = {
        cell[1:] for cell in supported
        if cell[0] == "scheduler" and cell[2] == "packed"
    }
    assert packed and packed == scheduled


def test_scheduler_runs_exactly_the_ensemble_cells(walk):
    supported, _, _ = walk
    by_driver = {
        driver: {cell[1:] for cell in supported if cell[0] == driver}
        for driver in ("ensemble", "scheduler")
    }
    assert by_driver["scheduler"] == by_driver["ensemble"]


# -- the docs table ------------------------------------------------------------


def _names(found, universe) -> list:
    return [name for name in universe if name in found]


def _check_mark(updaters: set) -> str:
    """✅ for every updater, ❌ for none, else ✅ with the updaters named."""
    if not updaters:
        return "❌"
    if updaters == set(UPDATERS):
        return "✅"
    return "✅ (" + ", ".join(_names(updaters, UPDATERS)) + ")"


def _observed_rows(supported, replayed) -> dict:
    """The table rows the walk can observe, rendered per engine column."""
    cells_of = {engine: [] for engine in ENGINES}
    for cell in supported:
        cells_of[_engine(cell[6], cell[2], cell[-1])].append(cell)
    cells_of["traced"] = [cell for cell in cells_of["fused"] if cell in replayed]

    def updaters(engine, keep=lambda cell: True):
        return {cell[1] for cell in cells_of[engine] if keep(cell)}

    rows = {}
    for engine in ENGINES:
        names = updaters(engine)
        on_pod = updaters(engine, lambda cell: cell[0] == "distributed")
        ensembled = {
            cell[1:] for cell in cells_of[engine] if cell[0] == "ensemble"
        }
        scheduled = {
            cell[1:] for cell in cells_of[engine] if cell[0] == "scheduler"
        }
        rows.setdefault("updaters", []).append(
            "all" if names == set(UPDATERS)
            else ", ".join(_names(names, UPDATERS)) + " only"
        )
        rows.setdefault("external field h ≠ 0", []).append(
            "✅" if updaters(engine, lambda cell: cell[3] != 0.0) else "❌"
        )
        rows.setdefault("disordered couplings", []).append(
            _check_mark(updaters(engine, lambda cell: cell[4] != "ferro"))
        )
        rows.setdefault("`block_shape` override", []).append(
            _check_mark(updaters(engine, lambda cell: cell[5] is not None))
        )
        rows.setdefault("dtypes", []).append(
            ", ".join(_names({cell[2] for cell in cells_of[engine]}, DTYPES))
        )
        rows.setdefault('`backend="tpu"`', []).append(
            _check_mark(updaters(engine, lambda cell: cell[6] == "tpu"))
        )
        rows.setdefault("`distributed()` updaters", []).append(
            ", ".join(_names(on_pod, UPDATERS)) or "❌"
        )
        rows.setdefault("scheduler / `repro.serve`", []).append(
            "✅" if scheduled and scheduled == ensembled else "❌"
        )
    return rows


#: Rows the walk does not observe (it runs one lattice shape and does
#: not count allocations).
UNOBSERVED_ROWS = ("lattice width", "steady-state allocation")


def _docs_table() -> tuple[list, dict]:
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("## What each forbids", 1)[1].split("\n## ", 1)[0]
    lines = [ln for ln in section.splitlines() if ln.startswith("|")]
    split = [[c.strip() for c in ln.strip("|").split("|")] for ln in lines]
    header, body = split[0], split[2:]
    return header[1:], {row[0]: row[1:] for row in body}


def test_docs_support_table_matches_the_walk(walk):
    supported, _, replayed = walk
    columns, table = _docs_table()
    assert columns == list(ENGINES)
    observed = _observed_rows(supported, replayed)
    assert set(table) == set(observed) | set(UNOBSERVED_ROWS)
    for name, cells in observed.items():
        assert table[name] == cells, (
            f"docs/engines.md row {name!r} says {table[name]}, "
            f"the walk observed {cells}"
        )


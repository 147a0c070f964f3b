"""Child process of the library workloads: ``sweep_512`` and ``scan_64``.

Builds the workload's simulation from the seed, prints ``READY`` on its
own line just before the first timed sweep (the parent stops its set-up
clock there), times sweeps for the requested seconds, then checks the
outputs against a reference run outside the timed window.  The last
stdout line is one JSON object the parent reads.

Run by ``hostbench/run.py``; ``--setup-only`` exits right after
``READY`` so the parent can sample set-up time in several processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np
import repro
from repro.observables.onsager import internal_energy, spontaneous_magnetization

from tracing import Tracer, install_core

#: sweep_512: one 512 x 512 chain at T = 2.2 on the default engine.
SWEEP_SIDE = 512
SWEEP_TEMPERATURE = 2.2
#: scan_64: the Fig. 7/8 temperature ladder on 64 x 64 lattices.
SCAN_SIDE = 64
SCAN_TEMPERATURES = np.linspace(2.0, 2.6, 16)
#: Share of the scan's samples discarded as burn-in before the
#: Onsager comparison.
SCAN_BURN_IN_SHARE = 0.25
#: Onsager tolerances at both ends of the ladder, per spin.  The
#: statistical error of the estimates is below 0.003 at a few hundred
#: samples; a 64^2 lattice's finite-size shift is below 0.002 at
#: T = 2.0 and 2.6.
ONSAGER_ENERGY_TOL = 0.01
ONSAGER_ABS_M_TOL = 0.01
#: Above Tc the infinite lattice has m = 0; a finite 64^2 lattice keeps
#: <|m|> ~ sqrt(chi T / N), about 0.08 at T = 2.6.
HOT_ABS_M_MAX = 0.15


def _ready(tracer: "Tracer | None") -> None:
    """Mark the end of set-up; spans from here on are the timed window's."""
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if tracer is not None:
        tracer.reset()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sweep_512(seed: int, seconds: float, setup_only: bool, tracer) -> dict:
    config = repro.SimulationConfig(
        shape=SWEEP_SIDE, temperature=SWEEP_TEMPERATURE, updater="compact",
        dtype="float32", seed=seed,
    )
    start = time.perf_counter()
    sim = repro.simulate(config)
    # The first call warms the fused workspaces and records the sweep
    # program; timed sweeps are steady-state replays.
    sim.run(2)
    core_setup_s = time.perf_counter() - start
    _ready(tracer)
    if setup_only:
        return {}
    times = []
    deadline = time.perf_counter() + seconds
    clock = time.perf_counter
    while True:
        t0 = clock()
        sim.run(1)
        t1 = clock()
        times.append(t1 - t0)
        if t1 >= deadline:
            break
    return {
        "times": times,
        "peak_rss_mb": _peak_rss_mb(),
        "core_setup_s": core_setup_s,
        "sites_per_sweep": SWEEP_SIDE * SWEEP_SIDE,
        "check": lambda: _check_sweep(config, sim, 2 + len(times)),
    }


def _check_sweep(config, sim, n_sweeps: int) -> dict:
    """The timed chain vs the same seed's chain on the eager fused engine."""
    reference = repro.simulate(config.evolve(traced=False))
    reference.run(n_sweeps)
    identical = bool(np.array_equal(sim.lattice, reference.lattice))
    return {
        "bit_identical_to_eager_fused": identical,
        "timed_engine_traced": bool(sim.traced),
        "reference_engine_traced": bool(reference.traced),
        "sweeps_compared": n_sweeps,
        "ok": identical and sim.traced and not reference.traced,
    }


def scan_64(seed: int, seconds: float, setup_only: bool, tracer) -> dict:
    config = repro.SimulationConfig(
        shape=SCAN_SIDE, updater="compact", dtype="float32", seed=seed,
        initial="cold",
    )
    start = time.perf_counter()
    ens = repro.ensemble(config, temperatures=SCAN_TEMPERATURES)
    ens.run(2)
    core_setup_s = time.perf_counter() - start
    _ready(tracer)
    if setup_only:
        return {}
    times, abs_m, energy = [], [], []
    deadline = time.perf_counter() + seconds
    clock = time.perf_counter
    while True:
        t0 = clock()
        ens.run(1)
        m = ens.magnetizations()
        e = ens.energies_per_spin()
        t1 = clock()
        times.append(t1 - t0)
        abs_m.append(np.abs(m))
        energy.append(e)
        if t1 >= deadline:
            break
    return {
        "times": times,
        "peak_rss_mb": _peak_rss_mb(),
        "core_setup_s": core_setup_s,
        "sites_per_sweep": SCAN_SIDE * SCAN_SIDE * len(SCAN_TEMPERATURES),
        "check": lambda: _check_scan(
            seed, ens, 2 + len(times), np.array(abs_m), np.array(energy)
        ),
    }


def _check_scan(seed, ens, n_sweeps, abs_m, energy) -> dict:
    """One chain vs a solo chain on its stream, and Onsager at both ends."""
    index = seed % len(SCAN_TEMPERATURES)
    solo = repro.IsingSimulation(
        SCAN_SIDE, float(SCAN_TEMPERATURES[index]), updater="compact",
        seed=seed, stream_id=index, initial="cold",
    )
    solo.run(n_sweeps)
    identical = bool(np.array_equal(solo.lattice, ens.lattices[index]))

    kept = slice(int(len(abs_m) * SCAN_BURN_IN_SHARE), None)
    ends = {}
    ok = identical
    for label, chain in (("low", 0), ("high", len(SCAN_TEMPERATURES) - 1)):
        t = float(SCAN_TEMPERATURES[chain])
        e_mean = float(np.mean(energy[kept, chain]))
        m_mean = float(np.mean(abs_m[kept, chain]))
        e_exact = float(internal_energy(t))
        m_exact = float(spontaneous_magnetization(t))
        e_ok = abs(e_mean - e_exact) <= ONSAGER_ENERGY_TOL
        if m_exact > 0:
            m_ok = abs(m_mean - m_exact) <= ONSAGER_ABS_M_TOL
        else:
            m_ok = m_mean <= HOT_ABS_M_MAX
        ok = ok and e_ok and m_ok
        ends[label] = {
            "temperature": t,
            "energy": e_mean, "energy_onsager": e_exact, "energy_ok": e_ok,
            "abs_m": m_mean, "abs_m_onsager": m_exact, "abs_m_ok": m_ok,
        }
    return {
        "chain_checked": index,
        "bit_identical_to_solo": identical,
        "samples_after_burn_in": int(len(abs_m) - kept.start),
        "onsager": ends,
        "tolerances": {
            "energy": ONSAGER_ENERGY_TOL,
            "abs_m_below_tc": ONSAGER_ABS_M_TOL,
            "abs_m_above_tc_max": HOT_ABS_M_MAX,
        },
        "ok": ok,
    }


WORKLOADS = {"sweep_512": sweep_512, "scan_64": scan_64}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_core(tracer)
    run = WORKLOADS[args.workload](args.seed, args.seconds, args.setup_only, tracer)
    if args.setup_only:
        return 0
    # Snapshot the timed window's spans before the reference run adds more.
    run["trace"] = tracer.summary() if tracer is not None else None
    run["check"] = run["check"]()
    sys.stdout.write(json.dumps(run) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

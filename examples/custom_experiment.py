#!/usr/bin/env python3
"""Define your own experiment in ~10 lines with the declarative API.

An :class:`ExperimentSpec` is just data — a named grid of
:class:`RunPoint`s — and :func:`execute_spec` takes care of everything
the built-in figures get: trace reuse, content-addressed result caching,
optional process-pool sharding.  The returned
:class:`ResultSet` answers table-shaped questions directly.

This one asks a question the paper doesn't plot: how sensitive is the
locality-aware protocol (RT-3) to the ACKwise directory's pointer
count, versus the S-NUCA baseline?

Run with::

    python examples/custom_experiment.py [--scale 0.25]
"""

import argparse

from repro.experiments import ExperimentSetup, ExperimentSpec, RunPoint, execute_spec

# --- the whole experiment definition ------------------------------------
SPEC = ExperimentSpec(
    name="ackwise-sweep",
    title="ACKwise pointer-count sensitivity",
    points=tuple(
        RunPoint(scheme, benchmark,
                 config_overrides=(("ackwise_pointers", pointers),),
                 label=f"{scheme}/p{pointers}")
        for benchmark in ("BARNES", "OCEAN-C", "DEDUP")
        for scheme in ("S-NUCA", "RT-3")
        for pointers in (1, 2, 4)
    ),
    baseline="S-NUCA/p4",
)
# ------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="trace-length multiplier (default 0.25)")
    args = parser.parse_args()

    setup = ExperimentSetup.small(scale=args.scale)
    results = execute_spec(SPEC, setup)

    labels = results.labels()
    time = results.normalized_to(value="completion_time")   # spec baseline
    print(f"{SPEC.title} (completion time, {SPEC.baseline} = 1.0)\n")
    print(f"{'benchmark':12s}" + "".join(f"{label:>12s}" for label in labels))
    for benchmark, row in time.items():
        print(f"{benchmark:12s}" + "".join(f"{row[label]:>12.3f}" for label in labels))

    geo = results.geomean("completion_time", baseline=SPEC.baseline)
    print(f"\n{'GEOMEAN':12s}" + "".join(f"{geo[label]:>12.3f}" for label in labels))


if __name__ == "__main__":
    main()

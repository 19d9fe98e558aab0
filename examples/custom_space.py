"""Bring-your-own search space: profile layers, build a space, train,
replay, and export a Chrome trace.

Walks the full extension workflow:

1. profile the functional layer families on this machine
   (:mod:`repro.profiling` — the paper's "pre-profiled statistics");
2. declare a custom search space block-by-block
   (:mod:`repro.supernet.builder`);
3. train it under NASPipe and record a replayable manifest;
4. verify the replay bit-for-bit and export the execution trace for
   chrome://tracing.

Usage::

    python examples/custom_space.py [steps]
"""

import sys
from pathlib import Path

from repro import ascii_gantt, execute_manifest
from repro.profiling import measurements_to_profiles, profile_families
from repro.replay import RunManifest, record_run, verify_replay
from repro.supernet.builder import SearchSpaceBuilder


def main(steps: int = 40) -> None:
    # 1. profile the layer zoo (wall-clock, this machine).
    measurements = profile_families(width=32, batch=16, repeats=5)
    profiles = measurements_to_profiles(measurements)
    print("profiled layer families (fwd/bwd ms at width 32, batch 16):")
    for family, measurement in sorted(measurements.items()):
        print(f"  {family:>10s}: {measurement.fwd_ms:6.3f}/{measurement.bwd_ms:6.3f}"
              f"  params={measurement.param_count}")

    # 2. declare a 10-block space mixing four families per block.
    builder = SearchSpaceBuilder(
        "my-space", domain="NLP", reference_batch=32, max_batch=64,
        functional_width=32,
    )
    mix = [profiles["linear"], profiles["conv"], profiles["glu"],
           profiles["attention"]]
    for block in range(10):
        scales = [1.0 + 0.05 * ((block + c) % 4) for c in range(4)]
        builder.add_block(mix, scales=scales)
    supernet = builder.build()
    print(f"\nbuilt {supernet.space.name}: {supernet.space.num_blocks} blocks x "
          f"{supernet.space.choices_per_block} candidates")

    # 3. the builder's space is not in the registry, so describe the run
    #    directly (record_run targets registry spaces); train + manifest.
    from repro import PipelineEngine, SeedSequenceTree, SubnetStream, naspipe
    from repro.engines.functional_plane import FunctionalPlane
    from repro.sim.cluster import ClusterSpec

    seeds = SeedSequenceTree(7)
    stream = SubnetStream.sample(supernet.space, seeds, steps)
    plane = FunctionalPlane(supernet, seeds, functional_batch=8)
    engine = PipelineEngine(
        supernet, stream, naspipe(), ClusterSpec(num_gpus=4), batch=32,
        functional=plane,
    )
    result = engine.run()
    print(f"\ntrained {steps} subnets: {result.summary()}")
    print(f"weights digest: {result.digest[:16]}…")

    # 4. visualise + export.
    print("\nfirst slice of the schedule:")
    print(ascii_gantt(result.trace, width=90, end=result.trace.makespan / 4))
    out = Path("custom_space_trace.json")
    result.trace_export(path=out, label="my-space")
    print(f"\nChrome trace written to {out} (open in chrome://tracing)")

    # replay demo with a registry space (manifests target the registry)
    manifest = record_run(
        "NLP.c3", "NASPipe",
        space_overrides={"num_blocks": 12, "functional_width": 16},
        num_gpus=4, steps=20, batch=32, seed=7,
    )
    verify_replay(manifest)
    print("replay manifest for a registry space verified bitwise.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 40)

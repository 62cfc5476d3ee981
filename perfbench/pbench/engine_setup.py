"""Engine set-up probe: import the engine, run one shard, print its counts.

Run by the benchmark as a fresh process, so the time from launch to
the printed line is the engine's set-up time; the parent checks the
counts against its own ``run_shard`` answer.

    python3 perfbench/pbench/engine_setup.py <sweep-seed> <chips-per-spec>
"""

import json
import sys


def main() -> None:
    from repro.experiments.soft_gain import SoftGainConfig, specs
    from repro.runtime import worker
    from repro.runtime.spec import DEFAULT_SHARD_SIZE, ShardPlan

    config = SoftGainConfig(n_chips=int(sys.argv[2]), seed=int(sys.argv[1]))
    spec = specs(config)[0][0]
    shard = ShardPlan.split(spec.n_chips, DEFAULT_SHARD_SIZE).shards[0]
    print(json.dumps(worker.run_shard(spec, shard).tolist()), flush=True)


if __name__ == "__main__":
    main()

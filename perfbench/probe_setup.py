"""Set-up time of one workload, measured in a fresh process.

Usage: python3 probe_setup.py <src dir> <config file>

Times the path from config text to a ready initial state: parse, grid,
forcing, initial condition, and the first inverse and forward transform of
the state (which builds the FFT plans). Prints one JSON object with the
total and its parts, in seconds.
"""

import json
import sys
import time


def main() -> int:
    src, config_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from dampedns.config import build_grid, build_physics, build_state, parse_config

    with open(config_path) as fh:
        text = fh.read()
    clock = time.perf_counter
    t0 = clock()
    cfg = parse_config(text)
    t1 = clock()
    grid = build_grid(cfg)
    t2 = clock()
    build_physics(cfg, grid)
    t3 = clock()
    state = build_state(cfg, grid)
    t4 = clock()
    grid.to_spectral(grid.to_physical(state.u.coeffs))
    t5 = clock()
    print(json.dumps({"setup_s": t5 - t0, "parse_s": t1 - t0, "grid_s": t2 - t1,
                      "forcing_s": t3 - t2, "initial_s": t4 - t3, "plans_s": t5 - t4}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

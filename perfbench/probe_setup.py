"""Set-up cost of a fresh interpreter: `import qgd1d`, then loading and
validating the workload's config and building the objects a command builds.

Usage (run.py starts it): python3 probe_setup.py SRC_DIR [CONFIG.json]
Prints one JSON object with `import_s` and `config_s`.
"""

import json
import sys
import time


def main(src: str, config_path: str | None) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import qgd1d
    from qgd1d import cli

    t1 = time.perf_counter()
    cfg = cli.load_config(config_path)
    cli.build_model(cfg)
    cli.build_scheme(cfg)
    setup = cli.build_setup(cfg)
    cli.build_thresholds(cfg, setup)
    qgd1d.riemann_initial(setup, cli.build_mesh(cfg))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else None)

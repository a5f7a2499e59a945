"""Set-up probe: import quantlink and load and validate a workload config, as ``quantlink run`` does.

    python3 perfbench/probe.py SRC_DIR CONFIG_PATH SEED
"""

import dataclasses
import sys
from pathlib import Path

src, config_path, seed = Path(sys.argv[1]).resolve(), sys.argv[2], int(sys.argv[3])
sys.path.insert(0, str(src))

import quantlink  # noqa: E402
from quantlink.harness import load_config  # noqa: E402

if not Path(quantlink.__file__).resolve().is_relative_to(src):
    sys.exit(f"quantlink imported from {quantlink.__file__}, not from {src}")
config = dataclasses.replace(load_config(config_path), master_seed=seed)

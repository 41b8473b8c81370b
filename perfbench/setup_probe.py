"""One set-up of a workload in a fresh interpreter, then exit.

Usage: python3 perfbench/setup_probe.py <sweep|cohomology|cli>

The parent times this process from spawn to exit: that is `setup_s`, the
interpreter start, the `prolong` import and building the workload's inputs.
"""

import importlib
import sys

import harness

if __name__ == "__main__":
    harness.use_checkout_sources()
    importlib.import_module(f"workload_{sys.argv[1]}").setup()

"""Group-relative policy optimization for a toy block-autoregressive
flow-matching generator, with KV-cache-routing exploration and a
velocity-space surrogate policy.  Exports resolve on first use, so
``import kvgrpo.cli`` loads no numpy before the CLI pins the BLAS threads."""

from importlib import import_module

# The names read through the package from outside it (the benchmark's set-up
# probe), with their modules; everything else is imported from its module.
_MODULE_OF = {"from_flat_dict": "config", "init_state": "trainer"}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Never cached here: a function patched in its module is the one returned.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)

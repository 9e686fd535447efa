"""Every defaulted parameter of a function or method defined in qlocal.

An option doubles the configurations the tests and the benchmark must
cover, so adding one means adding it to OPTIONS here on purpose.
"""
import importlib
import inspect
import pkgutil

import qlocal

OPTIONS = {
    "qlocal.cli.main(argv)",
    "qlocal.network.Message.__init__(payload)",
    "qlocal.network.Message.__init__(qubits)",
    "qlocal.network.run(classical_only)",
    "qlocal.network.run(inputs)",
    "qlocal.network.run(seed)",
    "qlocal.network.run_exact(inputs)",
    "qlocal.network.run_sampled(inputs)",
    "qlocal.network.run_sampled(seed)",
    "qlocal.topology.Topology.__init__(allow_disconnected)",
}


def _defaulted_parameters():
    found = set()
    for info in pkgutil.iter_modules(qlocal.__path__):
        module = importlib.import_module(f"qlocal.{info.name}")
        pending = [module]
        while pending:
            scope = pending.pop()
            for value in vars(scope).values():
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    pending.append(value)
                elif inspect.isfunction(value):
                    for p in inspect.signature(value).parameters.values():
                        if p.default is not inspect.Parameter.empty:
                            found.add(f"{module.__name__}.{value.__qualname__}({p.name})")
    return found


def test_options_are_the_committed_set():
    assert _defaulted_parameters() == OPTIONS

"""The error contract: every class the package raises derives from one root."""

import importlib
import inspect
import pkgutil

import mpvesd
from mpvesd.errors import InputError, MpvesdError, NumericalError


def _exception_classes_defined_in_package():
    found = set()
    for info in pkgutil.iter_modules(mpvesd.__path__):
        module = importlib.import_module(f"mpvesd.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if (issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found.add(obj)
    return found


def test_three_exception_classes_under_one_root():
    classes = _exception_classes_defined_in_package()
    assert all(issubclass(c, MpvesdError) for c in classes)
    assert classes == {MpvesdError, InputError, NumericalError}


def test_exit_code_classes_keep_builtin_bases():
    # callers catching ValueError or RuntimeError keep working
    assert issubclass(InputError, ValueError)
    assert issubclass(NumericalError, RuntimeError)
    assert not issubclass(InputError, NumericalError)

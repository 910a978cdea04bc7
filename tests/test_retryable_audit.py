"""DGF005 whitelist audit: the linter's Retryable list IS the hierarchy.

Recovery dispatches on :class:`repro.errors.Retryable`; the linter's
DGF005 rule enforces the same contract statically from a name whitelist,
``DEFAULT_RETRYABLE`` in :mod:`repro.analysis.config` (the repository's
``[tool.dgflint]`` table does not override it). Those two views must
never drift: a new error type that joins (or leaves) the Retryable
hierarchy without updating the whitelist would make the linter either
miss real violations or cry wolf — and, worse, lets the new type slip
past the documented recovery semantics unreviewed. This audit walks the
real class tree and compares.
"""

import inspect
from pathlib import Path

import repro.errors as errors_module
from repro.analysis.config import DEFAULT_RETRYABLE, load_config
from repro.errors import ReproError, Retryable

REPO_ROOT = Path(__file__).resolve().parents[1]


def _actual_retryable_names():
    """Every class in repro.errors that recovery would retry."""
    names = {"Retryable"}
    for name, item in vars(errors_module).items():
        if not inspect.isclass(item) or item is Retryable:
            continue
        if issubclass(item, Retryable):
            names.add(name)
    return names


def test_whitelist_matches_the_class_hierarchy():
    config = load_config([str(REPO_ROOT / "src")])
    assert set(config.retryable) == _actual_retryable_names(), (
        "the retryable whitelist this tree lints with drifted from the "
        "real Retryable hierarchy in repro.errors — update "
        "DEFAULT_RETRYABLE so recovery dispatch and DGF005 agree")


def test_shipped_default_matches_too():
    # A checkout linted without its pyproject still enforces the right
    # hierarchy.
    assert set(DEFAULT_RETRYABLE) == _actual_retryable_names()


def test_every_retryable_is_a_repro_error():
    for name in _actual_retryable_names() - {"Retryable"}:
        cls = getattr(errors_module, name)
        assert issubclass(cls, ReproError), (
            f"{name} is Retryable but outside the ReproError hierarchy; "
            "recovery can only see errors the library raises")


def test_retryable_is_a_pure_marker():
    # Dispatch is by type only: the marker must stay behavior-free so
    # mixing it in can never change an exception's semantics.
    assert Retryable.__mro__ == (Retryable, object)
    assert not [name for name in vars(Retryable)
                if not name.startswith("__")]

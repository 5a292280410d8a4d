"""Shared fixtures."""

import os

import pytest

import superkdv


@pytest.fixture
def cli_child_env(tmp_path):
    """Minimal environment for `python -m superkdv.cli` children, so an
    artifact cannot depend on the parent's environment.  The children
    import the same superkdv package as this process, whether it is
    installed or only on the import path; the cache lives in tmp_path."""
    package_dir = os.path.dirname(os.path.abspath(superkdv.__file__))
    package_root = os.path.dirname(package_dir)
    import_path = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    env = {
        "SUPERKDV_CACHE_DIR": str(tmp_path),
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": import_path,
    }
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env

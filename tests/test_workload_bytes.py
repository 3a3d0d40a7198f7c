"""The bytes of every benchmark request, pinned per (workload, seed).

`workload_digest` runs the requests that perfbench/workloads.py lists for a
workload and seed, in request order, each through `cli.main` in process,
and hashes every exit code and stdout.  `WORKLOAD_DIGESTS` holds the hash
for the `catalog` and `lineage` workloads at seeds 0-5.  Tier-1 checks seed
0; CI checks every seed with

    PYTHONPATH=src:tests python -c "import test_workload_bytes as t; t.main()"

which needs no pytest.

A change that moves any of these bytes is a behaviour change and must be
argued on its own; a change to the workloads themselves re-takes the table.
"""

import contextlib
import hashlib
import importlib.util
import io
import pathlib
import sys

from knotforge.cli import main as cli_main

# perfbench/workloads.py, loaded by path so that its sibling modules stay off
# sys.path; it uses only the standard library
WORKLOADS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclass looks the module up
_spec.loader.exec_module(workloads)

WORKLOAD_DIGESTS = {
    ("catalog", 0): "4278a4ea202da1f68ee0b44b2fa536aa8cc1de69c6bc5f448b2ce87614a75646",
    ("catalog", 1): "71415fbe67c0c0040e1c82386e6fa3fd548dc5a1d7b3e8342fecb936e427bea8",
    ("catalog", 2): "51dc34754dd67a35954324fa086993f1603a21e6d39749d359b301a792dc2a1e",
    ("catalog", 3): "312397a5fa88d9781d435c8acfe077c2deab660382c5db5890c196dbbb0ab415",
    ("catalog", 4): "859bc48f718ba19323dfed4bc0ab80b73029274aef66d96ccb492b2b203b3667",
    ("catalog", 5): "f57adf645e7f4c8d5bd9514ff05faf5995067efe2b3c27da487ee8f155bc7129",
    ("lineage", 0): "9b715f44597caf899a9c53091eded229faac8c4e6e45a5971cdc3d21f4b9f4e2",
    ("lineage", 1): "ff2aeb78020e45200ebd4570004d5aae5665c0ea0f970435aff584bfd14ebcc8",
    ("lineage", 2): "cd71f9ef20e5875998b5e49b222643e357181a146c9307c3a907cb29c50a01c6",
    ("lineage", 3): "9bc436dc3531b680da8d2de120c95de44626edd313ef575ef2b9a5c4ac51de46",
    ("lineage", 4): "953be8e2266afb23c6903a83bb09b960efef609658bd044f49c1edb3dab710a8",
    ("lineage", 5): "194f14d812127ab768a4e6cb5e7fe9f8d3ae2b5bb2001a9be66195d123ff44dd",
}


def workload_digest(workload: str, seed: int) -> tuple[str, str]:
    """The sha256 over each request's exit code and stdout, in request
    order, and everything the requests wrote to stderr."""
    digest = hashlib.sha256()
    err = io.StringIO()
    for request in workloads.requests(workload, seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(request.argv))
        text = out.getvalue().encode()
        digest.update(f"{code} {len(text)}\n".encode())
        digest.update(text)
    return digest.hexdigest(), err.getvalue()


def pytest_generate_tests(metafunc):
    # the pytest hook, not its parametrize mark, so that main() runs where
    # pytest is not installed
    metafunc.parametrize("workload", ["catalog", "lineage"])


def test_seed_0_bytes(workload):
    assert workload_digest(workload, 0) == (WORKLOAD_DIGESTS[workload, 0], "")


def main() -> None:
    """Check every pinned (workload, seed); exit 1 if any differs."""
    failed = 0
    for (workload, seed), pinned in WORKLOAD_DIGESTS.items():
        digest, err = workload_digest(workload, seed)
        ok = digest == pinned and err == ""
        print("ok  " if ok else "FAIL", workload, seed, digest)
        failed += not ok
    sys.exit(1 if failed else 0)

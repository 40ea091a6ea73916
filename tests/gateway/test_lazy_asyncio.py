"""The synchronous stack never loads asyncio (it costs ~8 MiB with ssl)."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _run(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.strip()


def test_sync_imports_leave_asyncio_unloaded():
    out = _run("import sys, repro, repro.gateway, repro.workloads.traffic\n"
               "print('asyncio' in sys.modules)")
    assert out == "False"


def test_async_gateway_still_importable_from_the_package():
    out = _run("import sys\n"
               "from repro.gateway import AsyncSharingGateway\n"
               "import repro.gateway.aio as aio\n"
               "print(AsyncSharingGateway is aio.AsyncSharingGateway, 'asyncio' in sys.modules)")
    assert out == "True True"

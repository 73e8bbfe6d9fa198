"""``tools/hop_probe.py`` still finds every hop it stamps in this tree."""

import importlib.util
from pathlib import Path

import pytest

from repro.service import client

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("hop_probe", ROOT / "tools" / "hop_probe.py")
hop_probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(hop_probe)

pytestmark = pytest.mark.service


def test_every_hop_is_stamped_and_the_client_is_restored():
    patched = (client.write_frame_sync, client.read_frame_sync,
               client.RemoteConnection.request)
    hops = hop_probe.probe(ROOT, n=8, reads=20, warm=2)
    assert list(hops) == [hop for hop, _, _ in hop_probe.HOPS] + ["total"]
    assert all(ms > 0 for ms in hops.values())
    assert (client.write_frame_sync, client.read_frame_sync,
            client.RemoteConnection.request) == patched

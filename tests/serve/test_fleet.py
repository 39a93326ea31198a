"""The subprocess fleet launcher's own plumbing.

Marked ``serial``: it spawns a real ``repro-cli serve`` shard.
"""

from __future__ import annotations

import pytest

from repro.serve import Fleet, ServeClient

pytestmark = pytest.mark.serial


class TestShardOutput:
    def test_chatty_shard_never_blocks_on_its_own_output(self, tmp_path):
        """Access logging writes ~70 bytes per request to the shard's
        output pipe; ~64 KiB unread would block the shard near request
        1,000.  The launcher copies the pipe to ``shard.log`` instead."""
        requests = 2000
        with Fleet(
            shards=1, root=str(tmp_path), workers=1, heartbeat_s=0,
            extra_env={"REPRO_SERVE_LOG": "1"},
        ) as fleet:
            shard = fleet.shards[0]
            client = ServeClient(shard.url, timeout_s=5.0)
            for _ in range(requests):
                assert client.health()["status"] == "ok"
            assert shard.terminate() == 0
        log = shard.log_path.read_text()
        assert log.count('"GET /healthz HTTP/1.1" 200') == requests
        # Banner through drain summary: the copier reached EOF.
        assert "repro-serve listening on " in log
        assert "drained: " in log

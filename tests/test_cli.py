"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main

FIGURE1 = """
<!ELEMENT r (a+)>
<!ELEMENT a (b?, (c | f), d)>
<!ELEMENT b (d | f)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA | e)*>
<!ELEMENT e EMPTY>
<!ELEMENT f (c, e)>
"""

DOC_S = (
    "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c>"
    " dog<e></e></a></r>"
)
DOC_W = (
    "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c>"
    " dog</a></r>"
)


@pytest.fixture
def schema(tmp_path):
    path = tmp_path / "figure1.dtd"
    path.write_text(FIGURE1)
    return str(path)


@pytest.fixture
def doc_s_file(tmp_path):
    path = tmp_path / "s.xml"
    path.write_text(DOC_S)
    return str(path)


@pytest.fixture
def doc_w_file(tmp_path):
    path = tmp_path / "w.xml"
    path.write_text(DOC_W)
    return str(path)


class TestClassify:
    def test_figure1(self, schema, capsys):
        assert main(["classify", schema]) == 0
        out = capsys.readouterr().out
        assert "non-recursive" in out
        assert "m=7" in out

    def test_strong_note(self, tmp_path, capsys):
        path = tmp_path / "t1.dtd"
        path.write_text("<!ELEMENT a (a | b*)><!ELEMENT b EMPTY>")
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PV-strong" in out
        assert "depth bound" in out


class TestValidate:
    def test_invalid_document(self, schema, doc_s_file, capsys):
        assert main(["validate", schema, doc_s_file]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_valid_document(self, schema, tmp_path, capsys):
        path = tmp_path / "ok.xml"
        path.write_text("<r><a><c>text</c><d></d></a></r>")
        assert main(["validate", schema, str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_a_100000_deep_document_is_valid(self, tmp_path):
        """The validator reads the tree in one iterative walk: a document
        a hundred times deeper than the interpreter's recursion limit
        validates.  Run as a real process: the exit code is the
        contract."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        schema = tmp_path / "x.dtd"
        schema.write_text("<!ELEMENT r (x*)><!ELEMENT x (x*)>")
        doc = tmp_path / "deep.xml"
        depth = 100_000
        doc.write_text("<r>" + "<x>" * depth + "</x>" * depth + "</r>")
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "validate", str(schema), str(doc)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr[-500:]
        assert result.stderr == ""


class TestCheck:
    def test_potentially_valid(self, schema, doc_s_file, capsys):
        assert main(["check", schema, doc_s_file]) == 0
        assert "potentially valid" in capsys.readouterr().out

    def test_not_potentially_valid(self, schema, doc_w_file, capsys):
        assert main(["check", schema, doc_w_file]) == 1
        out = capsys.readouterr().out
        assert "NOT potentially valid" in out
        assert "/r/a[0]" in out

    @pytest.mark.parametrize(
        "algorithm", ["auto", "kernel", "machine", "figure5", "earley"]
    )
    def test_algorithms(self, schema, doc_s_file, algorithm):
        assert main(["check", schema, doc_s_file, "--algorithm", algorithm]) == 0


class TestProfile:
    def test_check_mode_defaults_to_auto(self, schema, doc_s_file, capsys):
        assert main(["profile", schema, doc_s_file, "--top", "3"]) == 0
        assert "algorithm auto" in capsys.readouterr().err

    def test_a_rejected_document_exits_one(self, schema, doc_w_file):
        assert main(["profile", schema, doc_w_file, "--algorithm", "machine"]) == 1

    def test_a_malformed_document_is_a_usage_error(self, schema, tmp_path, capsys):
        path = tmp_path / "broken.xml"
        path.write_text("<r><a>")
        assert main(["profile", schema, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestComplete:
    def test_completes_s(self, schema, doc_s_file, capsys):
        assert main(["complete", schema, doc_s_file]) == 0
        out = capsys.readouterr().out
        assert "<d>A quick brown</d>" in out

    def test_refuses_w(self, schema, doc_w_file, capsys):
        assert main(["complete", schema, doc_w_file]) == 1
        assert "no completion" in capsys.readouterr().err

    def test_a_12000_deep_document_completes(self, tmp_path):
        """Completion is one pass over the tree walk, so a document twelve
        times deeper than the interpreter's recursion limit completes.
        Run as a real process: the exit code and stderr are the
        contract."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.dtd.parser import parse_dtd
        from repro.validity.validator import DTDValidator
        from repro.xmlmodel.parser import parse_xml

        dtd_text = "<!ELEMENT r (x*)><!ELEMENT x (x*)>"
        schema = tmp_path / "x.dtd"
        schema.write_text(dtd_text)
        doc = tmp_path / "deep.xml"
        depth = 12_000
        doc.write_text("<r>" + "<x>" * depth + "</x>" * depth + "</r>")
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "complete", str(schema), str(doc)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr[-500:]
        assert result.stderr.splitlines() == ["-- inserted 0 element(s)"]
        completed = parse_xml(result.stdout)
        assert completed.depth() == depth + 1
        assert DTDValidator(parse_dtd(dtd_text)).is_valid(completed)


class TestVersion:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestServeCli:
    def test_workers_is_not_a_serve_flag(self, capsys):
        """Verdicts run on the server's threads; processes are shards."""
        assert main(["serve", "--workers", "2"]) == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_no_tcp_without_unix(self):
        assert main(["serve", "--no-tcp"]) == 2

    def test_bind_failure_is_runtime_error(self, tmp_path, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        _host, port = blocker.getsockname()
        try:
            # SO_REUSEADDR does not rescue an actively listening port.
            assert main(["serve", "--port", str(port)]) == 1
        finally:
            blocker.close()
        assert "error:" in capsys.readouterr().err

    def test_ring_must_be_positive(self):
        assert main(["serve", "--ring", "0"]) == 2
        assert main(["serve", "--ring", "-2"]) == 2


class TestRingCli:
    def test_ring_and_workers_are_exclusive(self, schema, doc_s_file):
        assert main(
            ["batch", schema, doc_s_file, "--ring", "a.sock",
             "--workers", "2"]
        ) == 2

    def test_empty_ring_address_list_is_usage_error(self, schema, doc_s_file):
        assert main(["batch", schema, doc_s_file, "--ring", ","]) == 2

    def test_ring_port_typo_is_usage_error(self, schema, doc_s_file, capsys):
        status = main(
            ["batch", schema, doc_s_file, "--ring", "127.0.0.1:875O"]
        )
        assert status == 2
        assert "bad ring address" in capsys.readouterr().err

    def test_batch_ring_round_trip(self, schema, doc_s_file, doc_w_file,
                                   tmp_path, capsys):
        from repro.server.server import ServerThread

        handles = [
            ServerThread(unix_path=str(tmp_path / f"shard-{i}.sock"),
                         port=0).start()
            for i in range(2)
        ]
        try:
            ring_arg = ",".join(handle.unix_path for handle in handles)
            status = main(
                ["batch", schema, doc_s_file, doc_w_file,
                 "--ring", ring_arg, "--stats"]
            )
        finally:
            for handle in handles:
                handle.stop()
        captured = capsys.readouterr()
        assert status == 1  # one document is not potentially valid
        assert f"{doc_s_file}: potentially valid" in captured.out
        assert "NOT potentially valid" in captured.out
        assert "on shard" in captured.err
        assert "ring:" in captured.err

    def test_batch_ring_unreachable_shard_is_runtime_error(
        self, schema, doc_s_file, tmp_path, capsys
    ):
        missing = str(tmp_path / "nobody.sock")
        status = main(["batch", schema, doc_s_file, "--ring", missing])
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_ring_read_policy_round_trip(
        self, schema, doc_s_file, doc_w_file, tmp_path, capsys
    ):
        from repro.server.server import ServerThread

        handles = [
            ServerThread(unix_path=str(tmp_path / f"shard-{i}.sock"),
                         port=0).start()
            for i in range(2)
        ]
        try:
            ring_arg = ",".join(handle.unix_path for handle in handles)
            status = main(
                ["batch", schema, doc_s_file, doc_w_file,
                 "--ring", ring_arg, "--replicas", "2",
                 "--read-policy", "round-robin", "--stats"]
            )
            # Compile-once held under the balanced policy.
            compiles = sum(
                handle.server.registry.stats.misses for handle in handles
            )
        finally:
            for handle in handles:
                handle.stop()
        captured = capsys.readouterr()
        assert status == 1  # one document is not potentially valid
        assert "policy: round-robin" in captured.err
        assert compiles == 1

    def test_batch_ring_coarse_filter_answers_locally(
        self, schema, doc_s_file, doc_w_file, tmp_path, capsys
    ):
        """``--admission on`` filters a ring batch (from the second run,
        once a shard holds the artifact) without changing a verdict."""
        from repro.server.server import ServerThread

        reject = tmp_path / "zz.xml"
        reject.write_text("<r><zz></zz></r>")  # undeclared: a definite reject
        docs = [doc_s_file, doc_w_file, str(reject)]
        handles = [
            ServerThread(unix_path=str(tmp_path / f"shard-{i}.sock"),
                         port=0).start()
            for i in range(2)
        ]
        try:
            ring_arg = ",".join(handle.unix_path for handle in handles)
            runs = []
            for admission in ("off", "on", "on"):
                status = main(
                    ["batch", schema, *docs, "--ring", ring_arg,
                     "--admission", admission, "--stats"]
                )
                runs.append((status, capsys.readouterr()))
        finally:
            for handle in handles:
                handle.stop()
        (off_status, off), _first, (on_status, on) = runs

        def verdicts(out: str) -> list[str]:
            # A filtered reject names one blocked node, the full check
            # every one, so only the verdicts must match line for line.
            return [line.split(" (")[0] for line in out.splitlines()]

        assert off_status == on_status == 1
        assert verdicts(on.out) == verdicts(off.out)
        assert len(verdicts(off.out)) == len(docs)
        assert "'coarse_filtered': 0" in off.err
        assert "'coarse_filtered': 1" in on.err

    def test_batch_admission_requires_ring(self, schema, doc_s_file, capsys):
        status = main(["batch", schema, doc_s_file, "--admission", "on"])
        assert status == 2
        assert "--admission requires --ring" in capsys.readouterr().err

    def test_batch_read_policy_requires_ring(self, schema, doc_s_file,
                                             capsys):
        status = main(
            ["batch", schema, doc_s_file, "--read-policy", "round-robin"]
        )
        assert status == 2
        assert "--read-policy requires --ring" in capsys.readouterr().err

    def test_batch_unknown_read_policy_is_usage_error(self, schema,
                                                      doc_s_file):
        status = main(
            ["batch", schema, doc_s_file, "--ring", "a.sock",
             "--read-policy", "sticky"]
        )
        assert status == 2

    def test_cli_read_policies_match_the_protocol(self):
        from repro.cli import _READ_POLICIES
        from repro.server.protocol import READ_POLICIES

        assert _READ_POLICIES == READ_POLICIES

    def test_batch_ring_bad_dtd_is_usage_error(self, tmp_path, doc_s_file,
                                               capsys):
        # The ring client fingerprints the schema locally; a parse error
        # must exit 2 like the local batch path, not traceback.
        bad = tmp_path / "broken.dtd"
        bad.write_text("<!ELEMENT broken")
        status = main(
            ["batch", str(bad), doc_s_file, "--ring",
             str(tmp_path / "unused.sock")]
        )
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_ring_starts_n_shards(self, tmp_path):
        # A real `repro serve --ring 2` subprocess: both shards come up
        # on suffixed socket paths, both answer, and SIGINT tears the
        # whole ring down cleanly — unlinking every socket (the stale
        # path regression, exercised through the CLI).
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro
        from repro.server.client import ValidationClient

        base = str(tmp_path / "ring.sock")
        paths = [f"{base}.0", f"{base}.1"]
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--ring", "2",
             "--no-tcp", "--unix", base],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if all(os.path.exists(path) for path in paths):
                    break
                assert process.poll() is None, "serve --ring exited early"
                time.sleep(0.02)
            else:  # pragma: no cover - failure path
                pytest.fail("ring shards did not come up")
            for path in paths:
                with ValidationClient.connect_unix(path) as client:
                    assert client.check(FIGURE1, DOC_S)["potentially_valid"]
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=15) == 0
            assert not any(os.path.exists(path) for path in paths)
        finally:
            if process.poll() is None:  # pragma: no cover - failure path
                process.kill()
                process.wait(timeout=10)


class TestErrors:
    def test_missing_file(self, schema):
        assert main(["check", schema, "/nonexistent.xml"]) == 2

    def test_bad_dtd(self, tmp_path, doc_s_file):
        path = tmp_path / "bad.dtd"
        path.write_text("<!ELEMENT broken")
        assert main(["check", str(path), doc_s_file]) == 2

    def test_malformed_xml(self, schema, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<r><a></r>")
        assert main(["check", schema, str(path)]) == 2

    def test_an_invalid_character_reference_is_one_error_line(
        self, schema, tmp_path, capsys
    ):
        path = tmp_path / "bad.xml"
        path.write_text("<r>&#xZZ;</r>")
        assert main(["check", schema, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: invalid character reference &#xZZ; (line 1, column 4)"
        ]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_batch_reports_an_invalid_character_reference_and_goes_on(
        self, schema, doc_s_file, tmp_path, capsys, workers
    ):
        path = tmp_path / "bad.xml"
        path.write_text("<r a='&#xD800;'/>")
        status = main(["batch", schema, str(path), doc_s_file, "--workers", workers])
        assert status == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "invalid character reference &#xD800;" in lines[0]
        assert lines[1].endswith("potentially valid")


class TestRingStatusCli:
    def test_all_up_reports_and_exits_zero(self, tmp_path, capsys):
        from repro.server.server import ServerThread

        handles = [
            ServerThread(unix_path=str(tmp_path / f"shard-{i}.sock"),
                         port=0).start()
            for i in range(2)
        ]
        for handle in handles:
            handle.server.set_ring_view(
                4, [h.unix_path for h in handles], 2
            )
        try:
            addrs = ",".join(handle.unix_path for handle in handles)
            status = main(["ring-status", addrs, "--stats"])
        finally:
            for handle in handles:
                handle.stop()
        out = capsys.readouterr().out
        assert status == 0
        assert out.count("up, epoch=4") == 2
        assert "registry:" in out
        # The load/heat observability the least-inflight policy needs.
        assert out.count("inflight: 0") == 2
        assert "hot schemas:" in out

    def test_down_shard_exits_one(self, tmp_path, capsys):
        from repro.server.server import ServerThread

        handle = ServerThread(
            unix_path=str(tmp_path / "up.sock"), port=0
        ).start()
        dead = str(tmp_path / "nobody.sock")
        try:
            status = main(
                ["ring-status", f"{handle.unix_path},{dead}", "--timeout", "2"]
            )
        finally:
            handle.stop()
        out = capsys.readouterr().out
        assert status == 1
        assert "DOWN" in out
        assert "up, epoch=" in out

    def test_epoch_disagreement_warns(self, tmp_path, capsys):
        from repro.server.server import ServerThread

        handles = [
            ServerThread(unix_path=str(tmp_path / f"shard-{i}.sock"),
                         port=0).start()
            for i in range(2)
        ]
        handles[0].server.set_ring_view(1, ["a"], 1)
        handles[1].server.set_ring_view(2, ["a"], 1)
        try:
            addrs = ",".join(handle.unix_path for handle in handles)
            status = main(["ring-status", addrs])
        finally:
            for handle in handles:
                handle.stop()
        captured = capsys.readouterr()
        assert status == 0
        assert "disagree on the ring epoch" in captured.err

    def test_bad_address_is_usage_error(self, capsys):
        assert main(["ring-status", "127.0.0.1:875O"]) == 2
        assert "bad ring address" in capsys.readouterr().err

    def test_empty_address_list_is_usage_error(self):
        assert main(["ring-status", ","]) == 2

    def test_discover_bootstraps_the_ring_from_one_shard(
        self, tmp_path, capsys
    ):
        from repro.server.server import ServerThread

        handles = [
            ServerThread(unix_path=str(tmp_path / f"shard-{i}.sock"),
                         port=0).start()
            for i in range(2)
        ]
        for handle in handles:
            handle.server.set_ring_view(
                4, [h.unix_path for h in handles], 2
            )
        try:
            # One seed address; the full member list comes from its view.
            status = main(
                ["ring-status", "--discover", handles[0].unix_path]
            )
        finally:
            for handle in handles:
                handle.stop()
        out = capsys.readouterr().out
        assert status == 0
        assert out.count("up, epoch=4") == 2

    def test_discover_and_addrs_are_mutually_exclusive(self, capsys):
        status = main(
            ["ring-status", "a.sock", "--discover", "b.sock"]
        )
        assert status == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_no_addrs_and_no_discover_is_usage_error(self, capsys):
        assert main(["ring-status"]) == 2
        assert "--discover" in capsys.readouterr().err

    def test_discover_from_a_dark_seed_is_a_runtime_error(
        self, tmp_path, capsys
    ):
        dead = str(tmp_path / "nobody.sock")
        status = main(["ring-status", "--discover", dead, "--timeout", "2"])
        assert status == 1
        assert "cannot discover" in capsys.readouterr().err


class TestServeReplicasCli:
    def test_replicas_must_fit_the_ring(self):
        assert main(["serve", "--ring", "2", "--replicas", "3"]) == 2
        assert main(["serve", "--ring", "2", "--replicas", "0"]) == 2
        # A standalone server belongs to no ring; a local ring keeps its
        # bound even when it joins another one.
        assert main(["serve", "--replicas", "2"]) == 2
        assert main(
            ["serve", "--ring", "2", "--replicas", "3",
             "--gossip-seed", "seed.sock"]
        ) == 2

    def test_batch_replicas_must_be_positive(self, schema, doc_s_file):
        assert main(
            ["batch", schema, doc_s_file, "--ring", "a.sock",
             "--replicas", "0"]
        ) == 2

    def test_serve_read_policy_requires_a_ring(self, capsys):
        assert main(["serve", "--read-policy", "round-robin"]) == 2
        assert "--read-policy requires" in capsys.readouterr().err
        assert main(
            ["serve", "--ring", "1", "--read-policy", "least-inflight"]
        ) == 2

    def test_serve_ring_publishes_the_view(self, tmp_path):
        # `serve --ring 2 --replicas 2` publishes epoch 1 to both shards:
        # health reports it and replies carry the stamp.
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro
        from repro.server.client import ValidationClient

        base = str(tmp_path / "ring.sock")
        paths = [f"{base}.0", f"{base}.1"]
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--ring", "2",
             "--replicas", "2", "--no-tcp", "--unix", base],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if all(os.path.exists(path) for path in paths):
                    break
                assert process.poll() is None, "serve --ring exited early"
                time.sleep(0.02)
            else:  # pragma: no cover - failure path
                pytest.fail("ring shards did not come up")
            for path in paths:
                with ValidationClient.connect_unix(path) as client:
                    deadline = time.monotonic() + 10
                    while time.monotonic() < deadline:
                        health = client.health()
                        if health["epoch"] is not None:
                            break
                        time.sleep(0.02)
                    assert health["epoch"] == 1
                    assert health["replica_count"] == 2
                    assert sorted(health["members"]) == paths
                    reply = client.check(FIGURE1, DOC_S)
                    assert reply["epoch"] == 1
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - failure path
                process.kill()
                process.wait(timeout=10)

"""CLI: detect / repair / discover over CSV files."""

import json

import pytest

from repro.cli import main
from repro.paper import fig1_instance, fig2_cfds
from repro.relational.csvio import dump_csv, load_csv
from repro.rules_json import rules_to_list, schema_to_dict


@pytest.fixture
def workspace(tmp_path):
    """Figure 1 data + Figure 2 rules on disk."""
    schema = fig1_instance().relation("customer").schema
    data_path = tmp_path / "customers.csv"
    dump_csv(fig1_instance().relation("customer"), data_path)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(schema)))
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps(rules_to_list(list(fig2_cfds().values()))))
    return tmp_path, data_path, schema_path, rules_path, schema


class TestDetect:
    def test_dirty_data_nonzero_exit(self, workspace, capsys):
        _, data, schema_path, rules, _ = workspace
        code = main(
            ["detect", "--schema", str(schema_path), "--rules", str(rules), str(data)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "4 violations" in out

    def test_summary_only(self, workspace, capsys):
        _, data, schema_path, rules, _ = workspace
        main(
            [
                "detect", "--summary-only",
                "--schema", str(schema_path), "--rules", str(rules), str(data),
            ]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1


class TestDetectJson:
    def test_format_json_is_machine_readable(self, workspace, capsys):
        _, data, schema_path, rules, _ = workspace
        code = main(
            [
                "detect", "--format", "json",
                "--schema", str(schema_path), "--rules", str(rules), str(data),
            ]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["total"] == 4
        assert document["single_tuple"] == 3 and document["pairs"] == 1
        assert len(document["violations"]) == 4
        witness = document["violations"][0]["tuples"][0]
        assert witness["relation"] == "customer" and "values" in witness


class TestRepair:
    def test_repair_writes_clean_csv(self, workspace, capsys):
        tmp, data, schema_path, rules, schema = workspace
        out_path = tmp / "clean.csv"
        code = main(
            [
                "repair",
                "--schema", str(schema_path),
                "--rules", str(rules),
                "--output", str(out_path),
                str(data),
            ]
        )
        assert code == 0
        repaired = load_csv(schema, out_path)
        cities = {t["city"] for t in repaired}
        assert cities == {"EDI", "MH"}
        # re-detect on the repaired file: clean exit
        clean_code = main(
            [
                "detect", "--summary-only",
                "--schema", str(schema_path), "--rules", str(rules), str(out_path),
            ]
        )
        assert clean_code == 0


class TestDiscover:
    def test_discover_emits_rules_json(self, workspace, capsys):
        _, data, schema_path, _, _ = workspace
        code = main(
            [
                "discover",
                "--schema", str(schema_path),
                "--max-lhs", "1",
                "--min-support", "2",
                str(data),
            ]
        )
        assert code == 0
        documents = json.loads(capsys.readouterr().out)
        assert documents
        assert all(doc["type"] == "cfd" for doc in documents)
        assert all("support" in doc for doc in documents)


class TestStream:
    def test_stream_prints_one_line_per_batch(self, workspace, capsys):
        _, data, schema_path, rules, _ = workspace
        code = main(
            [
                "stream",
                "--schema", str(schema_path),
                "--rules", str(rules),
                "--batches", "4",
                "--batch-size", "3",
                "--seed", "1",
                "--verify",
                str(data),
            ]
        )
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("batch ") for line in lines)
        assert "verified against full re-detection" in captured.err
        # exit code must mirror whether the final batch left violations live
        final_total = int(lines[-1].split(" total,")[0].rsplit(" ", 1)[-1])
        assert code == (1 if final_total else 0)

    def test_stream_format_json(self, workspace, capsys):
        _, data, schema_path, rules, _ = workspace
        code = main(
            [
                "stream", "--format", "json",
                "--schema", str(schema_path),
                "--rules", str(rules),
                "--batches", "4",
                "--batch-size", "3",
                "--seed", "1",
                "--verify",
                str(data),
            ]
        )
        document = json.loads(capsys.readouterr().out)
        assert len(document["batches"]) == 4
        assert document["verified"] is True
        assert all(
            {"batch", "edits", "added", "removed", "violations"} <= set(b)
            for b in document["batches"]
        )
        assert code == (1 if document["final_violations"] else 0)

    def test_stream_deterministic_given_seed(self, workspace, capsys):
        _, data, schema_path, rules, _ = workspace
        args = [
            "stream",
            "--schema", str(schema_path),
            "--rules", str(rules),
            "--batches", "3",
            "--batch-size", "5",
            "--seed", "42",
            str(data),
        ]
        def stable(output):
            # drop the per-batch timing, the only nondeterministic field
            return [line.rsplit(",", 1)[0] for line in output.strip().splitlines()]

        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert stable(first) == stable(second)


class TestCliBytes:
    """``--format json`` output is byte-stable: what a pipeline diffs."""

    def _stdout(self, capsys, argv):
        main(argv)
        return capsys.readouterr().out

    def test_detect_json_bytes_invariant(self, workspace, capsys):
        _, data, schema_path, rules, _ = workspace
        argv = [
            "detect", "--format", "json",
            "--schema", str(schema_path), "--rules", str(rules), str(data),
        ]
        reference = self._stdout(capsys, argv)
        assert json.loads(reference)["total"] == 4
        assert self._stdout(capsys, argv) == reference

    def test_stream_json_bytes_invariant(self, workspace, capsys):
        _, data, schema_path, rules, _ = workspace
        argv = [
            "stream", "--format", "json",
            "--schema", str(schema_path), "--rules", str(rules),
            "--batches", "4", "--batch-size", "3", "--seed", "11", str(data),
        ]
        reference = self._stdout(capsys, argv)
        assert self._stdout(capsys, argv) == reference
        # without --timings the document must contain no wall-clock field
        assert "seconds" not in reference

    def test_stream_timings_flag_restores_seconds(self, workspace, capsys):
        _, data, schema_path, rules, _ = workspace
        document = json.loads(
            self._stdout(
                capsys,
                [
                    "stream", "--format", "json", "--timings",
                    "--schema", str(schema_path), "--rules", str(rules),
                    "--batches", "2", "--batch-size", "2", "--seed", "11",
                    str(data),
                ],
            )
        )
        assert all("seconds" in b for b in document["batches"])


class TestRemovedShardingFlags:
    """The sharded engine's flags, and the executor selection, are argparse
    errors, not silently eaten: detection has one path."""

    @pytest.mark.parametrize(
        "flags, named",
        [(["--shards", "2"], "--shards"), (["--executor", "indexed"], "--executor")],
    )
    def test_detect_refuses(self, workspace, capsys, flags, named):
        _, data, schema_path, rules, _ = workspace
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["detect", *flags, "--schema", str(schema_path),
                 "--rules", str(rules), str(data)]
            )
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["repair", "stream"])
    def test_repair_and_stream_refuse_shards(self, workspace, capsys, command):
        _, data, schema_path, rules, _ = workspace
        with pytest.raises(SystemExit) as exit_info:
            main(
                [command, "--shards", "2", "--schema", str(schema_path),
                 "--rules", str(rules), str(data)]
            )
        assert exit_info.value.code == 2


class TestServe:
    """``repro serve`` prints one line, the listening banner; ``--quiet``
    suppresses it.  The loop is stubbed to stop at once."""

    @pytest.fixture(autouse=True)
    def _no_loop(self, monkeypatch):
        from repro.server.aio import AsyncReproServer

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(AsyncReproServer, "serve_forever", interrupted)

    def test_serve_prints_the_listening_banner(self, capsys):
        assert main(["serve", "--port", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro server listening on")

    def test_quiet_suppresses_the_banner(self, capsys):
        assert main(["serve", "--port", "0", "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")

    def test_the_verbose_knob_is_gone(self):
        from repro.server import make_server, serve

        with pytest.raises(TypeError):
            make_server(port=0, verbose=True)
        with pytest.raises(TypeError):
            serve(port=0, verbose=True)

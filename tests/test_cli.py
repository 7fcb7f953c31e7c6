"""Command-line behavior, driven end to end through main(argv)."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from ontocrawl import cli
from ontocrawl.cli import (
    EXIT_ABORTED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_ORACLE,
    OUTPUT_FILES,
    main,
)
from ontocrawl.errors import OracleParseError
from ontocrawl.hierarchy import ConceptHierarchy

from conftest import FIXTURES
from owl_check import doc_matches_hierarchy, parse_owl
from support import make_mock_crawler

GOATS = FIXTURES / "goats.json"


def crawl_argv(out_dir: Path, *extra: str) -> list[str]:
    return [
        "crawl",
        "--seed", "Goats",
        "--oracle", f"mock:{GOATS}",
        "--ft", "20",
        "--samples", "100",
        "--out-dir", str(out_dir),
        *extra,
    ]


def read_checkpoint(out_dir: Path) -> dict:
    return json.loads((out_dir / "checkpoint.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("run")
    assert main(crawl_argv(out)) == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# crawl


def test_crawl_writes_every_output_file(finished_run):
    for name in OUTPUT_FILES:
        assert (finished_run / name).exists(), name
    # The mock backend keeps no completion cache.
    assert not (finished_run / "cache.jsonl").exists()
    # The checkpoint journal lives only while the crawl runs.
    assert not (finished_run / "checkpoint.json.journal").exists()


def test_crawl_prints_a_summary(tmp_path, capsys):
    assert main(crawl_argv(tmp_path / "out", "--depth", "1")) == EXIT_OK
    out = capsys.readouterr().out
    assert "crawl finished: 6 concepts, 5 subsumptions" in out


def test_cli_crawl_matches_a_library_crawl(finished_run, goats):
    twin = make_mock_crawler(goats, oracle_tag=f"mock:{GOATS}")
    twin.run()
    assert read_checkpoint(finished_run) == twin.to_checkpoint_dict()


def test_flags_take_precedence_over_config_file(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "seed_name": "Wrong Seed",
                "exploration_depth": 1,
                "ft": 5,
                "n_samples": 10,
                "oracle": "llm",
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = crawl_argv(
        out, "--config", str(cfg), "--depth", "none", "--model", "test-model"
    )
    assert main(argv) == EXIT_OK
    config = read_checkpoint(out)["config"]
    assert config["seed_name"] == "Goats"
    assert config["exploration_depth"] is None
    assert config["ft"] == 20
    assert config["n_samples"] == 100
    assert config["oracle"] == f"mock:{GOATS}"
    assert config["params"] == {"model": "test-model"}


def test_config_file_values_hold_when_flags_are_absent(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "seed_name": "Goats",
                "exploration_depth": 1,
                "ft": 20,
                "n_samples": 100,
                "oracle": f"mock:{GOATS}",
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = ["crawl", "--config", str(cfg), "--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    assert read_checkpoint(out)["config"]["exploration_depth"] == 1
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["n_concepts"] == 6


def _cfg_file(tmp_path: Path, text: str) -> str:
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


BAD_INVOCATIONS = (
    "missing seed",
    "blank seed",
    "threshold above sample count",
    "fixture file missing",
    "config file missing",
    "config not json",
    "config not an object",
    "unknown config field",
)


@pytest.mark.parametrize("case", BAD_INVOCATIONS)
def test_bad_invocations_exit_with_config_error(case, tmp_path, capsys):
    out = ["--out-dir", str(tmp_path / "out")]
    mock = ["--oracle", f"mock:{GOATS}"]
    if case == "missing seed":
        argv = ["crawl", *mock, *out]
    elif case == "blank seed":
        argv = ["crawl", "--seed", "   ", *mock, *out]
    elif case == "threshold above sample count":
        argv = ["crawl", "--seed", "Goats", *mock, "--ft", "50",
                "--samples", "10", *out]
    elif case == "fixture file missing":
        argv = ["crawl", "--seed", "Goats",
                "--oracle", f"mock:{tmp_path / 'none.json'}", *out]
    elif case == "config file missing":
        argv = ["crawl", "--config", str(tmp_path / "none.json"), *out]
    elif case == "config not json":
        argv = ["crawl", "--config", _cfg_file(tmp_path, "not json"), *out]
    elif case == "config not an object":
        argv = ["crawl", "--config", _cfg_file(tmp_path, "[1, 2]"), *out]
    else:
        body = '{"seed_name": "Goats", "bogus": 1}'
        argv = ["crawl", "--config", _cfg_file(tmp_path, body), *out]
    assert main(argv) == EXIT_CONFIG
    assert "configuration error:" in capsys.readouterr().err


def test_depth_flag_rejects_garbage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crawl", "--seed", "G", "--depth", "soon", "--out-dir", "x"])
    assert exc.value.code == 2
    assert "depth must be an integer or 'none'" in capsys.readouterr().err


def test_oracle_parse_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(self):
        raise OracleParseError("gibberish answer")

    monkeypatch.setattr(cli.Crawler, "run", boom)
    assert main(crawl_argv(tmp_path / "out")) == EXIT_ORACLE
    assert "oracle failure: gibberish answer" in capsys.readouterr().err


def test_llm_backend_without_key_aborts_with_checkpoint(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    out = tmp_path / "out"
    argv = ["crawl", "--seed", "Goats", "--oracle", "llm",
            "--out-dir", str(out)]
    assert main(argv) == EXIT_ABORTED
    assert "crawl aborted" in capsys.readouterr().err
    data = read_checkpoint(out)
    assert len(ConceptHierarchy.from_json_dict(data["hierarchy"])) == 1
    assert (out / "stats.txt").exists()


# ---------------------------------------------------------------------------
# resume


def test_resume_continues_an_interrupted_run(tmp_path, goats, finished_run):
    out = tmp_path / "resumed"
    crawler = make_mock_crawler(
        goats,
        oracle_tag=f"mock:{GOATS}",
        checkpoint_path=out / "checkpoint.json",
        rejection_path=out / "rejected.jsonl",
    )
    for _ in range(3):
        assert crawler.step()
    assert main(["resume", str(out / "checkpoint.json")]) == EXIT_OK
    assert read_checkpoint(out) == read_checkpoint(finished_run)


def test_resume_of_a_finished_run_changes_nothing(tmp_path, finished_run):
    out = tmp_path / "again"
    out.mkdir()
    shutil.copy(finished_run / "checkpoint.json", out / "checkpoint.json")
    assert main(["resume", str(out / "checkpoint.json")]) == EXIT_OK
    assert read_checkpoint(out) == read_checkpoint(finished_run)


def test_resume_error_paths(tmp_path, finished_run, capsys):
    assert main(["resume", str(tmp_path / "none.json")]) == EXIT_CONFIG

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{{{", encoding="utf-8")
    assert main(["resume", str(mangled)]) == EXIT_CONFIG

    data = read_checkpoint(finished_run)
    data["version"] = 99
    future = tmp_path / "future.json"
    future.write_text(json.dumps(data), encoding="utf-8")
    assert main(["resume", str(future)]) == EXIT_CONFIG
    assert "configuration error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export / stats / validate-fixture


def test_export_owl_to_stdout_matches_crawl_output(finished_run, capsys):
    assert main(["export", str(finished_run / "checkpoint.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (finished_run / "hierarchy.owl").read_text(encoding="utf-8")
    h = ConceptHierarchy.from_json_dict(read_checkpoint(finished_run)["hierarchy"])
    doc_matches_hierarchy(parse_owl(out), h)


def test_export_owl_to_file_with_custom_iri(tmp_path, finished_run):
    ckpt = str(finished_run / "checkpoint.json")
    first = tmp_path / "a.owl"
    second = tmp_path / "b.owl"
    iri = "http://goats.example/v1"
    assert main(["export", ckpt, "-o", str(first), "--base-iri", iri]) == EXIT_OK
    assert main(["export", ckpt, "-o", str(second), "--base-iri", iri]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    assert parse_owl(first.read_text(encoding="utf-8")).base_iri == iri


def test_export_dot_matches_crawl_output(finished_run, capsys):
    ckpt = str(finished_run / "checkpoint.json")
    assert main(["export", ckpt, "--format", "dot"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (finished_run / "hierarchy.dot").read_text(encoding="utf-8")


def test_export_json_round_trips_the_hierarchy(finished_run, capsys):
    ckpt = str(finished_run / "checkpoint.json")
    assert main(["export", ckpt, "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data == read_checkpoint(finished_run)["hierarchy"]
    assert ConceptHierarchy.from_json_dict(data).to_json_dict() == data


def test_stats_command_matches_the_stats_file(finished_run, capsys):
    assert main(["stats", str(finished_run / "checkpoint.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (finished_run / "stats.txt").read_text(encoding="utf-8")
    # Insertion-origin edges survive the checkpoint round trip.
    assert out.splitlines()[1].split()[6] == "1"


def test_validate_fixture_accepts_the_reference_taxonomy(capsys):
    assert main(["validate-fixture", str(GOATS)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fixture ok: root 'Goats', 14 edges" in out


def test_validate_fixture_rejects_a_cycle(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"root": "A", "edges": [["B", "A"], ["A", "B"]]}),
        encoding="utf-8",
    )
    assert main(["validate-fixture", str(bad)]) == EXIT_CONFIG
    assert "cycle" in capsys.readouterr().err

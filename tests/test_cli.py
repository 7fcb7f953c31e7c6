"""Command-line behavior, driven end to end through main(argv)."""

from __future__ import annotations

import hashlib
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from ontocrawl import CrawlConfig, cli
from ontocrawl.cli import (
    EXIT_ABORTED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_ORACLE,
    OUTPUT_FILES,
    main,
)
from ontocrawl.errors import OracleParseError, TransportError
from ontocrawl.hierarchy import ConceptHierarchy

import daggen
from conftest import FIXTURES
from owl_check import doc_matches_hierarchy, parse_owl
from support import (
    MALFORMED_CHECKPOINT_FIELDS,
    RaisingOracle,
    c2_dag,
    make_mock_crawler,
    with_value_at,
)

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
    "threshold not an integer",
    "params not an object",
    "unknown completion parameter",
)

CONFIG_BODIES = {
    "unknown config field": '{"seed_name": "Goats", "bogus": 1}',
    "threshold not an integer": '{"seed_name": "Goats", "ft": "3", "n_samples": 10}',
    "params not an object": '{"seed_name": "Goats", "params": [1, 2]}',
    "unknown completion parameter": '{"seed_name": "Goats", "params": {"temp": 0.5}}',
}


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
        body = CONFIG_BODIES[case]
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


CACHED_REPLY = '{"key": "k", "reply": "Yes"}\n'


@pytest.mark.parametrize(
    "text",
    [
        CACHED_REPLY + '{"key": "k2", "rep\n',
        CACHED_REPLY + "[1]\n",
        '"k"\n',
        '{"reply": "Yes"}\n',
        '{"key": ["k"], "reply": "Yes"}\n',
        "\n",
    ],
    ids=["torn inside", "a list", "a string", "no key", "key a list", "blank"],
)
def test_a_malformed_cache_line_exits_with_config_error(
    text, tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    out = tmp_path / "out"
    out.mkdir()
    (out / "cache.jsonl").write_text(text, encoding="utf-8")
    argv = ["crawl", "--seed", "Goats", "--oracle", "llm", "--out-dir", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "cache.jsonl line" in capsys.readouterr().err


def test_a_torn_last_cache_line_is_cut_off(tmp_path, monkeypatch, capsys):
    """The text after the last newline was never committed: the crawl reads
    the lines before it and goes on to the endpoint, here one without a key."""
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    out = tmp_path / "out"
    out.mkdir()
    cache = out / "cache.jsonl"
    cache.write_text(CACHED_REPLY + '{"key": "k2", "rep', encoding="utf-8")
    argv = ["crawl", "--seed", "Goats", "--oracle", "llm", "--out-dir", str(out)]
    assert main(argv) == EXIT_ABORTED
    assert "crawl aborted" in capsys.readouterr().err
    assert cache.read_text(encoding="utf-8") == CACHED_REPLY


@pytest.mark.parametrize("broken", ["missing fixture", "malformed cache"])
def test_a_crawl_that_cannot_start_changes_no_file(
    broken, tmp_path, finished_run, monkeypatch, capsys
):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    if broken == "missing fixture":
        argv = crawl_argv(out, "--oracle", f"mock:{tmp_path / 'missing.json'}")
    else:
        (out / "cache.jsonl").write_text(CACHED_REPLY + "[1]\n", encoding="utf-8")
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        argv = crawl_argv(out, "--oracle", "llm")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before["queries.jsonl"]
    assert main(argv) == EXIT_CONFIG
    assert "configuration error:" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("op", ["is_instance", "is_part", "under_seed"])
def test_transport_failure_in_verification_exits_4_and_resumes(
    tmp_path, monkeypatch, finished_run, op
):
    build = cli._build_oracle

    def flaky(*args):
        error = TransportError("HTTP 429", status=429, retryable=False)
        return RaisingOracle(build(*args), op, error, after=5)

    out = tmp_path / "out"
    monkeypatch.setattr(cli, "_build_oracle", flaky)
    assert main(crawl_argv(out)) == EXIT_ABORTED
    assert read_checkpoint(out)["rejections"] == []
    monkeypatch.setattr(cli, "_build_oracle", build)
    assert main(["resume", str(out / "checkpoint.json")]) == EXIT_OK
    for name in ("hierarchy.owl", "hierarchy.dot", "rejected.jsonl"):
        assert (out / name).read_bytes() == (finished_run / name).read_bytes()
    resumed, clean = read_checkpoint(out), read_checkpoint(finished_run)
    assert resumed["hierarchy"] == clean["hierarchy"]


@pytest.mark.parametrize(
    "op, after", [("has_subconcepts", 0), ("is_instance", 0), ("is_instance", 3)]
)
def test_an_interrupt_before_the_first_commit_of_a_step_resumes(
    tmp_path, monkeypatch, finished_run, op, after
):
    """The base is written before the first oracle call, so an interrupt at
    that call, or later inside the seed's step, leaves a checkpoint that
    ``resume`` takes to the outputs of an uninterrupted run."""
    build = cli._build_oracle

    def interrupted(*args):
        return RaisingOracle(build(*args), op, KeyboardInterrupt(), after=after)

    out = tmp_path / "out"
    monkeypatch.setattr(cli, "_build_oracle", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(crawl_argv(out))
    assert read_checkpoint(out)["counters"]["explorations"] == 0
    assert (out / "checkpoint.json.journal").exists()
    monkeypatch.setattr(cli, "_build_oracle", build)
    assert main(["resume", str(out / "checkpoint.json")]) == EXIT_OK
    for name in ("hierarchy.owl", "hierarchy.dot", "stats.json", "stats.txt",
                 "checkpoint.json", "rejected.jsonl"):
        assert (out / name).read_bytes() == (finished_run / name).read_bytes(), name
    assert not (out / "checkpoint.json.journal").exists()


def test_max_concepts_flag_caps_the_crawl(tmp_path, goats):
    out = tmp_path / "out"
    assert main(crawl_argv(out, "--max-concepts", "5")) == EXIT_OK
    twin = make_mock_crawler(goats, max_concepts=5, oracle_tag=f"mock:{GOATS}")
    twin.run()
    data = read_checkpoint(out)
    assert data["config"]["max_concepts"] == 5
    assert len(data["hierarchy"]["concepts"]) == 5
    assert data == twin.to_checkpoint_dict()


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


def test_resume_reads_the_checkpoint_once(tmp_path, finished_run, monkeypatch):
    out = tmp_path / "again"
    out.mkdir()
    shutil.copy(finished_run / "checkpoint.json", out / "checkpoint.json")
    calls = Counter()
    for cls, name in ((CrawlConfig, "from_dict"), (ConceptHierarchy, "from_json_dict")):

        def counting(data, _original=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _original(data)

        monkeypatch.setattr(cls, name, counting)
    assert main(["resume", str(out / "checkpoint.json")]) == EXIT_OK
    assert calls == {"from_dict": 1, "from_json_dict": 1}
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


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINT_FIELDS))
def test_a_malformed_checkpoint_field_exits_with_config_error(
    case, tmp_path, finished_run, capsys
):
    path, value = MALFORMED_CHECKPOINT_FIELDS[case]
    bad = tmp_path / "checkpoint.json"
    bad.write_text(
        json.dumps(with_value_at(read_checkpoint(finished_run), path, value)),
        encoding="utf-8",
    )
    for argv in (
        ["stats", str(bad)],
        ["export", str(bad), "-o", str(tmp_path / "out.owl")],
        ["resume", str(bad)],
    ):
        assert main(argv) == EXIT_CONFIG, argv
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


def test_an_unexportable_name_exits_3_and_writes_no_file(tmp_path, finished_run, capsys):
    data = read_checkpoint(finished_run)
    data["hierarchy"]["concepts"][-1]["canonical_name"] += "\x01"
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    target = tmp_path / "out.owl"
    assert main(["export", str(bad), "--format", "owl", "-o", str(target)]) == EXIT_ORACLE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "XML cannot carry" in line
    assert not target.exists()


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


# ---------------------------------------------------------------------------
# byte identity


def pinned_fixtures() -> dict[str, dict]:
    """Goats and the first 20 noise-free random DAGs of acceptance criterion 2."""
    fixtures = {"goats": json.loads(GOATS.read_text(encoding="utf-8"))}
    for i in range(20):
        fixtures[f"c2-{i:02d}"] = daggen.to_fixture(c2_dag(i)[1])
    return fixtures


def crawl_digest(fixture: dict, work: Path) -> str:
    """SHA-256 over every file ``ontocrawl crawl`` writes, by file name.

    The lines of ``queries.jsonl`` are sorted: probes sent in one round may
    log in any order."""
    (work / "fixture.json").write_text(json.dumps(fixture), encoding="utf-8")
    argv = ["crawl", "--seed", fixture["root"], "--oracle", "mock:fixture.json"]
    assert main([*argv, "--out-dir", "out"]) == EXIT_OK
    digest = hashlib.sha256()
    for path in sorted((work / "out").iterdir()):
        raw = path.read_bytes()
        if path.name == "queries.jsonl":
            raw = b"".join(sorted(raw.splitlines(keepends=True)))
        digest.update(f"{path.name}\0{len(raw)}\0".encode("utf-8") + raw)
    return digest.hexdigest()


# Recorded from mock crawls; a change that alters any output file, the set of
# files or the multiset of logged queries changes the digest.
PINNED_DIGESTS = {
    "c2-00": "0f3c93f5f6f256d77ad227e9b31c586cd5bf3d13d991cee3fd7c6f8fa0b3eefa",
    "c2-01": "a841948b1918a134fc8c68b6a000fe2dca4f201e7ba999e64db12937a7529578",
    "c2-02": "bc3c8035cd5ce80e37f9e28768cca4af5bbb84fdd0d8fac52a6902c4393156cc",
    "c2-03": "1c23b145747aa09f9222e9baeef72e65b4fdb3af8f88ce2eb42c84d5161aa748",
    "c2-04": "10af316801091df3ea88b12cbdf5e361f3c719f2fe5149122b8426dd01d867c5",
    "c2-05": "e4448eee7e5bc5584e5ce0e65aa6a3400c269d25d69e97081b97fe59ba94879e",
    "c2-06": "27efcdb1fc0da6813365cfbdcf1f3af9c9df1d65baf9aa1fdffc1a07d5cedc2a",
    "c2-07": "7d40aa357795b5826b11a647809475c828ad2df9171eed80497be80d765496c7",
    "c2-08": "2f9e1cfcfb7cb4d6867ca7875256797859bc8d59a402e4356a3fff84170d97fb",
    "c2-09": "8444e9892332b8ee53cc3b9d8777c1e9be56b26b687569457f9a837b979279c3",
    "c2-10": "c92c3115f51aa65553018e0e4b78698b2819b100b2fdfeb3d5d5de1294a39ba1",
    "c2-11": "dd604bf06c9342578c007ade6c08b57ca3bb40ed8cd2356c15b5f5b786bc819d",
    "c2-12": "bb87e34ea9aa9a25e6653d547997863f482b08b8f87124844a1e47f1e74b92b7",
    "c2-13": "6557ececc3d7e5a9c58c484d1b7fd5f5cbbf1113ad2cc4584067a27e842df37c",
    "c2-14": "949d86a2789f3e210d74a83197ad72315b7648384a966fa22db2bfca6e2be0d8",
    "c2-15": "15b8a7b965547c9efdd524a86ed53f81ce3060c6d0cbec5017d9be2407a2e6b1",
    "c2-16": "56e8735073720e71fa664bee3c5e8c951eb5d78e9ff3dc4db98f8dee59bdb688",
    "c2-17": "7b4b0a128c3e8ed34f8f94c593a8d9ceb7f8442fb03089e457e058701fbc7395",
    "c2-18": "582b96e9a58c6a129e5229c7e018ef68d209111515c7898e0292e847ed202d62",
    "c2-19": "987df5326663b93ede49b7b6d51a9ee549592a9d8d5cb3d681f598c0bc7aad71",
    "goats": "2982c4d91b4c15b7804f871cdfd6baf97843abf2a4f2069b23626a86a4d8b020",
}


@pytest.mark.parametrize("name", sorted(pinned_fixtures()))
def test_crawl_outputs_are_byte_identical_to_the_pinned_run(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert crawl_digest(pinned_fixtures()[name], tmp_path) == PINNED_DIGESTS[name]

"""Tests for repro.cli — the command-line interface."""

import os
import tempfile

import pytest

from repro.cli import build_parser, main
from repro.decode import _cnative, available_backends


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.skipif(
    not hasattr(os, "getuid") or "cnative" not in available_backends(),
    reason="needs a C compiler and the per-user kernel cache",
)
def test_backends_says_where_the_kernel_came_from(
    capsys, tmp_path, monkeypatch
):
    """Under the table, one line names the kernel library and whether
    it was built in this process or loaded from the kernel cache."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_cnative, "_STATE", None)
    monkeypatch.setattr(_cnative, "_ORIGIN", None)
    prefix = f"kernel: {tmp_path / f'repro-kernel-cache-{os.getuid()}'}"
    code, out = run(capsys, "backends")
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith(prefix)
    assert " built in this process in " in last
    monkeypatch.setattr(_cnative, "_STATE", None)
    code, out = run(capsys, "backends")
    assert out.splitlines()[-1] == (
        last.split(", built")[0] + ", loaded from the kernel cache"
    )


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_tables_all(capsys):
    code, out = run(capsys, "tables")
    assert code == 0
    assert "Table 1" in out and "Table 2" in out and "Table 3" in out
    assert "450" in out  # Addr for R=1/2


def test_tables_single(capsys):
    code, out = run(capsys, "tables", "--table", "2")
    assert code == 0
    assert "Table 2" in out
    assert "Table 1" not in out


def test_datasheet(capsys):
    code, out = run(capsys, "datasheet")
    assert code == 0
    for section in ("Table 1", "Table 2", "Table 3", "Throughput",
                    "Energy model"):
        assert section in out


def test_throughput(capsys):
    code, out = run(capsys, "throughput")
    assert code == 0
    assert "9/10" in out
    assert "NO" not in out


def test_power(capsys):
    code, out = run(capsys, "power")
    assert code == 0
    assert "pJ/bit/iter" in out


def test_ber_small(capsys):
    code, out = run(
        capsys, "ber", "--rate", "1/2", "--ebn0", "3.0",
        "--frames", "4", "--parallelism", "12",
    )
    assert code == 0
    assert "BER" in out
    assert "frames          : 4" in out


def test_ber_quantized_schedule(capsys):
    code, out = run(
        capsys, "ber", "--rate", "1/2", "--ebn0", "3.0",
        "--frames", "4", "--parallelism", "12",
        "--schedule", "quantized-zigzag", "--channel-scale", "0.5",
    )
    assert code == 0
    assert "fixed point     : 6-bit (2 fractional), channel scale 0.5" in out
    assert "frames          : 4" in out


def test_ber_quantized_wordlength_5(capsys):
    code, out = run(
        capsys, "ber", "--rate", "1/2", "--ebn0", "3.5",
        "--frames", "2", "--parallelism", "12",
        "--schedule", "quantized-minsum", "--wordlength", "5",
        "--channel-scale", "0.25",
    )
    assert code == 0
    assert "fixed point     : 5-bit (1 fractional)" in out


def test_ber_worker_count_and_telemetry_keep_the_answer(capsys, tmp_path):
    """Every run takes the sharded engine, so neither the worker count
    nor a telemetry flag changes the seeded measurement."""
    base = ("ber", "--parallelism", "12", "--frames", "64",
            "--ebn0", "1.0", "--seed", "5")
    answers = []
    for extra in (
        ("--workers", "1"),
        ("--workers", "2"),
        ("--workers", "1", "--metrics-out", str(tmp_path / "m.json")),
    ):
        code, out = run(capsys, *base, *extra)
        assert code == 0
        answers.append([
            line for line in out.splitlines()
            if line.split(":")[0].strip() in ("BER", "FER", "avg iterations")
        ])
    assert len(answers[0]) == 3
    assert answers[0] == answers[1] == answers[2]


def test_ber_channel_scale_requires_quantized(capsys):
    code = main([
        "ber", "--rate", "1/2", "--ebn0", "3.0", "--frames", "2",
        "--parallelism", "12", "--schedule", "flooding",
        "--channel-scale", "0.5",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "quantized" in err


def test_decoder_flags_are_one_group_with_the_spec_defaults():
    """``ber`` and the serve commands expose the same decoder flags,
    whose defaults build :class:`DecoderSpec`'s own recipe."""
    from repro.cli import _decoder_spec
    from repro.decode import DecoderSpec

    flags = ("schedule", "wordlength", "frac_bits", "channel_scale",
             "backend")
    seen = []
    for argv in (["ber"], ["serve", "-"], ["loadgen"], ["fabric"]):
        args = build_parser().parse_args(argv)
        seen.append({flag: getattr(args, flag) for flag in flags})
        assert _decoder_spec(args) == DecoderSpec()
    assert all(values == seen[0] for values in seen)


@pytest.mark.parametrize(
    "bad",
    [
        ["--frac-bits", "6"],
        ["--schedule", "quantized-zigzag", "--channel-scale", "0"],
        ["--schedule", "flooding", "--wordlength", "5"],
    ],
    ids=["frac-bits", "channel-scale", "float-fmt"],
)
@pytest.mark.parametrize("command", ["ber", "serve", "loadgen", "fabric"])
def test_bad_recipe_is_one_error_line(capsys, command, bad):
    """Every command with the decoder flags rejects a recipe the spec
    rejects with one line and exit code 2, before doing any work."""
    extra = {
        "ber": ["--frames", "2"],
        "serve": ["no-such-input"],
        "loadgen": ["--duration", "0.05", "--offered-fps", "5"],
        "fabric": ["--duration", "0.1"],
    }[command]
    code = main([command, "--parallelism", "12", *extra, *bad])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_anneal_small(capsys):
    code, out = run(
        capsys, "anneal", "--rate", "1/2", "--moves", "30",
        "--parallelism", "36",
    )
    assert code == 0
    assert "peak write buffer" in out


def test_anneal_reference_kernel(capsys):
    code, out = run(
        capsys, "anneal", "--rate", "1/2", "--moves", "20",
        "--parallelism", "36", "--kernel", "reference",
    )
    assert code == 0
    assert "peak write buffer" in out


def test_anneal_rejects_unknown_kernel():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["anneal", "--kernel", "warp"])


def test_anneal_multi_chain(capsys):
    code, out = run(
        capsys, "anneal", "--rate", "1/2", "--moves", "30",
        "--parallelism", "36", "--chains", "2", "--workers", "1",
    )
    assert code == 0
    assert "x 2 chains" in out
    assert "best: chain" in out


def test_anneal_all_rates(capsys):
    code, out = run(
        capsys, "anneal", "--all-rates", "--moves", "10",
        "--parallelism", "12", "--chains", "1", "--workers", "1",
    )
    assert code == 0
    assert "all-rates annealing sweep" in out
    assert "9/10" in out
    assert "worst annealed peak across rates" in out


def test_rtl_stdout(capsys):
    code, out = run(capsys, "rtl", "--lanes", "8", "--width", "4",
                    "--ram-depth", "16")
    assert code == 0
    assert "module shuffle_network" in out
    assert out.count("endmodule") == 3


def test_rtl_to_file(capsys, tmp_path):
    target = tmp_path / "core.v"
    code, out = run(
        capsys, "rtl", "--lanes", "8", "--ram-depth", "16",
        "--output", str(target),
    )
    assert code == 0
    assert "wrote" in out
    assert "module functional_unit" in target.read_text()


def test_vectors_generate_and_replay(capsys, tmp_path):
    target = str(tmp_path / "golden.vec")
    code, out = run(
        capsys, "vectors", "generate", target,
        "--parallelism", "12", "--frames", "2",
    )
    assert code == 0
    assert "wrote 2 golden vectors" in out
    code, out = run(capsys, "vectors", "replay", target,
                    "--parallelism", "12")
    assert code == 0
    assert "all match" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_ber_scenario_flags(capsys):
    code, out = run(
        capsys, "ber", "--parallelism", "12", "--frames", "6",
        "--ebn0", "6.0", "--modulation", "qpsk",
        "--channel", "rician",
    )
    assert code == 0
    assert "qpsk/rician" in out
    assert "BER" in out


def test_ber_short_frame_requires_p360(capsys):
    with pytest.raises(SystemExit):
        main(["ber", "--frame", "short", "--parallelism", "36"])


def test_acm_table_only(capsys):
    code, out = run(capsys, "acm", "--table-only")
    assert code == 0
    assert "1/2:bpsk:normal" in out
    assert "Es/N0" in out


def test_acm_ramp_trace(capsys):
    code, out = run(
        capsys, "acm", "--frames", "16", "--parallelism", "12",
        "--seed", "3",
    )
    assert code == 0
    assert "within one step" in out
    assert "estimator" in out


def test_scenarios_cli(capsys, tmp_path):
    md = tmp_path / "matrix.md"
    code, out = run(
        capsys, "scenarios", "--cells", "1/2",
        "--ebn0", "0", "2", "4", "--parallelism", "12",
        "--frames", "8", "--workers", "1",
        "--duration", "0.1", "--offered-fps", "80",
        "--markdown-out", str(md),
    )
    assert code == 0
    assert "waterfall" in out
    assert md.read_text().startswith("| MODCOD")


def test_scenarios_rejects_bad_cell(capsys):
    code = main(["scenarios", "--cells", "1/2:bpsk:normal:awgn:extra"])
    assert code == 2

"""Inputs the CLI rejects before it computes anything: an LBB locality window
the training returns cannot hold, and text files that are not UTF-8."""

import pytest

import bootband.pipeline as pl
from bootband.cli import main
from conftest import strip_volatile


@pytest.fixture
def csv90(gbm_csv):
    return str(gbm_csv(n=90, seed=17))


class TestLbbHalo:
    @pytest.mark.parametrize("command,flags", [
        ("band", ["--method", "lbb"]),
        ("compare", []),
    ])
    def test_exit_4_before_any_selection(self, csv90, tmp_path, monkeypatch, capsys,
                                         command, flags):
        # 59 training returns and B = 0.001 give a locality window of floor(0.059) = 0
        monkeypatch.setattr(pl, "select_block_length", None)
        out = tmp_path / "out"
        code = main([command, "--input", csv90, "--output-dir", str(out), "--train-len", "60",
                     "--seed", "3", "--jobs", "1", *flags, "--locality", "0.001"])
        assert code == 4
        assert capsys.readouterr().err == (
            "error[data]: locality 0.001 gives floor(n*B) = 0; need >= 1 for n = 59\n")
        assert not out.exists() or not any(out.iterdir())


class TestNotUtf8:
    def test_csv_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"Date,Close\n2020-01-01,100.0\n2020-01-02,101.5 caf\xe9\n")
        code = main(["select-block", "--input", str(path), "--method", "nbb", "--seed", "1",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error[data]: {path}: not UTF-8 text")
        assert err.count("\n") == 1

    def test_config_file_is_a_usage_error(self, csv90, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"# r\xe9glages\nreps = 3\n")
        out = tmp_path / "out"
        code = main(["select-block", "--input", csv90, "--method", "nbb", "--seed", "1",
                     "--config", str(cfg_file), "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_file}: not UTF-8 text")
        assert err.count("\n") == 1
        assert not out.exists()


class TestByteOrderMark:
    def test_config_file_reads_as_without_one(self, csv90, tmp_path):
        text = b"method = nbb\nreps = 3\nlmax = 4\n"
        trees = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg_file = tmp_path / f"{name}.cfg"
            cfg_file.write_bytes(data)
            out = tmp_path / name
            assert main(["select-block", "--input", csv90, "--seed", "1",
                         "--config", str(cfg_file), "--output-dir", str(out)]) == 0
            trees.append(strip_volatile(out))
        assert trees[0] == trees[1]

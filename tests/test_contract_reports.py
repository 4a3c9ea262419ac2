"""The contract-report comparison names exactly the reports that differ."""

import contract_reports


def _reports(directory, texts):
    directory.mkdir()
    for name, text in texts.items():
        (directory / name).write_bytes(text)
    return directory


def test_identical_sets_compare_equal(tmp_path, capsys):
    texts = {"demo-classify.json": b'{"entries": []}\n', "demo-limit.json": b'{"n": 1}\n'}
    a, b = _reports(tmp_path / "a", texts), _reports(tmp_path / "b", texts)
    assert contract_reports.compare(a, b) == []
    assert contract_reports.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""


def test_one_byte_and_one_missing_file_are_named(tmp_path, capsys):
    texts = {"demo-classify.json": b'{"entries": []}\n', "demo-limit.json": b'{"n": 1}\n'}
    a = _reports(tmp_path / "a", texts)
    b = _reports(tmp_path / "b", {**texts, "demo-limit.json": b'{"n": 2}\n'})
    assert contract_reports.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == "differs: demo-limit.json\n"
    (a / "demo-nev.json").write_bytes(b"{}\n")
    assert contract_reports.compare(a, b) == ["demo-limit.json", "demo-nev.json"]


def test_there_are_29_reports(tmp_path):
    names = [name for name, _ in contract_reports.reports(tmp_path)]
    assert len(names) == len(set(names)) == 29

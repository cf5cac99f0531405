"""The report bytes of the matrix route and the vector commands, pinned:
every request of ``report_pins.requests()`` served through ``cli.main``
gives the sha256 of exit code, stdout and stderr in
``tests/golden/report_pins.txt``."""

import pytest

from report_pins import read_pins, requests, serve

REQUESTS = requests()
PINS = read_pins()


def test_every_request_is_pinned():
    assert list(PINS) == [name for name, _, _ in REQUESTS]


@pytest.mark.parametrize("name, files, argv", REQUESTS,
                         ids=[name for name, _, _ in REQUESTS])
def test_report_bytes(name, files, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert serve(files, argv) == PINS[name]

"""Pinned stdout digests and exit codes of well-formed CLI commands.

Each command's stdout is hashed with sha256. The digests were recorded once and
must not change under refactors: exact values and output formatting are part of
the command-line contract, and this pins them across commits, not just across
reruns in one process.
"""

import contextlib
import hashlib
import io

import pytest

from twostate.cli import main

GOLDEN = [
    ("moments --alpha 1/2 --T 2/3 --beta 3 --order 8", 0, "78fbd5214bea8cabeada005660a7af21a764e51e0ac05ba30967f61c3fc72e13"),
    ("jacobi --alpha 1 --t 2 --order 8", 0, "76e4d54d6b003427a1d6a6131324c4dffbd4f39e2ef6454cfbeaa2e2b96eb202"),
    ("density --measure mu --alpha 1 --t 4 --samples 7", 0, "7d971ad264a6d6beebd8767aa3cd4eee4d738ad2b0d700fc40686ebaa8b0fa97"),
    ("density --measure ct --alpha 1/2 --t 1 --samples 5", 0, "68dbffd98479e419edbbbefa985015d022347a4350a21657bcb2131794f3127a"),
    ("fock-moments --alpha 2 --T 1/2 --N 3 --degree 8", 0, "42d2ab3e861d6ef7c854ead28aa098df0509f8aa2f287df81133e52d385e757a"),
    ("freeness-check --alpha 1/2 --T 1 --N 2 --max-len 2", 0, "165aca0340f921b81e2109380048b22286174ca78ce4e1a22017dd74f53bac65"),
    ("martingale-check --alpha 1 --T 1 --N 3 --n-max 3", 0, "f931a247cbbeedd0ddd5f63af9395238e0efc8efd391818a8b5518151c6538ee"),
    ("variation-table --alpha 1 --beta 2 --T 1 --k 2 --N-list 1,2,4", 0, "4e2b527777e8445375d1979e3bade5700f94e75338a6c0e638023725a09c3b4c"),
    ("variation-table --alpha 1 --beta 2 --T 1 --k 3 --N-list 1,3", 0, "fc075a434c650443e5a27c39bf1d6cd10a92f1c3b1dc861f501a87d31b369edc"),
    ("variation-table --alpha 1 --beta 2 --T 1 --n 2 --N-list 2,4", 0, "086b30edf6d2887a813e46ff4d6ef5642be42b8a30cdc8edca482c85b1ac3308"),
    ("norm-table --alpha 1 --beta 2 --T 1 --k 1 --n-max 3 --N 3", 0, "02e4fbdd68aec51b25e707b2b777772621dbce70cb192749f97723dd96d0ea7a"),
    ("norm-table --alpha 1 --beta 2 --T 1 --k 2 --n-max 2 --N 4", 0, "89cb67f7cd4b92c32d707c66faeaeb6463adf27f8ce21aa8a1cb87cd4fbba02d"),
    ("generator-check --alpha 1/2 --n-max 6", 0, "43a89824d9aa791ecf383bae7c4352d8a7d5249de69be486b6f5ad9a82cc527a"),
    ("kernel-residual --alpha 1 --t 1/2 --depth 8", 0, "4b53780b91b1bafb0045cce607d4a7614ee0bd789c006c336db590856ff7a4dd"),
    ("selfcheck --alpha 1 --T 1 --N 3 --order 6", 0, "be6171f0aad5dcc119c30a00d2beb7301a3dbba3e696077f41c6440d087878c1"),
    ("fock-moments --alpha 9973/9998 --T 9967/9931 --N 8 --degree 12", 0, "85cdc5172a3684cbec782f94cf928bf9cdc23d86d575ccdd75612f1adbdf5eb6"),
    ("generator-check --alpha 1/2 --n-max 16", 0, "aefaa8044a30a72ae937f14bc5396f3f3bae31118be61f3aef0c1c24467e7e3c"),
    ("norm-table --alpha 1/2 --beta 3 --T 2/3 --k 2 --n-max 4 --N 3", 0, "b62c956fccad2cfbdd69075ee13b5770b8fb1fe81fb3815c0261b17175c837b7"),
    ("generator-check --alpha=-3/7 --n-max 16", 0, "aefaa8044a30a72ae937f14bc5396f3f3bae31118be61f3aef0c1c24467e7e3c"),
    ("generator-check --alpha 12345678901234567891/98765432109876543210 --n-max 16", 0, "aefaa8044a30a72ae937f14bc5396f3f3bae31118be61f3aef0c1c24467e7e3c"),
]


@pytest.mark.parametrize("command,exit_code,digest", GOLDEN, ids=[row[0].split()[0] + f"-{i}" for i, row in enumerate(GOLDEN)])
def test_stdout_is_byte_identical(command, exit_code, digest):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(command.split())
    assert code == exit_code
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == digest

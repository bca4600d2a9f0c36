"""Golden CLI outputs: the sha256 of exit code + stdout for a fixed argv table.

Each digest covers ``f"{exit_code}\\n"`` followed by the whole stdout of
``esd <argv>``, so any changed CSV digit, death-time line, dumped entry or
selfcheck line fails here. A deliberate output change updates the table
and says so in CHANGES.md.
"""

import hashlib

import pytest

from esdsim.cli import main

GOLDEN = {
    "curve --scenario qubit": "013357eb1a4838391abe89c9192aa44fff4139d39f82dc61f37c9d451bb3db6a",
    "curve --scenario qutrit": "a34a7a25a2813c42e9be58461d0a2568a6bfbbdf467b0fd94fa1a49dd39ae2aa",
    "curve --scenario multilocal": "66f6a14b134ba6da503c99fd0905f4f226b95cc85896d601694055c18b83f1ed",
    "curve --scenario multilocal --x 0.2 --rate-a 1.3 --rate-b 0.7 --steps 1001":
        "7acdde5d5873cb33d16bcae9d833098e3b87c36d28a879488732af6c3aae58a5",
    "esd-time --scenario qubit --x 0.13": "6c04f65285c7fbfd10fc13fe1351f8fd8c9f59362dea3031421ca02df9fcdfd9",
    "esd-time --scenario qubit --x 0.25": "7e26dfffec13ef534653b768d258f3d2277f35b7d36bf8d7a452b915d9f03675",
    "esd-time --scenario qutrit --x 0.13": "6c04f65285c7fbfd10fc13fe1351f8fd8c9f59362dea3031421ca02df9fcdfd9",
    "esd-time --scenario qutrit --x 0.25": "7e26dfffec13ef534653b768d258f3d2277f35b7d36bf8d7a452b915d9f03675",
    "esd-time --scenario multilocal --x 0.13": "4ab2f02542ca472f274eb4bdfff0272dd69c37f727a22fb919cede3950e7f0f4",
    "esd-time --scenario multilocal --x 0.25": "4aba116c77a63b787827a81b8802f45003feb24d067f465da4ec7116d1ad406c",
    "esd-time --x 0.1": "532a5a2f40ee3b5c536bca7e4406ecdb836ab7d591022ca4c3ab4b567f1f63cb",
    "esd-time --scenario qubit --rate-a 0": "aad08d33862b04d680d6171bb57e960d40ebabc0be87683d22394d703b532a90",
    "dump-state --scenario qubit --t-max 2.5": "a713448eb9494e87508a338ef6c65344c6fd775e09bd79d34d8e5a613017ba4d",
    "dump-state --scenario qutrit --t-max 2.5": "a713448eb9494e87508a338ef6c65344c6fd775e09bd79d34d8e5a613017ba4d",
    "dump-state --scenario multilocal --t-max 2.5": "679a539946f3c8896cc4eb41bb0dbdfd68ed15cc6f480ec0a1b276d9976aab5f",
    "selfcheck": "eb463a6a570378d901e7a980e247f3bf579c97d8e8413a63c94c2b001e464870",
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_golden_output(argv, capsys):
    code = main(argv.split())
    digest = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest()
    assert digest == GOLDEN[argv]

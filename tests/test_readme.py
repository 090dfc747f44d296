"""The README's library quickstart and CLI examples give what they show, and its API list is complete.

The README's list of the methods a new ring writes is the contract the
base class leaves abstract, and a ring written against it defines them.
"""

import inspect
import re
import shlex
from pathlib import Path

import ringgb
from ringgb import CoefficientRing, cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_quickstart_results():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    # A "# result" line shows the value of the code line just above it;
    # text after a second "#" is a remark.
    source, checks = [], []
    for line in block.splitlines():
        if line.startswith("# "):
            checks.append((len(source), re.split(r"\s+#", line[2:])[0].strip()))
        else:
            source.append(line)
    assert len(checks) == 4
    namespace = {}
    done = 0
    for end, expected in checks:
        exec("\n".join(source[done : end - 1]), namespace)
        assert repr(eval(source[end - 1], namespace)) == expected
        done = end


def test_cli_examples(capsys):
    block = README[README.index("## CLI") :]
    block = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    examples = re.findall(r"^\$ ringgb (.*)\n((?:.+\n)*)", block, re.M)
    codes = []
    for command, output in examples:
        codes.append(cli.main(shlex.split(command)))
        captured = capsys.readouterr()
        assert captured.out == output
        assert captured.err == ""
    assert codes == [0, 0, 1]


def test_public_api_list_names_every_export():
    block = README[README.index("### Public API") :]
    block = block[: block.index("\n#")]
    listed = re.findall(r"^- `(\w+)`:", block, re.M)
    assert sorted(listed) == sorted(ringgb.__all__)


def test_ring_contract_sentence_is_what_a_new_ring_writes():
    from test_kernel_forms import ContractGF7, ContractZZ  # skipped without hypothesis

    sentence = re.search(r"It writes ((?:`\w+`,?\s+(?:and\s+)?)+`\w+`); every other method has", README).group(1)
    listed = sorted(re.findall(r"`(\w+)`", sentence))
    assert len(listed) == 9
    abstract = [
        name
        for name, method in vars(CoefficientRing).items()
        if inspect.isfunction(method) and inspect.getsource(method).rstrip().endswith("raise NotImplementedError")
    ]
    assert sorted(abstract) == listed
    for ring in (ContractGF7, ContractZZ):
        written = [name for name in vars(ring) if not name.startswith("__") and name not in ("name", "is_field")]
        assert sorted(written) == listed

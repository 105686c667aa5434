"""The program runs without numpy, which only the test suite needs.

Each check runs in a fresh interpreter, since this one has numpy loaded
through the test oracles. The same way, importing the CLI is checked to
leave out the modules that a cold start would otherwise pay for.
"""

import os
import subprocess
import sys

# a None entry in sys.modules makes every later ``import numpy`` fail
BLOCKED_RUN = """
import sys
sys.modules["numpy"] = None
from onto_enrich.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _python(repo_root, code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=repo_root, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_writes_golden_report_with_numpy_blocked(repo_root, tmp_path):
    out = tmp_path / "report.json"
    result = _python(repo_root, BLOCKED_RUN,
                     "--ontology", "fixtures/ontology.nt",
                     "--corpus", "fixtures/corpus.xml",
                     "--lexicon", "fixtures/lexicon.tsv",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (repo_root / "tests/golden/fixture_report.json").read_bytes()


def test_import_does_not_load_numpy(repo_root):
    result = _python(repo_root, "import sys, onto_enrich, onto_enrich.cli;"
                                "print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_import_loads_no_code_generator(repo_root):
    # dataclasses pulls in inspect (and ast, dis, tokenize) and runs exec per
    # class; secrets pulls in hmac, hashlib and base64; the report writer
    # needs only json's C string escaper, not json's decoder and scanner;
    # the loaded ontology is kept by comparing inputs, not by hashing them
    result = _python(repo_root, "import sys, onto_enrich.cli;"
                                "print(sorted({'dataclasses', 'inspect', 'secrets', 'json',"
                                " 'hashlib'} & set(sys.modules)))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# a string annotation costs typing.NamedTuple one ForwardRef compile per field
STRING_ANNOTATIONS = """
import sys, typing, onto_enrich.cli
found = []
for name, module in sorted(sys.modules.items()):
    if name.split(".")[0] != "onto_enrich":
        continue
    for cls in vars(module).values():
        if isinstance(cls, type) and cls.__module__ == name:
            for field, annotation in vars(cls).get("__annotations__", {}).items():
                if isinstance(annotation, (str, typing.ForwardRef)):
                    found.append(f"{name}.{cls.__name__}.{field}")
print(found)
"""


def test_no_record_holds_a_string_annotation(repo_root):
    result = _python(repo_root, STRING_ANNOTATIONS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

"""The JSON structure schema and the command-line front end.

Run:  python3 demos/05_files_and_cli.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from resposet import ExtensionMode, extend_theorem1
from resposet.files import structure_to_doc
from resposet.fixtures import n5_involuted

result = extend_theorem1(n5_involuted(), ExtensionMode.REUSE_BOUNDS)
doc = structure_to_doc(result.structure, result.involution, result.provenance)

print("A residuated structure serializes to a single JSON object with")
print("elements, covers, involution, unit, both tables, and provenance:")
print(json.dumps({k: doc[k] for k in ("elements", "unit", "provenance")}, indent=2))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "pentagon7.json"
    path.write_text(json.dumps(doc))

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "resposet.cli", *args],
            capture_output=True,
            text=True,
        )
        return proc.returncode, proc.stdout

    print()
    print("$ resposet verify -i pentagon7.json")
    code, out = cli("verify", "-i", str(path))
    print(out.rstrip())
    print(f"(exit code {code})")

    print()
    print("$ resposet classify -i builtin:kleene6 --json")
    code, out = cli("classify", "-i", "builtin:kleene6", "--json")
    print(out.rstrip())

    print()
    print("$ resposet mine -i builtin:n5")
    code, out = cli("mine", "-i", "builtin:n5")
    print(out.rstrip())
    print(f"(exit code {code}: unsatisfiable)")

    print()
    print("$ resposet show -i pentagon7.json --format dot   (first lines)")
    code, out = cli("show", "-i", str(path), "--format", "dot")
    print("\n".join(out.splitlines()[:6]))
    print("  ...")

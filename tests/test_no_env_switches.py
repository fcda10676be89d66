"""The package takes no configuration from environment variables.

Every behaviour is selected through explicit arguments, so two runs with
the same arguments simulate the same thing whatever the calling shell
exports.  Reference implementations live in ``tests/`` as oracles, not
behind switches in ``src/``.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _env_reads(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_NAMES for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_no_module_reads_the_environment():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders.extend(
            f"{path.relative_to(PACKAGE.parent)}:{line}" for line in _env_reads(tree)
        )
    assert offenders == []

"""Tests for the repro-lint framework (tools/lint).

Each rule gets a positive fixture (a violation the rule must flag), a
negative fixture (compliant code it must not flag), plus pragma and
baseline coverage; a self-check asserts the shipped ``src/`` tree stays
clean with an *empty* baseline.

``tools`` lives at the repo root (not under ``src``), so the root goes
on ``sys.path`` before the import.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.lint import all_rules, resolve_rules, run_lint  # noqa: E402
from tools.lint.cli import main as lint_cli  # noqa: E402
from tools.lint.engine import parse_pragmas  # noqa: E402

from repro.cli import main as repro_cli


def lint_source(tmp_path: Path, source: str, rules=None):
    """Lint one scratch file; the findings list."""
    target = tmp_path / "mod.py"
    target.write_text(source)
    result = run_lint(tmp_path, paths=("mod.py",), rules=rules)
    return result.findings


def rule_ids(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------- registry


def test_all_rules_registered_and_ordered():
    rules = all_rules()
    assert [r.id for r in rules] == ["R1", "R3", "R4", "R5", "R6", "R7"]
    assert len({r.name for r in rules}) == len(rules)


def test_resolve_rules_by_id_and_slug():
    assert [r.id for r in resolve_rules("R1,R5")] == ["R1", "R5"]
    assert [r.id for r in resolve_rules("rng-discipline")] == ["R1"]
    with pytest.raises(ValueError):
        resolve_rules("R99")


# ---------------------------------------------------------------- R1


def test_r1_flags_default_rng_and_stdlib_random(tmp_path):
    findings = lint_source(
        tmp_path,
        "import random\n"
        "import numpy as np\n"
        "def f():\n"
        "    rng = np.random.default_rng(3)\n"
        "    return rng.random() + random.random()\n",
    )
    r1 = [f for f in findings if f.rule == "R1"]
    assert len(r1) >= 3  # the import, default_rng, random.random
    assert any(f.line == 4 for f in r1)


def test_r1_flags_legacy_global_and_entropy_seeds(tmp_path):
    findings = lint_source(
        tmp_path,
        "import time\n"
        "import numpy as np\n"
        "from repro._rng import as_generator\n"
        "def f():\n"
        "    a = np.random.rand(3)\n"
        "    rng = as_generator(int(time.time()))\n"
        "    return a, rng\n",
    )
    r1_lines = {f.line for f in findings if f.rule == "R1"}
    assert {5, 6} <= r1_lines


def test_r1_clean_on_as_generator(tmp_path):
    findings = lint_source(
        tmp_path,
        "from repro._rng import as_generator\n"
        "def f(seed):\n"
        "    rng = as_generator(seed)\n"
        "    return rng.random()\n",
    )
    assert not rule_ids(findings)


def test_r1_exempts_rng_module(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    target = pkg / "_rng.py"
    target.write_text(
        "import numpy as np\n"
        "def as_generator(seed=None):\n"
        "    return np.random.default_rng(seed)\n"
    )
    result = run_lint(tmp_path, paths=("repro/_rng.py",))
    assert not [f for f in result.findings if f.rule == "R1"]


# ---------------------------------------------------------------- R3


def test_r3_flags_unreleased_shared_memory(tmp_path):
    findings = lint_source(
        tmp_path,
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def leak():\n"
        "    shm = SharedMemory(create=True, size=64)\n"
        "    return shm.buf[0]\n",
    )
    assert "R3" in rule_ids(findings)


def test_r3_accepts_finally_with_and_finalize(tmp_path):
    findings = lint_source(
        tmp_path,
        "import weakref\n"
        "import tempfile\n"
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def finally_pair():\n"
        "    shm = SharedMemory(create=True, size=64)\n"
        "    try:\n"
        "        return bytes(shm.buf[:4])\n"
        "    finally:\n"
        "        shm.close()\n"
        "        shm.unlink()\n"
        "def ctx_managed():\n"
        "    with tempfile.NamedTemporaryFile() as handle:\n"
        "        return handle.name\n"
        "class Owner:\n"
        "    def __init__(self):\n"
        "        self.shm = SharedMemory(create=True, size=64)\n"
        "        weakref.finalize(self, self.shm.close)\n"
        "    def close(self):\n"
        "        self.shm.close()\n",
    )
    assert "R3" not in rule_ids(findings)


def test_r3_flags_unreleased_socket_and_http_server(tmp_path):
    """Satellite: the serving layer's resources are lifecycle-checked —
    a bare socket or ThreadingHTTPServer with no visible release leaks
    the port past the daemon's lifetime."""
    findings = lint_source(
        tmp_path,
        "import socket\n"
        "from http.server import ThreadingHTTPServer, BaseHTTPRequestHandler\n"
        "def leak_socket():\n"
        "    s = socket.socket()\n"
        "    s.bind(('127.0.0.1', 0))\n"
        "    return s.getsockname()\n"
        "def leak_server():\n"
        "    httpd = ThreadingHTTPServer(('127.0.0.1', 0), BaseHTTPRequestHandler)\n"
        "    httpd.serve_forever()\n",
    )
    r3 = [f for f in findings if f.rule == "R3"]
    assert len(r3) == 2


def test_r3_accepts_managed_socket_and_http_server(tmp_path):
    findings = lint_source(
        tmp_path,
        "import socket\n"
        "from http.server import ThreadingHTTPServer, BaseHTTPRequestHandler\n"
        "def with_socket():\n"
        "    with socket.socket() as s:\n"
        "        s.bind(('127.0.0.1', 0))\n"
        "        return s.getsockname()\n"
        "def finally_server():\n"
        "    httpd = ThreadingHTTPServer(('127.0.0.1', 0), BaseHTTPRequestHandler)\n"
        "    try:\n"
        "        httpd.handle_request()\n"
        "    finally:\n"
        "        httpd.server_close()\n"
        "class Daemon:\n"
        "    def __init__(self):\n"
        "        self.httpd = ThreadingHTTPServer(\n"
        "            ('127.0.0.1', 0), BaseHTTPRequestHandler)\n"
        "    def close(self):\n"
        "        self.httpd.server_close()\n",
    )
    assert "R3" not in rule_ids(findings)


# ---------------------------------------------------------------- R4


def test_r4_flags_lambda_closure_and_bound_method(tmp_path):
    findings = lint_source(
        tmp_path,
        "from multiprocessing import Process\n"
        "class Runner:\n"
        "    def go(self, pool):\n"
        "        pool.submit(self.step, 1)\n"
        "def spawn():\n"
        "    p = Process(target=lambda: None)\n"
        "    return p\n"
        "def closure_case():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return Process(target=inner)\n",
    )
    r4 = [f for f in findings if f.rule == "R4"]
    messages = " ".join(f.message for f in r4)
    assert "lambda" in messages
    assert "bound method" in messages
    assert "closure" in messages


def test_r4_clean_module_level_target(tmp_path):
    findings = lint_source(
        tmp_path,
        "from multiprocessing import Process\n"
        "def worker_main(q):\n"
        "    q.put(1)\n"
        "def spawn(q):\n"
        "    return Process(target=worker_main, args=(q,))\n",
    )
    assert "R4" not in rule_ids(findings)


# ---------------------------------------------------------------- R5


def test_r5_flags_set_iteration_and_keys(tmp_path):
    findings = lint_source(
        tmp_path,
        "def f(items, mapping):\n"
        "    pool = set(items)\n"
        "    out = []\n"
        "    for x in pool:\n"
        "        out.append(x)\n"
        "    for k in mapping.keys():\n"
        "        out.append(k)\n"
        "    return out\n",
    )
    r5_lines = {f.line for f in findings if f.rule == "R5"}
    assert {4, 6} <= r5_lines


def test_r5_sorted_and_reducers_are_clean(tmp_path):
    findings = lint_source(
        tmp_path,
        "def f(items):\n"
        "    pool = set(items)\n"
        "    total = [x for x in sorted(pool)]\n"
        "    size = len(pool)\n"
        "    as_frozen = frozenset(int(x) for x in pool)\n"
        "    any_neg = any(x < 0 for x in pool)\n"
        "    return total, size, as_frozen, any_neg\n",
    )
    assert "R5" not in rule_ids(findings)


def test_r5_sum_comprehension_is_not_exempt(tmp_path):
    findings = lint_source(
        tmp_path,
        "def f(weights, items):\n"
        "    pool = set(items)\n"
        "    return sum(weights[x] for x in pool)\n",
    )
    assert "R5" in rule_ids(findings)


# ---------------------------------------------------------------- R6 / R7 (repo scope)


def test_r6_flags_dangling_marker(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "NOTES.md").write_text(
        "<!-- staleness-marker: src/gone.py -->\n"
    )
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "ok.py").write_text("x = 1\n")
    result = run_lint(tmp_path, paths=("src",))
    assert any(f.rule == "R6" and "gone.py" in f.message for f in result.findings)


def test_r7_flags_dishonest_all(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("__all__ = ['ghost']\n")
    result = run_lint(tmp_path, paths=("src",))
    messages = " ".join(f.message for f in result.findings if f.rule == "R7")
    assert "'ghost'" in messages
    assert "'solve'" in messages  # contract names must be advertised


# ---------------------------------------------------------------- pragmas


def test_pragma_suppresses_by_id_slug_and_all(tmp_path):
    source = (
        "import numpy as np\n"
        "def f(items):\n"
        "    a = np.random.default_rng(1)  # repro-lint: disable=R1\n"
        "    b = np.random.default_rng(2)  # repro-lint: disable=rng-discipline\n"
        "    pool = set(items)\n"
        "    rows = [x for x in pool]  # repro-lint: disable=all\n"
        "    return a, b, rows\n"
    )
    target = tmp_path / "mod.py"
    target.write_text(source)
    result = run_lint(tmp_path, paths=("mod.py",))
    assert not result.findings
    assert len(result.suppressed) == 3


def test_pragma_does_not_suppress_other_rules(tmp_path):
    findings = lint_source(
        tmp_path,
        "import numpy as np\n"
        "rng = np.random.default_rng(0)  # repro-lint: disable=R5\n",
    )
    assert "R1" in rule_ids(findings)


def test_parse_error_is_unsuppressible(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("def broken(:  # repro-lint: disable=all\n")
    result = run_lint(tmp_path, paths=("mod.py",))
    assert [f.rule for f in result.findings] == ["E0"]


def test_parse_pragmas_tokens():
    pragmas = parse_pragmas("x = 1  # repro-lint: disable=R1, iter-determinism\n")
    assert pragmas == {1: {"R1", "iter-determinism"}}


# ---------------------------------------------------------------- baseline


def test_baseline_downgrades_and_reports_stale(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("import numpy as np\nrng = np.random.default_rng(0)\n")
    first = run_lint(tmp_path, paths=("mod.py",))
    assert first.findings

    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "version": 1,
                "findings": [f.to_dict() for f in first.findings]
                + [
                    {
                        "rule": "R1",
                        "path": "other.py",
                        "message": "long gone",
                    }
                ],
            }
        )
    )
    second = run_lint(tmp_path, paths=("mod.py",), baseline_path=baseline)
    assert not second.findings
    assert len(second.baselined) == len(first.findings)
    assert len(second.stale_baseline) == 1
    assert second.stale_baseline[0]["path"] == "other.py"


def test_baseline_matching_survives_line_drift(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("import numpy as np\nrng = np.random.default_rng(0)\n")
    first = run_lint(tmp_path, paths=("mod.py",))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps([f.to_dict() for f in first.findings]))
    # Shift every finding down two lines; (rule, path, message) still match.
    target.write_text(
        "# pad\n# pad\nimport numpy as np\nrng = np.random.default_rng(0)\n"
    )
    drifted = run_lint(tmp_path, paths=("mod.py",), baseline_path=baseline)
    assert not drifted.findings
    assert drifted.baselined


# ---------------------------------------------------------------- CLI


def test_cli_exit_codes_and_json(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "bad.py").write_text(
        "import numpy as np\nrng = np.random.default_rng(0)\n"
    )
    assert lint_cli(["--root", str(tmp_path), "src"]) == 1
    out = capsys.readouterr().out
    assert "R1[rng-discipline]" in out
    assert "bad.py:2" in out

    assert lint_cli(["--root", str(tmp_path), "--format", "json", "src"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["findings"][0]["rule"] == "R1"

    (tmp_path / "src" / "bad.py").write_text("x = 1\n")
    assert lint_cli(["--root", str(tmp_path), "src"]) == 0


def test_cli_usage_errors(tmp_path):
    (tmp_path / "src").mkdir()
    assert lint_cli(["--root", str(tmp_path), "no_such_dir"]) == 2
    assert lint_cli(["--root", str(tmp_path), "--rules", "R99", "src"]) == 2


def test_cli_update_baseline_roundtrip(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "bad.py").write_text(
        "import numpy as np\nrng = np.random.default_rng(0)\n"
    )
    baseline = tmp_path / "baseline.json"
    assert (
        lint_cli(
            [
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--update-baseline",
                "src",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        lint_cli(["--root", str(tmp_path), "--baseline", str(baseline), "src"])
        == 0
    )
    assert "baselined" in capsys.readouterr().out


def test_repro_cli_lint_subcommand(capsys):
    assert repro_cli(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "R1" in out and "R7" in out


# ---------------------------------------------------------------- self-check


def test_shipped_src_tree_is_clean():
    result = run_lint(REPO_ROOT, paths=("src",))
    assert result.ok, "\n".join(f.format() for f in result.findings)
    assert not result.stale_baseline


def test_shipped_baseline_is_empty():
    baseline = json.loads((REPO_ROOT / "tools" / "lint" / "baseline.json").read_text())
    assert baseline["findings"] == []

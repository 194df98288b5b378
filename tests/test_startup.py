"""The command line's start-up: a lazy package, the spec reader process,
and no process left behind.

`python -m subgauss` pins OpenBLAS to one thread and, for `bound SPEC`
with a worker cap of at least 2, forks a reader (spec.SpecReader) before
numpy is imported; that needs `import subgauss` to import no numpy.  Each
run here is a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_MODULES = ["core", "errors", "optimize", "oracles", "report", "sums", "verify"]


def _env(threads: str) -> dict:
    # absolute, so that a run from another directory still finds the package
    env = dict(os.environ, SUBGAUSS_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return env


def _python(code: str, *args, threads="2", cwd=None):
    env = _env(threads)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


def test_package_and_reader_import_no_numpy():
    # `from subgauss import spec` first asks the package for the attribute
    r = _python("import sys\n"
                "from subgauss import spec\n"
                "from subgauss.__main__ import main\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_public_names_load_the_api_and_submodules_load_alone():
    r = _python("import sys, subgauss\n"
                "assert not hasattr(subgauss, 'no_such_module') and 'numpy' in sys.modules\n")
    assert r.returncode == 0, r.stderr
    r = _python("import sys, subgauss\n"
                "subgauss.errors\n"  # a submodule: errors alone
                "assert not hasattr(subgauss, '_private') and 'subgauss.core' not in sys.modules\n"
                "assert subgauss.q_norm is sys.modules['subgauss.core'].q_norm\n")
    assert r.returncode == 0, r.stderr


def test_dir_and_star_import_list_the_api():
    r = _python("import json, subgauss\n"
                "names = {}\n"
                "exec('from subgauss import *', names)\n"
                "print(json.dumps([dir(subgauss), sorted(names), subgauss.__all__]))")
    assert r.returncode == 0, r.stderr
    names, star, public = json.loads(r.stdout)
    assert sorted(star) == sorted(public + ["__builtins__"])
    assert names == sorted(names)
    # besides dunders: the public names and the modules the API imports
    assert {n for n in names if not n.startswith("__")} == (
        set(public) - {"__version__"} | set(_MODULES) | {"_version", "parallel"})
    assert "__getattr__" not in names and "__dir__" not in names


# Runs the start-up with read_terms logging which process read which path.
# Mode "cut" ends the reader's message one byte short; "sigchld-ignored"
# lets the system reap the reader.
_LOGGED = """
import os, signal, sys
import subgauss.spec as spec
from subgauss.__main__ import main

log, mode, read_terms = sys.argv.pop(1), sys.argv.pop(1), spec.read_terms

def logged(path):
    with open(log, "a") as fh:
        fh.write(f"{os.getpid() == parent} {path}\\n")
    return read_terms(path)

if mode == "cut":
    spec.marshal.dump = lambda value, fh: fh.write(spec.marshal.dumps(value)[:-1])
elif mode == "sigchld-ignored":
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
parent, spec.read_terms = os.getpid(), logged
sys.exit(main())
"""


def _readers(tmp_path, *args, threads="2", mode="whole"):
    log = tmp_path / "read.log"
    log.unlink(missing_ok=True)
    r = _python(_LOGGED, str(log), mode, *args, threads=threads, cwd=tmp_path)
    return r, log.read_text().splitlines() if log.exists() else []


def test_reader_process_reads_the_spec_when_the_cap_allows(tmp_path):
    spec = tmp_path / "sum.txt"
    spec.write_text("independent: false\n1 0.5\n-2 0.25\n")
    (tmp_path / "0,1").write_text("1 0.5\n")
    r, reads = _readers(tmp_path, "bound", str(spec), "--x-grid", "0,1")
    assert r.returncode == 0 and reads == [f"False {spec}"]
    out = r.stdout
    # cap 1: read in process
    r, reads = _readers(tmp_path, "bound", str(spec), "--x-grid", "0,1", threads="1")
    assert r.stdout == out and reads == [f"True {spec}"]
    # the reader guessed an option value; the spec is read in process
    r, reads = _readers(tmp_path, "bound", "--x-grid", "0,1", str(spec))
    assert r.stdout == out and reads == ["False 0,1", f"True {spec}"]
    # a usage error before the spec is read ends the reader unused
    r, _ = _readers(tmp_path, "bound", str(spec), "--probs", "0.5")
    assert r.returncode == 2 and "not both" in r.stderr
    # where the system reaps children itself, the reader's message still serves
    r, reads = _readers(tmp_path, "bound", str(spec), "--x-grid", "0,1",
                        mode="sigchld-ignored")
    assert (r.returncode, r.stdout) == (0, out) and reads == [f"False {spec}"]


def test_a_message_cut_short_is_read_in_process(tmp_path):
    spec = tmp_path / "sum.txt"
    bad = tmp_path / "bad.txt"
    spec.write_text("independent: false\n1 0.5\n-2 0.25\n")
    bad.write_text("1 0.5\n2\n")
    for path in (spec, bad):
        args = ("bound", str(path), "--x-grid", "0,1")
        want, _ = _readers(tmp_path, *args, threads="1")
        r, reads = _readers(tmp_path, *args, mode="cut")
        assert (r.returncode, r.stdout, r.stderr) == (want.returncode, want.stdout, want.stderr)
        assert reads == [f"False {path}", f"True {path}"]
    assert want.returncode == 2 and f"{bad}:2: expected" in want.stderr


def test_in_process_callers_never_fork(tmp_path, capsys, monkeypatch):
    import subgauss.cli as cli

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    spec = tmp_path / "sum.txt"
    spec.write_text("independent: false\n1 0.5\n-2 0.25\n")
    assert cli.main(["bound", str(spec), "--x-grid", "0,1"]) == 0
    assert capsys.readouterr().out.startswith("x,")


def _left_in_session(args, cwd) -> tuple[int, str, list[int]]:
    """Runs `python -m subgauss ARGS` as a new session's leader: its exit
    code, its stderr, and the processes left in its session after it."""
    env = _env("2")
    proc = subprocess.Popen([sys.executable, "-m", "subgauss", *args], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    _, err = proc.communicate(timeout=120)
    left = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                if os.getsid(int(name)) == proc.pid:
                    left.append(int(name))
            except (ProcessLookupError, PermissionError):
                pass
    return proc.returncode, err, left


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists processes through /proc")
def test_no_process_outlives_the_command_line(tmp_path):
    # about a second of reading: the argparse error comes while the reader reads
    big = tmp_path / "big.spec"
    big.write_text("1 0.5 #\n" * 1_000_000)
    small = tmp_path / "small.spec"
    small.write_text("independent: false\n1 0.5\n-2 0.25\n")
    for args, code in [(["bound", "big.spec", "--format", "xml"], 2),
                       (["bound", "small.spec"], 0),
                       (["--version"], 0)]:
        returncode, err, left = _left_in_session(args, tmp_path)
        assert returncode == code, err
        assert left == [], f"{args}: processes {left} outlived the command line"

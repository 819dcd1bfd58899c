"""The collector of ``benchmarks/reach.py`` on a toy module (no scenario runs)."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_reach", Path(__file__).resolve().parents[1] / "benchmarks" / "reach.py"
)
reach = importlib.util.module_from_spec(_SPEC)
sys.modules["bench_reach"] = reach  # dataclasses resolve the module by name
_SPEC.loader.exec_module(reach)

TOY = textwrap.dedent(
    '''\
    import functools
    import os


    def deco(function):
        @functools.wraps(function)
        def wrapper(*args):
            return function(*args)
        return wrapper


    def called():
        def inner():
            return 1
        return inner()


    def never():
        return 0


    @deco
    def decorated():
        return 2


    @deco
    def decorated_never():
        return 3


    class Thing:
        def method(self):
            return 4

        def unused(self):
            return 5


    def only_in_child():
        return 6


    def fork_and_call():
        pid = os.fork()
        if pid == 0:
            only_in_child()
            os._exit(0)
        os.waitpid(pid, 0)
    '''
)


def test_collector_tells_entered_from_never_entered(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "toy.py").write_text(TOY)
    hook, trace = tmp_path / "hook", tmp_path / "trace"
    trace.mkdir()
    reach.install_hook(hook)
    env = reach.hooked_env(hook, package, trace, [package])
    subprocess.run(
        [
            sys.executable, "-c",
            "import toy; toy.called(); toy.decorated(); toy.Thing().method();"
            " toy.fork_and_call()",
        ],
        env=env, cwd=tmp_path, check=True, timeout=30,
    )

    defined = reach.functions(package)
    by_name = {f.qualname: f for f in defined}
    # a decorated function is keyed by its decorator's line
    assert by_name["decorated"].line == TOY.splitlines().index("@deco") + 1
    assert "called.<locals>.inner" in by_name
    assert "deco.<locals>.wrapper" in by_name

    missed = reach.never_entered(defined, reach.entered(trace))
    assert {f.qualname for f in missed} == {
        "never", "decorated_never", "Thing.unused",
    }
    # the forked child wrote its own per-PID file
    assert len(list(trace.glob("*.txt"))) == 2

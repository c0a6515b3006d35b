"""Every name the bench tracer patches still resolves in the package.

`bench/tracing.py` installs its wrappers by looking each (module, path)
up in `sbvol.<module>`; a renamed or removed function would make
`bench/run.py --trace 1` fail at install time.  The file is only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing_module()
    targets = tracing.SPANNED + tracing.COUNTED
    assert targets
    missing = []
    for name, modname, path in targets:
        owner = importlib.import_module(f"sbvol.{modname}")
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(owner, cls_name, None)
            ok = isinstance(cls, type) and meth in cls.__dict__
        else:
            ok = callable(getattr(owner, path, None))
        if not ok:
            missing.append(name)
    assert missing == []

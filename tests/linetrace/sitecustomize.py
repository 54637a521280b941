"""Line tracing of ``src/cbopt`` in every interpreter that starts with this
directory on PYTHONPATH: the test run of ``tests/line_coverage.py`` and the
CLI subprocesses its tests start, which inherit the environment.

Nothing happens unless CBOPT_LINE_TRACE names a directory. Then a
``sys.settrace`` tracer, set for this thread and every thread started
later, follows the frames of files under CBOPT_LINE_TRACE_SRC, and each
process appends every line it reaches for the first time, as
``path<TAB>line``, to ``<pid>.lines`` in that directory. Writing at once
keeps the lines of processes that end without running exit handlers, such
as forked campaign workers. It prints nothing.
"""

import os

if os.environ.get("CBOPT_LINE_TRACE"):
    import sys
    import threading

    _DIR = os.environ["CBOPT_LINE_TRACE"]
    _SRC = os.path.join(os.path.realpath(os.environ["CBOPT_LINE_TRACE_SRC"]), "")
    _inside = {}  # co_filename -> whether it is under _SRC
    _seen = set()
    _out = [None, None]  # (pid, file) of this process's lines

    def _line(frame, event, arg):
        if event == "line":
            key = (frame.f_code.co_filename, frame.f_lineno)
            if key not in _seen:
                _seen.add(key)
                pid = os.getpid()
                if _out[0] != pid:  # a forked child writes a file of its own
                    _out[:] = pid, open(os.path.join(_DIR, f"{pid}.lines"), "a", buffering=1)
                _out[1].write(f"{os.path.realpath(key[0])}\t{key[1]}\n")
        return _line

    def _call(frame, event, arg):
        name = frame.f_code.co_filename
        inside = _inside.get(name)
        if inside is None:
            inside = _inside[name] = os.path.realpath(name).startswith(_SRC)
        return _line if inside else None

    sys.settrace(_call)
    threading.settrace(_call)

"""Fault-injection blackboxes for the parse-service chaos harness and tests.

A request parsed with :data:`GRAMMAR` hands its whole input to the
``Chaos`` blackbox, and the input bytes are the directive.  The worker
dies or stalls inside an ordinary parse, so the fault takes the path a
poisonous input takes: the parse guard, retry on a fresh worker,
quarantine and the spool sweep.

* ``exit`` — ``os._exit(3)`` mid-request;
* ``segv`` — a native crash (SIGSEGV, exitcode -11);
* ``oom`` — the kernel OOM killer's verdict, simulated (exitcode 137);
* ``leak <spool_dir>`` — strand a file in the service's spool directory
  (``ParseService.audit()["spool_dir"]``), then exit 7;
* ``hang <s>`` — sleep ``s`` seconds, a stall no fuel check sees;
* ``spin <s>`` — busy-loop ``s`` seconds.

``hang`` and ``spin`` that finish return a tree; any other input fails
the parse.  Serve them with ``blackbox_provider=PROVIDER`` and this
directory on ``sys.path`` (forked workers inherit it).
"""

import os
import signal
import time

GRAMMAR = "S -> Chaos[0, EOI] ;\nblackbox Chaos ;\n"
PROVIDER = "chaos_blackboxes:BLACKBOXES"


def chaos(data):
    mode, _, arg = data.decode("ascii", "replace").partition(" ")
    if mode == "exit":
        os._exit(3)
    if mode == "segv":
        import faulthandler

        faulthandler.disable()  # the fault is deliberate; keep logs clean
        os.kill(os.getpid(), signal.SIGSEGV)
    if mode == "oom":
        os._exit(137)
    if mode == "leak":
        with open(os.path.join(arg, f"leak-{os.getpid()}.bin"), "wb") as handle:
            handle.write(b"\0" * 4096)
        os._exit(7)
    if mode == "hang":
        time.sleep(float(arg))
    elif mode == "spin":
        deadline = time.monotonic() + float(arg)
        while time.monotonic() < deadline:
            pass
    else:
        return None
    return {"mode": mode}


BLACKBOXES = {"Chaos": chaos}

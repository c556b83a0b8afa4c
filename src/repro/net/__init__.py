"""Message-passing system model (paper Sections 4.2–4.4).

A discrete-event simulator executes a set of processes
``Π = {p1, …, pn}`` that communicate over channels with configurable
synchrony (asynchronous / synchronous(δ) / weakly synchronous with an
unknown GST), exactly the taxonomy of §4.2.  Processes may crash or
behave Byzantine; a fictional global clock (the simulator clock) orders
events but processes never read it.

The Update Agreement properties (Definition 4.3, Figure 13) and the
Light Reliable Communication abstraction (Definition 4.4) are implemented
and *instrumented*: every ``send``/``receive``/``update`` is recorded into
the concurrent history so the necessity results (Theorems 4.6–4.7) can be
demonstrated by switching adversaries on and off.
"""

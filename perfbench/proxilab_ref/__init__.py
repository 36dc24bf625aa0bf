"""Frozen copy of proxilab's geo, service, wire and prober modules, taken
unchanged from the commit that introduced this benchmark.

The benchmark runs this copy interleaved with the program under test and
reports the program's operation time as a ratio to it: both share whatever
state the host is in at that moment, so the ratio stays steady on a noisy
shared machine while a change to the program still moves it. Never edit
these files; a different reference makes every earlier ratio incomparable.
"""

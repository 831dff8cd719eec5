"""Host-speed probe: a fixed kernel that does not touch phaselab.

The shared host this benchmark runs on changes speed by 15-50% over minutes,
and every timing drifts with it.  Interleaved with the workload, the probe
measures that drift: the host factor is the median probe time over
NOMINAL_PROBE_S.  Timings are divided by it, where noted below (throughput
multiplied), which states them at the nominal host speed; the raw values are
reported alongside.  The kernel builds and uses an argparse parser, pure
interpreter work.  A change to phaselab cannot change the probe.

Each set-up process takes ten probes right after its set-up, and `setup_s`
is scaled on every workload.  Inside the timed loops of `sweep` and
`cli-small` the probe runs three times for every EVERY_S elapsed, between
calls, and scales the loop's timings.  IQR over median of ten 25-second runs
on ten seeds, two such sets per workload, scaled (raw):

  metric       sweep                  gauge                  cli-small
  setup_s      0.072 0.140 (.12 .14)  0.082 0.078 (.22 .23)  0.103 0.163 (.17 .19)
  ops_per_s    0.060 0.074 (.10 .13)  0.050 0.115 (.21 .10)  0.027 0.059 (.13 .12)
  call_p50_ms  0.057 0.077 (.13 .14)  0.050 0.107 (.20 .11)  0.020 0.033 (.11 .09)
  call_p90_ms  0.050 0.089 (.05 .12)  0.080 0.145 (.10 .11)  0.031 0.051 (.13 .11)

On `gauge`, over the two sets above and two sets of five runs of one seed,
scaling the loop timings narrowed their spread in two sets and widened it in
the other two (in one of them to 0.35 against 0.16 raw, while the host factor
swung from 0.77 to 1.34); on average it did no better than the raw values.  A four-second verify-gauge
call leaves the probe only the call boundaries.  So `gauge` reports its loop
timings raw (`probe_loop` in workloads.py).
"""
from __future__ import annotations

import argparse
import statistics
import time

NOMINAL_PROBE_S = 0.0035  # probe median on the host the benchmark was written on
EVERY_S = 0.5  # minimum time between probe bursts inside a loop
BURST = 3  # probe samples per burst


def kernel() -> None:
    """About 3.5 ms on the nominal host."""
    parser = argparse.ArgumentParser(prog="probe")
    commands = parser.add_subparsers(dest="command")
    for k in range(12):
        command = commands.add_parser(f"c{k}")
        for j in range(12):
            command.add_argument(f"--option{j}", type=float)
    parser.parse_args(["c1", "--option1", "2.5", "--option7", "0.5"])


class HostProbe:
    """Probe times of one process; `factor()` is the host's slowdown."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self, count: int = 1) -> None:
        if not self.samples:
            kernel()  # untimed: the first call pays one-time costs
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)

    def maybe_sample(self) -> None:
        """A burst for every EVERY_S since the last one, so long calls get as
        many probes per second of work as short ones."""
        bursts = int((time.perf_counter() - self._last) / EVERY_S) if self.samples else 1
        if bursts:
            self.sample(BURST * bursts)

    def factor(self) -> float:
        return statistics.median(self.samples) / NOMINAL_PROBE_S

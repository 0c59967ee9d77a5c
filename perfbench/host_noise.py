#!/usr/bin/env python3
"""Measure how the speed of each vCPU drifts over time.

    python3 perfbench/host_noise.py [--seconds 60] [--window 1.0]

Runs one process per vCPU at once, each pinned to its vCPU, timing the
same fixed integer loop over and over. Prints, per vCPU, the median loop
time and the slowest/fastest ratio of one-window medians, the same ratio for the
mean over all vCPUs (the host-wide part of the drift), then the
correlation between the vCPUs' window series: near 0 means each vCPU
drifts on its own. perfbench/README.md records a run of it.
"""
import argparse
import multiprocessing as mp
import os
import statistics
import time


def alu_loop(n=20000):
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


def worker(cpu, seconds, out):
    os.sched_setaffinity(0, {cpu})
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        alu_loop()
        t1 = time.perf_counter()
        samples.append((t0 - start, t1 - t0))
    out.put((cpu, samples))


def window_medians(samples, window, seconds):
    bins = [[] for _ in range(int(seconds / window) + 1)]
    for t, dt in samples:
        bins[int(t / window)].append(dt)
    return [statistics.median(b) if b else None for b in bins]


def correlation(a, b):
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    xs, ys = zip(*pairs)
    mx, my = statistics.mean(xs), statistics.mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in pairs)
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / (vx * vy) ** 0.5 if vx > 0 and vy > 0 else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--window", type=float, default=1.0)
    args = ap.parse_args()

    cpus = sorted(os.sched_getaffinity(0))
    out = mp.Queue()
    procs = [mp.Process(target=worker, args=(c, args.seconds, out))
             for c in cpus]
    for p in procs:
        p.start()
    results = dict(out.get() for _ in procs)
    for p in procs:
        p.join()

    series = {}
    for cpu in cpus:
        samples = results[cpu]
        med = statistics.median(dt for _, dt in samples)
        wins = window_medians(samples, args.window, args.seconds)
        series[cpu] = wins
        valid = [w for w in wins if w is not None]
        print("vcpu %d: loop median %.2f ms, %d loops, slowest/fastest "
              "%.2fs window %.2fx" % (cpu, med * 1e3, len(samples),
                                      args.window, max(valid) / min(valid)))
    together = [statistics.mean(w) for w in zip(*series.values())
                if None not in w]
    print("all vCPUs together: slowest/fastest %.2fs window %.2fx"
          % (args.window, max(together) / min(together)))
    for i, a in enumerate(cpus):
        for b in cpus[i + 1:]:
            print("correlation vcpu %d vs %d: %+.2f"
                  % (a, b, correlation(series[a], series[b])))


if __name__ == "__main__":
    main()

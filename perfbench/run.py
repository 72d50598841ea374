"""The end-to-end benchmark: one workload against a real server child.

Usage (from the repository root)::

    python3 perfbench/run.py --workload predict-zipf --seed 1 \\
        --seconds 16 --trace 0

The server runs as a child process (``perfbench/server.py``) that
builds its deployment from a seeded SynthLens corpus. A single-threaded
generator (``perfbench/loadgen.py``) drives it over pipelined binary
connections, checks every answer against the reference model the child
exports, and measures, in order:

1. ``setup_s``: the median of several set-ups, each the CPU time the
   child spent from its start to a listening server, less corpus
   generation (the wall time is printed beside it);
2. interleaved rounds of a light open-loop phase (evenly spaced
   requests, the engine idle between them), a steady open-loop phase
   (Poisson arrivals at a fixed rate; retrain-under-load also sends one
   retrain at 75% of each) and a saturation phase (closed loop, a
   fixed window per connection);
3. a light write probe and retrains under light reads, for workloads
   that have no writes or retrain of their own.

``--trace 0`` prints every end-to-end metric. ``--trace 1`` runs the
workload once untraced and once with spans recorded in the server
child, and prints the per-layer metrics plus the tracing overhead (the
traced run minus the untraced one). The last line of output is always
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import pathlib
import platform
import selectors
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Seconds a server child may take to set up or to answer a command.
CHILD_TIMEOUT = 60.0


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (the child died, a phase hung)."""


# -- the server child ---------------------------------------------------------


class ServerChild:
    """One server process: start, readiness handshake, commands, teardown."""

    def __init__(self, workload, seed: int, corpus_cache: str,
                 spans_path: str = ""):
        from workloads import ITEMS, RATINGS_PER_USER, USERS

        command = [
            sys.executable, str(HERE / "server.py"),
            "--seed", str(seed), "--users", str(USERS),
            "--items", str(ITEMS),
            "--ratings-per-user", str(RATINGS_PER_USER),
            "--replicas", str(workload.replicas),
            "--corpus-cache", corpus_cache,
        ]
        if spans_path:
            command += ["--spans", spans_path]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        self._buffer = b""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=str(ROOT), env=env,
        )
        try:
            line = self._readline()
            ready = time.perf_counter()
            if not line.startswith("READY "):
                raise BenchmarkError(f"server child said {line!r}")
            self.info = json.loads(line[len("READY "):])
        except BaseException:
            self.kill()
            raise
        #: Child start to listening server, less corpus generation: CPU
        #: seconds of the child's threads, and wall seconds.
        self.setup_s = self.info["setup_cpu_s"]
        self.setup_wall_s = (ready - started) - self.info["corpus_s"]

    @property
    def port(self) -> int:
        return self.info["port"]

    def _readline(self) -> str:
        deadline = time.monotonic() + CHILD_TIMEOUT
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._buffer:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise BenchmarkError("server child stopped answering")
                if not sel.select(left):
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    code = self.proc.wait(timeout=5)
                    raise BenchmarkError(f"server child exited with code {code}")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def command(self, text: str) -> dict:
        self.check_alive()
        try:
            self.proc.stdin.write((text + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError as err:
            raise BenchmarkError("server child is gone") from err
        reply = json.loads(self._readline())
        if "error" in reply:
            raise BenchmarkError(f"server child: {reply['error']}")
        return reply

    def check_alive(self) -> None:
        code = self.proc.poll()
        if code is not None:
            raise BenchmarkError(f"server child died with code {code}")

    def peak_rss_mb(self) -> float:
        """VmHWM of the live child, from ``/proc``."""
        self.check_alive()
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError("no VmHWM in /proc status")

    def cpu_ns(self) -> dict[str, int]:
        """CPU time each live thread of the child has run, by thread id
        (schedstat: ns resolution, and time the machine stole from the
        thread is not counted). Serving threads live as long as the
        server, so phase deltas of these lose nothing."""
        times = {}
        task_dir = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/schedstat") as stat:
                    times[tid] = int(stat.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass  # the thread ended between listdir and open
        return times

    def process_cpu_s(self) -> float:
        """CPU seconds of the whole child, threads that have ended
        included (``/proc/<pid>/stat``, clock-tick resolution)."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def quit(self) -> dict:
        """Stop the server and wait for the child to exit."""
        try:
            reply = self.command("quit")
            self.proc.stdin.close()
            code = self.proc.wait(timeout=CHILD_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        if code != 0:
            raise BenchmarkError(f"server child exited with code {code}")
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                try:
                    pipe.close()
                except BrokenPipeError:
                    pass


# -- one pass: set-up, phases, checks -------------------------------------------


class Phase:
    """Requests, answers and timings of one phase."""

    def __init__(self, name: str, kind: str, requests=None):
        self.name = name
        #: "light", "steady", "saturation", "probe" or "retrain".
        self.kind = kind
        self.requests = requests
        #: OpenLoopLog (open-loop phases) or None (closed loop).
        self.log = None
        #: Encoded answer payloads by request index.
        self.answers: dict[int, bytes] = {}
        self.start = self.end = 0.0
        self.attempted = 0
        #: Index of the retrain request among the answers, if any.
        self.retrain_index: int | None = None
        #: Reference models before and after this phase's retrain.
        self.before = self.after = None
        #: Users this phase writes to.
        self.written: set[int] = set()
        #: Server stats at the end of the phase (its window included).
        self.window: dict = {}
        #: Closed loop: answers inside the timed window, and its length.
        self.completed_in_window = 0
        self.seconds = 0.0
        #: Server CPU seconds used during the phase, and the per-thread
        #: CPU times it started from.
        self.cpu_s = 0.0
        self.cpu_start: dict[str, int] = {}
        #: Server CPU seconds from sending the retrain to its answer.
        self.retrain_cpu_s = 0.0


class Session:
    """The phases of one workload against one live server child."""

    def __init__(self, workload, seed: int, child: ServerChild):
        from loadgen import Generator
        from workloads import CONNECTIONS, RequestMaker

        self.workload = workload
        self.child = child
        self.reference = self.export_reference()
        self.maker = RequestMaker(workload, seed, self.reference)
        self.generator = Generator("127.0.0.1", child.port, CONNECTIONS)
        self.phases: dict[str, Phase] = {}
        #: Counters before the first phase (opens the first stats window).
        self.initial_stats = child.command("stats")

    def export_reference(self):
        from checks import Reference

        path = OUT / f"reference-{os.getpid()}.npz"
        self.child.command(f"export {path}")
        try:
            return Reference(path)
        finally:
            os.remove(path)

    def close(self) -> None:
        self.generator.close()

    def _begin(self, name: str, kind: str, requests=None) -> Phase:
        phase = Phase(name, kind, requests)
        phase.before = phase.after = self.reference
        phase.cpu_start = self.child.cpu_ns()
        if requests is not None:
            from workloads import OBSERVE

            phase.written = set(requests.uid[requests.kind == OBSERVE].tolist())
        return phase

    def _finish(self, phase: Phase) -> Phase:
        phase.end = time.perf_counter()
        phase.cpu_s = _cpu_since(phase.cpu_start, self.child.cpu_ns())
        if phase.retrain_index is not None:
            self.reference = phase.after = self.export_reference()
        phase.window = self.child.command("stats")
        self.phases[phase.name] = phase
        return phase

    def open_phase(self, name: str, kind: str, rate: float, seconds: float,
                   poisson: bool, mix: str | None = None,
                   retrain_at: float | None = None) -> Phase:
        """Requests at ``rate`` for ``seconds`` (``mix`` as for
        :meth:`RequestMaker.make`); with ``retrain_at``, one retrain
        request that far (a share of the phase) into it."""
        import numpy as np

        from loadgen import ServerGone
        from stats import OpenLoopLog
        from workloads import retrain_frame

        count = int(round(rate * seconds))
        base = self.generator.reserve(count + 1)
        requests = self.maker.make(count, base, mix) if count else None
        phase = self._begin(name, kind, requests)
        frames, offsets = [], np.empty(0)
        if count:
            frames = list(requests.frames)
            offsets = self.maker.arrivals(rate, poisson, count)
        if retrain_at is not None:
            phase.retrain_index = count
            frames.append(retrain_frame(base + count))
            offsets = np.append(offsets, retrain_at * seconds)
        order = np.argsort(offsets, kind="stable")
        phase.start = time.perf_counter() + 0.005
        scheduled = phase.start + offsets
        log = phase.log = OpenLoopLog(scheduled)
        answers = phase.answers
        # The batch tier runs each stage on a fresh thread pool, so the
        # retrain's CPU is read for the whole process, ended threads too.
        retrain_cpu = [0.0]

        def on_send(position, now):
            index = int(order[position])
            log.on_send(index, now)
            if index == phase.retrain_index:
                retrain_cpu[0] = self.child.process_cpu_s()

        def on_response(index, payload, now):
            log.on_done(index, now)
            answers[index] = payload
            if index == phase.retrain_index:
                phase.retrain_cpu_s = self.child.process_cpu_s() - retrain_cpu[0]

        phase.attempted = len(frames)
        try:
            with _generator_gc_paused():
                self.generator.open_loop([frames[i] for i in order],
                                         scheduled[order], base, on_response,
                                         on_send=on_send)
        except ServerGone as err:
            self.child.check_alive()
            raise BenchmarkError(f"{name} phase: {err}") from err
        return self._finish(phase)

    def closed_phase(self, name: str, seconds: float) -> Phase:
        """Closed loop with the workload's window on every connection."""
        from loadgen import ServerGone, with_corr

        pool = self.maker.make(CLOSED_POOL, 0)
        phase = self._begin(name, "saturation", pool)
        answers = phase.answers
        warmup = CLOSED_WARMUP_SHARE * seconds
        phase.start = time.perf_counter()
        window_start = phase.start + warmup
        window_end = phase.start + seconds
        done = [0]

        def frame_for(seq, corr_id):
            return with_corr(pool.frames[seq % CLOSED_POOL], corr_id)

        def on_response(seq, payload, now):
            if window_start <= now < window_end:
                done[0] += 1
            answers[seq] = payload

        try:
            with _generator_gc_paused():
                phase.attempted = self.generator.closed_loop(
                    frame_for, self.workload.window, seconds, on_response
                )
        except ServerGone as err:
            self.child.check_alive()
            raise BenchmarkError(f"{name} phase: {err}") from err
        phase.completed_in_window = done[0]
        phase.seconds = seconds - warmup
        return self._finish(phase)


def _cpu_since(start: dict, now: dict) -> float:
    """Seconds of CPU the child's threads ran between two ``cpu_ns``
    readings (a thread born in between counts from zero)."""
    return sum(ns - start.get(tid, 0) for tid, ns in now.items()) / 1e9


@contextlib.contextmanager
def _generator_gc_paused():
    """Keep the generator's own garbage collector out of a timed phase:
    a collection there would delay sends and be charged to the server."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


#: Distinct requests cycled through by a closed-loop phase.
CLOSED_POOL = 4096
#: Leading share of a closed-loop phase left out of its throughput.
CLOSED_WARMUP_SHARE = 0.1


def serve(workload, seed: int, seconds: float, child: ServerChild) -> dict:
    """Run the workload's phases against a live server child.

    The light, steady and saturation phases run in :data:`ROUNDS`
    interleaved rounds, so a slow stretch of the machine lands in one
    round of each rather than in one whole phase.
    """
    from workloads import (
        LIGHT_SHARE, PROBE_RPS, PROBE_SHARE, RETRAIN_READS_S, ROUNDS,
        SATURATION_SHARE, STEADY_SHARE, SOLO_RETRAINS,
    )

    session = Session(workload, seed, child)
    own_writes = workload.mix == "mixed"
    own_retrain = workload.retrain_at is not None
    # Without a write probe, the steady phase gets its time.
    steady_share = STEADY_SHARE + (PROBE_SHARE if own_writes else 0.0)
    try:
        for r in range(1, ROUNDS + 1):
            session.open_phase(f"light.{r}", "light", workload.light_rps,
                               LIGHT_SHARE * seconds / ROUNDS, poisson=False)
            session.open_phase(f"steady.{r}", "steady", workload.steady_rps,
                               steady_share * seconds / ROUNDS, poisson=True,
                               retrain_at=workload.retrain_at)
            session.closed_phase(f"saturation.{r}",
                                 SATURATION_SHARE * seconds / ROUNDS)
        if not own_writes:
            for r in range(1, ROUNDS + 1):
                session.open_phase(f"probe.{r}", "probe", PROBE_RPS,
                                   PROBE_SHARE * seconds / ROUNDS,
                                   poisson=False, mix="observe")
        if not own_retrain:
            # Each retrain is sent first, with light reads behind it
            # from one read interval on.
            for r in range(1, SOLO_RETRAINS + 1):
                session.open_phase(f"retrain.{r}", "retrain",
                                   workload.light_rps, RETRAIN_READS_S,
                                   poisson=False, mix="reads", retrain_at=0.0)
        rss_mb = child.peak_rss_mb()
    finally:
        session.close()
    phases = session.phases
    return {
        "phases": phases,
        "rss_mb": rss_mb,
        "late_max_s": max(p.log.late_max() for p in phases.values()
                          if p.log is not None),
        "initial_stats": session.initial_stats,
        "final_stats": list(phases.values())[-1].window,
    }


def check(result: dict, ratings: int) -> dict:
    """Check every answer; returns counts of wrong, failed and lost ones."""
    from checks import observe_ok, predict_ok, retrain_ok, topk_ok
    from workloads import OBSERVE, PREDICT, TOPK_K

    from repro.common.errors import TransportError
    from repro.frontend.wire import decode_response_payload

    counts = {"wrong": 0, "errors": 0, "lost": 0, "unchecked": 0, "checked": 0}
    written: set[int] = set()
    log_length = ratings
    for phase in result["phases"].values():
        written |= phase.written
        counts["lost"] += phase.attempted - len(phase.answers)
        reqs = phase.requests
        for index, payload in sorted(phase.answers.items()):
            try:
                response = decode_response_payload(payload)
            except TransportError as err:
                raise BenchmarkError(f"undecodable answer: {err}") from err
            if not response.ok:
                counts["errors"] += 1
                if counts["errors"] <= 3:
                    print(f"error envelope in {phase.name}: {response.error}",
                          file=sys.stderr)
                continue
            if index == phase.retrain_index:
                good = retrain_ok(response.payload, phase.before.version,
                                  log_length)
            else:
                row = index % len(reqs)
                uid = int(reqs.uid[row])
                kind = reqs.kind[row]
                if kind == OBSERVE:
                    log_length += 1
                    good = observe_ok(response.payload)
                elif uid in written:
                    counts["unchecked"] += 1
                    continue
                else:
                    refs = _references_for(phase, index)
                    if kind == PREDICT:
                        item = int(reqs.item[row])
                        good = any(predict_ok(r, uid, item, response.payload)
                                   for r in refs)
                    else:
                        good = any(topk_ok(r, uid, reqs.candidates[row], TOPK_K,
                                           response.payload) for r in refs)
            counts["checked"] += 1
            if not good:
                counts["wrong"] += 1
                if counts["wrong"] <= 3:
                    print(f"wrong answer in {phase.name}: {response}",
                          file=sys.stderr)
    return counts


def _references_for(phase: Phase, index: int) -> list:
    """The model versions an answer may come from.

    In a phase with a retrain, answers that arrived before the retrain
    was sent come from the old model, requests sent after its answer
    arrived from the new one, and requests in between from either.
    """
    if phase.retrain_index is None:
        return [phase.before]
    log = phase.log
    retrain = phase.retrain_index
    if log.done[index] < log.sent[retrain]:
        return [phase.before]
    if log.sent[index] > log.done[retrain]:
        return [phase.after]
    return [phase.before, phase.after]


def run_pass(workload, seed: int, seconds: float, traced: bool,
             setups: int) -> dict:
    """Set up ``setups`` times, serve the workload on the last server,
    and check every answer."""
    setup_times, wall_times = [], []
    corpus = str(OUT / f"corpus-{os.getpid()}.npz")
    try:
        for _ in range(setups - 1):
            child = ServerChild(workload, seed, corpus)
            setup_times.append(child.setup_s)
            wall_times.append(child.setup_wall_s)
            child.quit()
        spans_path = str(OUT / f"spans-{workload.name}.npz") if traced else ""
        child = ServerChild(workload, seed, corpus, spans_path)
        setup_times.append(child.setup_s)
        wall_times.append(child.setup_wall_s)
    finally:
        if os.path.exists(corpus):
            os.remove(corpus)
    try:
        result = serve(workload, seed, seconds, child)
        result["quit"] = child.quit()
    except BaseException:
        child.kill()
        raise
    result["setup_times"] = setup_times
    result["setup_wall_times"] = wall_times
    result["info"] = child.info
    result["spans_path"] = spans_path
    result["counts"] = check(result, child.info["ratings"])
    result["attempted"] = sum(p.attempted for p in result["phases"].values())
    return result


# -- output ---------------------------------------------------------------------


def provenance(args, workload) -> dict:
    """Result header: what ran, where, on which inputs."""
    import numpy

    from workloads import (
        CONNECTIONS, ITEMS, LIGHT_SHARE, PROBE_RPS, PROBE_SHARE,
        RATINGS_PER_USER, RETRAIN_READS_S, SATURATION_SHARE, SETUP_REPEATS,
        SOLO_RETRAINS, STEADY_SHARE, USERS,
    )

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    why = ""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        why = next((w["why"] for w in spec.get("workloads", [])
                    if w.get("name") == workload.name), "")
    except (OSError, ValueError):
        pass
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus": {"users": USERS, "items": ITEMS,
                   "ratings_per_user": RATINGS_PER_USER},
        "connections": CONNECTIONS,
        "setup_repeats": SETUP_REPEATS if not args.trace else 1,
        "light_rps": workload.light_rps,
        "steady_rps": workload.steady_rps,
        "closed_loop_window": workload.window,
        "probe_rps": PROBE_RPS,
        "phase_shares": {"light": LIGHT_SHARE, "steady": STEADY_SHARE,
                         "saturation": SATURATION_SHARE, "probe": PROBE_SHARE},
        "replication_factor": workload.replicas,
        "retrain_at": workload.retrain_at,
        "solo_retrains": 0 if workload.retrain_at is not None else SOLO_RETRAINS,
        "retrain_reads_s": RETRAIN_READS_S,
    }


def _describe(name: str, value: float, unit: str, how: str = "",
              rounds=None, note: str = "") -> str:
    line = f"  {name:<44} {value:>14.4f} {unit}"
    if rounds and len(rounds) > 1:
        note += f"; {how} of " + ", ".join(f"{v:.4g}" for v in rounds)
    return line + (f"   ({note})" if note else "")


def print_pass(result: dict, label: str) -> None:
    counts = result["counts"]
    spans = result["quit"].get("spans")
    if spans is not None:
        label += f" ({spans} spans recorded, {result['quit']['dropped']} dropped)"
    print(f"{label}: {result['attempted']} requests, {counts['checked']} "
          f"answers checked, {counts['unchecked']} reads of written users "
          f"not compared, {counts['wrong']} wrong, {counts['errors']} "
          f"error envelopes, {counts['lost']} lost")
    for phase in result["phases"].values():
        line = (f"  phase {phase.name:<11} {phase.attempted:>7} requests "
                f"in {phase.end - phase.start:7.3f} s")
        if phase.log is not None:
            line += f", generator late by at most {phase.log.late_max() * 1e3:.2f} ms"
        print(line)


def print_budget(budget: dict) -> None:
    print("light-phase round trip, per read "
          f"({budget['requests']} reads, traced):")
    print(f"  {'round trip (client, from schedule)':<44} "
          f"{budget['round_trip_us']:>10.1f} us")
    print(f"  {'serving.queue_wait (recv stamp to batch)':<44} "
          f"{budget['queue_wait_us']:>10.1f} us")
    print(f"  {'core.prediction.predict_batch (incl.)':<44} "
          f"{budget['batch_us']:>10.1f} us")
    print(f"  {'frontend.wire_encode':<44} {budget['encode_us']:>10.1f} us")
    print(f"  {'unaccounted (socket, hand-offs, client)':<44} "
          f"{budget['unaccounted_us']:>10.1f} us")
    print("  self time by span (calls/read, us/read):")
    for name, (calls, total) in sorted(budget["self_us"].items()):
        print(f"    {name:<42} {calls:>6.2f} {total:>10.1f}")


def _machine_ticks() -> tuple[int, int]:
    """``(stolen, total)`` clock ticks of all CPUs so far (``/proc/stat``):
    the share stolen by the hypervisor tells how busy the host was."""
    with open("/proc/stat") as stat:
        fields = [int(f) for f in stat.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end Velox benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no Velox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SETUP_REPEATS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    import report

    OUT.mkdir(exist_ok=True)
    header = provenance(args, workload)
    ticks = _machine_ticks()
    print("perfbench " + json.dumps(header))
    try:
        if args.trace == 0:
            passes = [run_pass(workload, args.seed, args.seconds, traced=False,
                               setups=SETUP_REPEATS)]
            print_pass(passes[0], "untraced run")
            values, rounds, notes = report.end_to_end(passes[0])
            specs = report.END_TO_END
        else:
            base = run_pass(workload, args.seed, args.seconds, traced=False,
                            setups=1)
            traced = run_pass(workload, args.seed, args.seconds, traced=True,
                              setups=1)
            passes = [base, traced]
            print_pass(base, "untraced run")
            print_pass(traced, "traced run")
            values, budget = report.per_layer(traced, base)
            print_budget(budget)
            rounds, notes = {}, {}
            specs = report.PER_LAYER
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    missing = [name for name in specs if not math.isfinite(values[name])]
    if missing:
        print(f"too few samples for {missing}; run longer (--seconds)",
              file=sys.stderr)
        return 1
    print("metrics:")
    for name, (unit, *how) in specs.items():
        print(_describe(name, values[name], unit, how[-1] if how else "",
                        rounds.get(name), notes.get(name, "")))
    if args.trace == 0:
        print("not bounded:")
        for name, (unit, _better, how) in report.DIAGNOSTIC.items():
            print(_describe(name, values[name], unit, how, rounds.get(name),
                            notes.get(name, "")))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["counts"]["errors"] + p["counts"]["lost"] for p in passes)
    correct = all(p["counts"]["wrong"] == 0 for p in passes)
    output = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": spec[0]}
            for name, spec in specs.items()
        },
    }
    stolen, total = (now - then for now, then in zip(_machine_ticks(), ticks))
    print(f"machine: {stolen / max(1, total):.1%} of CPU time stolen by the host")
    record = dict(output, header=header, rounds=rounds,
                  steal_share=stolen / max(1, total),
                  values={name: float(v) for name, v in values.items()})
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())

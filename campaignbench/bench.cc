/**
 * Campaign-turnaround benchmark.
 *
 * One process runs one workload: a reference fault-injection campaign
 * (golden build, then faulty runs on two worker threads) through the
 * library's public entry points, repeated in rounds until the time
 * budget is spent, with every verdict checked. The last line of
 * stdout is one JSON object: {"correct","attempted","failed",
 * "metrics"}. With --trace 1 the process instead runs one campaign
 * plus a traced pass that times calls into each module from this
 * file and reports the per-layer metrics; the spans are written to
 * --trace-out when the run ends.
 *
 * Usage:
 *   campaignbench --workload W --seed S --seconds N --trace 0|1
 *                 [--faults F] [--rounds R] [--trace-out FILE]
 *
 * --faults and --rounds shrink a run to a fixed size (the determinism
 * test uses them). All files are created in the working directory,
 * which run.py makes private to the run.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "marvel.hh"
#include "net/daemon.hh"
#include "net/frame.hh"
#include "net/protocol.hh"
#include "net/worker.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "soc/converge.hh"
#include "stats/stats.hh"

namespace
{

using namespace marvel;
using Clock = std::chrono::steady_clock;

/** Campaign worker threads per process (2 workers on a 4-core host). */
constexpr unsigned kThreads = 2;

/**
 * One reference campaign. The golden digests do not depend on the
 * seed; they pin the program and the golden run the campaign
 * measures.
 */
struct Spec
{
    const char *name;
    const char *program;  ///< MiBench kernel or accelerator design
    bool accel;           ///< program drives an accelerator design
    const char *target;
    unsigned faults;      ///< per campaign round
    bool prune;
    bool dispatch;        ///< through net::Daemon + two net workers
    unsigned rungs;       ///< golden ladder rungs
    u64 goldenDigest;
    Cycle window;
    u64 statsDigest;      ///< FNV-1a of the golden stats snapshot JSON
};

const Spec kSpecs[] = {
    {"cpu-l1d", "crc32", false, "l1d", 400, false, false, fi::kLadderAuto,
     0x418b034465dbec00ull, 101366, 0x13d8930d7ac9799cull},
    {"accel-dataflow", "md_knn", true, "md_knn.POSX", 200, false, false,
     fi::kLadderAuto, 0xc797910070aaa691ull, 147118,
     0x1932b592a69c27b8ull},
    {"systolic-short", "gemm_systolic", true, "gemm_systolic.PE_ACC",
     1000, true, false, fi::kLadderAuto, 0xbd662ed65737f910ull, 77139,
     0x898b160e5bb55211ull},
    {"dispatch-systolic", "gemm_systolic", true, "gemm_systolic.PE_ACC",
     1000, true, true, fi::kLadderAuto, 0xbd662ed65737f910ull, 77139,
     0x898b160e5bb55211ull},
};

// --- small helpers --------------------------------------------------

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process user + system CPU seconds, every thread included. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

u64
fnv1a(const std::string &bytes)
{
    u64 h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of an ascending vector. */
double
percentile(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * double(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/** splitmix64: campaign seed of round `round` under benchmark seed. */
u64
roundSeed(u64 seed, u64 round)
{
    u64 z = seed * 0x9e3779b97f4a7c15ull + round + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
hex64(u64 v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// --- spans ----------------------------------------------------------

/**
 * In-memory span recorder for the traced run. A span covers one call
 * into a library module from this file; parents nest per thread.
 */
struct SpanRec
{
    std::string name;
    u64 id = 0;
    u64 parent = 0; ///< 0 = root
    u64 run = 0;    ///< fault index + 1 for per-fault spans, else 0
    u64 startNs = 0;
    u64 endNs = 0;
};

class Tracer
{
  public:
    u64
    nowNs() const
    {
        return static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch_)
                .count());
    }

    u64 nextId() { return ++ids_; }

    void
    record(SpanRec rec)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(rec));
    }

    /** Span duration minus the union of its children's intervals. */
    std::map<u64, u64>
    selfTimes() const
    {
        std::map<u64, std::vector<std::pair<u64, u64>>> children;
        for (const SpanRec &s : spans_)
            if (s.parent)
                children[s.parent].emplace_back(s.startNs, s.endNs);
        std::map<u64, u64> self;
        for (const SpanRec &s : spans_) {
            auto &iv = children[s.id];
            std::sort(iv.begin(), iv.end());
            u64 covered = 0, curLo = 0, curHi = 0;
            bool open = false;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.startNs);
                hi = std::min(hi, s.endNs);
                if (hi <= lo)
                    continue;
                if (open && lo <= curHi) {
                    curHi = std::max(curHi, hi);
                } else {
                    if (open)
                        covered += curHi - curLo;
                    curLo = lo;
                    curHi = hi;
                    open = true;
                }
            }
            if (open)
                covered += curHi - curLo;
            self[s.id] = s.endNs - s.startNs - covered;
        }
        return self;
    }

    /** Self times (ns) of every span called `name`. */
    std::vector<double>
    selfNs(const std::string &name) const
    {
        const std::map<u64, u64> self = selfTimes();
        std::vector<double> out;
        for (const SpanRec &s : spans_)
            if (s.name == name)
                out.push_back(double(self.at(s.id)));
        return out;
    }

    void
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return;
        const std::map<u64, u64> self = selfTimes();
        std::fputs("[\n", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRec &s = spans_[i];
            std::fprintf(
                f,
                "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                "\"run\":%llu,\"start_ns\":%llu,\"end_ns\":%llu,"
                "\"self_ns\":%llu}%s\n",
                s.name.c_str(), (unsigned long long)s.id,
                (unsigned long long)s.parent, (unsigned long long)s.run,
                (unsigned long long)s.startNs,
                (unsigned long long)s.endNs,
                (unsigned long long)self.at(s.id),
                i + 1 < spans_.size() ? "," : "");
        }
        std::fputs("]\n", f);
        std::fclose(f);
    }

  private:
    Clock::time_point epoch_ = Clock::now();
    std::atomic<u64> ids_{0};
    std::mutex mu_;
    std::vector<SpanRec> spans_;
};

Tracer *gTracer = nullptr;
thread_local u64 tCurrentSpan = 0;

/** RAII span; a no-op when no tracer is installed. */
class Span
{
  public:
    explicit Span(const char *name, u64 run = 0)
    {
        if (!gTracer)
            return;
        rec_.name = name;
        rec_.id = gTracer->nextId();
        rec_.parent = tCurrentSpan;
        rec_.run = run;
        tCurrentSpan = rec_.id;
        rec_.startNs = gTracer->nowNs();
    }

    ~Span()
    {
        if (!gTracer)
            return;
        rec_.endNs = gTracer->nowNs();
        tCurrentSpan = rec_.parent;
        gTracer->record(std::move(rec_));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRec rec_;
};

// --- campaign plumbing ----------------------------------------------

soc::SystemConfig
systemFor(const Spec &spec)
{
    soc::SystemConfig cfg = soc::preset("riscv");
    if (spec.accel)
        cfg.cluster.designs.push_back(
            accel::designs::makeByName(spec.program, kAccelSpaceBase));
    return cfg;
}

fi::CampaignOptions
campaignOptions(const Spec &spec, u64 seed, unsigned faults)
{
    fi::CampaignOptions o;
    o.numFaults = faults;
    o.seed = seed;
    o.threads = kThreads;
    o.ladderRungs = spec.rungs;
    o.earlyStop = fi::CampaignOptions::EarlyStopSetting::Auto;
    o.prune = spec.prune;
    o.workloadName = spec.program;
    o.heartbeatSeconds = 0;
    return o;
}

struct Golden
{
    fi::GoldenRun run;
    double seconds = 0; ///< workload build + compile + golden
};

Golden
buildGolden(const Spec &spec, unsigned rungs)
{
    const auto t0 = Clock::now();
    Golden g;
    const soc::SystemConfig cfg = systemFor(spec);
    const workloads::Workload wl =
        spec.accel ? workloads::accelDriver(spec.program, 0)
                    : workloads::get(spec.program);
    isa::Program program;
    {
        Span span("isa.compile");
        program = isa::compile(wl.module, cfg.cpu.isa);
    }
    {
        Span span(rungs ? "fi.golden.ladder" : "fi.golden");
        g.run = fi::runGolden(cfg, program, 500'000'000, rungs);
    }
    g.seconds = secondsSince(t0);
    return g;
}

/** Failure bookkeeping: every problem is counted and named. */
struct Failures
{
    u64 count = 0;

    void
    add(u64 n, const std::string &what)
    {
        if (!n)
            return;
        count += n;
        std::fprintf(stderr, "campaignbench: FAIL %s (%llu)\n",
                     what.c_str(), (unsigned long long)n);
    }
};

void
checkGolden(const Spec &spec, const fi::GoldenRun &golden,
            Failures &fail)
{
    const u64 digest = soc::archStateDigest(golden.checkpoint.view());
    if (digest != spec.goldenDigest || golden.windowCycles != spec.window)
        fail.add(1, strfmt("golden digest %s / window %llu, expected "
                           "%s / %llu",
                           hex64(digest).c_str(),
                           (unsigned long long)golden.windowCycles,
                           hex64(spec.goldenDigest).c_str(),
                           (unsigned long long)spec.window));
}

u64
statsDigest(const fi::GoldenRun &golden)
{
    return fnv1a(stats::formatJson(fi::goldenStats(golden)));
}

/** One finished campaign: its journal plus timing. */
struct Round
{
    u64 seed = 0;
    unsigned faults = 0;
    double setupS = 0;      ///< golden build + pre-run work
    double wallS = 0;       ///< setup through last verdict journaled
    double faultyWallS = 0;
    double faultyCpuS = 0;
    store::Journal journal;
    obs::CampaignTelemetry telemetry;  ///< local rounds only
    obs::DispatchTelemetry dispatch;   ///< dispatch rounds only
    double socketWaitS = 0;            ///< dispatch rounds only
    u64 errors = 0; ///< thrown errors and an unfinished daemon (dispatch)
};

/**
 * Fault indices missing, duplicated or out of range in a journal.
 */
u64
indexFailures(const store::Journal &journal, unsigned faults)
{
    std::vector<int> seen(faults, 0);
    u64 bad = 0;
    for (const store::JournalVerdict &jv : journal.verdicts) {
        if (jv.idx >= faults || seen[jv.idx]++)
            ++bad;
    }
    for (int s : seen)
        bad += s == 0;
    return bad;
}

std::string
canonicalBytes(const store::Journal &journal, const std::string &path)
{
    store::writeCanonicalJournal(path, journal.meta, journal.verdicts);
    return slurp(path);
}

/** A local journaled sched::runCampaign round. */
Round
runLocal(const Spec &spec, const Golden &golden, double buildS, u64 seed,
         unsigned faults, const std::string &journalPath)
{
    Round r;
    r.seed = seed;
    r.faults = faults;
    std::remove(journalPath.c_str());
    const fi::TargetRef target =
        fi::targetByName(golden.run.checkpoint.view(), spec.target);
    fi::CampaignOptions copts = campaignOptions(spec, seed, faults);
    copts.journalPath = journalPath;
    copts.telemetry = &r.telemetry;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    sched::runCampaign(golden.run, target, copts);
    const double callS = secondsSince(t0);
    const double callCpu = cpuSeconds() - cpu0;
    // runCampaign's work before the first faulty run (journal create,
    // sampler, prune profile) is single-threaded set-up.
    const double pre = std::max(0.0, callS - r.telemetry.wallSeconds);
    r.setupS = buildS + pre;
    r.faultyWallS = r.telemetry.wallSeconds;
    r.faultyCpuS = std::max(1e-9, callCpu - pre);
    r.wallS = buildS + callS;
    r.journal = store::readJournal(journalPath);
    return r;
}

/**
 * A dispatch round: an in-process net::Daemon on a unix socket and two
 * net::runWorker threads sharing the prebuilt golden. The daemon runs
 * as marvel-campaignd runs it, shutting down once every verdict is
 * journaled. An error thrown in any of the three threads is counted in
 * Round::errors; the daemon is then stopped so the round still ends.
 */
Round
runDispatch(const Spec &spec, const Golden &golden, double buildS,
            u64 seed, unsigned faults, const std::string &journalPath)
{
    Round r;
    r.seed = seed;
    r.faults = faults;
    for (const char *ext : {"", ".leases", ".progress"})
        std::remove((journalPath + ext).c_str());
    const auto t0 = Clock::now();
    const fi::TargetRef target =
        fi::targetByName(golden.run.checkpoint.view(), spec.target);
    const fi::TargetInfo info =
        fi::targetInfo(golden.run.checkpoint.view(), target);
    net::DaemonConfig dcfg;
    dcfg.endpoint = net::parseEndpoint("unix:" + journalPath + ".sock");
    dcfg.journalPath = journalPath;
    dcfg.meta = sched::journalMetaFor(golden.run, info,
                                      campaignOptions(spec, seed, faults));
    dcfg.meta.workload = spec.program;
    net::Daemon daemon(dcfg);
    daemon.start();
    r.setupS = buildS + secondsSince(t0);

    std::atomic<u64> errors{0};
    auto guarded = [&](const char *who, const std::function<void()> &fn) {
        try {
            fn();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "campaignbench: %s: %s\n", who, e.what());
            ++errors;
        }
    };
    const double cpu0 = cpuSeconds();
    const auto t1 = Clock::now();
    const obs::profiler::Totals prof0 = obs::profiler::snapshot();
    std::atomic<bool> stop{false};
    std::thread daemonThread(
        [&] { guarded("daemon", [&] { daemon.run(&stop); }); });
    const net::GoldenSource goldenFor =
        [&](const store::JournalMeta &) -> const fi::GoldenRun & {
        return golden.run;
    };
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kThreads; ++w)
        workers.emplace_back([&, w] {
            net::WorkerConfig wcfg;
            wcfg.endpoint = dcfg.endpoint;
            wcfg.name = "w" + std::to_string(w);
            guarded(wcfg.name.c_str(),
                    [&] { net::runWorker(wcfg, goldenFor); });
        });
    for (std::thread &t : workers)
        t.join();
    stop = true; // a no-op unless a worker gave up early
    daemonThread.join();
    r.faultyWallS = secondsSince(t1);
    r.faultyCpuS = std::max(1e-9, cpuSeconds() - cpu0);
    r.wallS = buildS + secondsSince(t0);
    // The profiler is process-wide: this sums the socket_wait phase of
    // both workers and the daemon's poll loop.
    r.socketWaitS =
        double(obs::profiler::snapshot().since(prof0).nanos[unsigned(
            obs::profiler::Phase::SocketWait)]) /
        1e9;
    r.errors = errors + !daemon.complete();
    r.dispatch = daemon.telemetry();
    r.journal = store::readJournal(journalPath);
    std::remove((journalPath + ".sock").c_str());
    return r;
}

/** Deterministic per-verdict work counts, from journal provenance. */
struct Counts
{
    u64 verdicts = 0;
    u64 simCycles = 0;
    u64 ffCycles = 0;
    u64 timeoutCycles = 0;
    u64 earlyStops = 0;
    u64 earlyTerms = 0;
    u64 pruned = 0;
};

Counts
countsOf(const store::Journal &journal, const fi::GoldenRun &golden)
{
    Counts c;
    for (const store::JournalVerdict &jv : journal.verdicts) {
        const fi::RunVerdict &v = jv.verdict;
        ++c.verdicts;
        if (jv.prov.pruned) {
            ++c.pruned;
            continue;
        }
        Cycle end = v.cyclesRun;
        if (jv.prov.stoppedRung) {
            ++c.earlyStops;
            end = golden.ladder.at(jv.prov.stoppedRung - 1).cycle;
        }
        const u64 simulated = end - jv.prov.fastForwarded;
        c.simCycles += simulated;
        c.ffCycles += jv.prov.fastForwarded;
        c.earlyTerms += v.terminatedEarly;
        if (v.detail == fi::OutcomeDetail::CrashTimeout)
            c.timeoutCycles += simulated;
    }
    return c;
}

/**
 * One campaign's per-index unit of work, configured the way
 * sched::runCampaign configures it, so single faults can be re-run
 * outside the scheduler.
 */
struct FaultRunner
{
    const fi::GoldenRun &golden;
    fi::TargetRef target;
    fi::TargetGeometry geometry;
    u64 seed;
    fi::InjectionOptions runOpts;
    fi::FaultSampler sampler;
    fi::TargetProfile profile; ///< set only for pruning campaigns

    FaultRunner(const Spec &spec, const fi::GoldenRun &g, u64 campaignSeed,
                const fi::TargetProfile &pruneProfile)
        : golden(g),
          target(fi::targetByName(g.checkpoint.view(), spec.target)),
          geometry(fi::targetInfo(g.checkpoint.view(), target).geometry),
          seed(campaignSeed)
    {
        const fi::CampaignOptions copts =
            campaignOptions(spec, campaignSeed, 1);
        runOpts.earlyTermination = copts.earlyTermination;
        runOpts.computeHvf = copts.computeHvf;
        runOpts.timeoutFactor = copts.timeoutFactor;
        runOpts.useLadder = copts.useLadder;
        runOpts.earlyStop = fi::resolveEarlyStop(copts.earlyStop, g);
        sampler = fi::makeSampler(g, copts.model, copts.modelSpec);
        if (spec.prune)
            profile = pruneProfile;
    }

    /** The journal line (provenance excluded) of fault `idx`. */
    std::string
    verdictLine(u64 idx) const
    {
        return store::formatVerdictLine(
            idx, sched::runFaultIndex(golden, target, geometry, seed, idx,
                                      sampler, runOpts, profile));
    }
};

/**
 * Re-run `sample` journaled fault indices one at a time and count
 * verdicts that differ from the journal.
 */
u64
verdictMismatches(const Spec &spec, const fi::GoldenRun &golden,
                  const Round &round, unsigned sample)
{
    const FaultRunner runner(
        spec, golden, round.seed,
        spec.prune
            ? fi::profileTargetAccesses(
                  golden,
                  fi::targetByName(golden.checkpoint.view(), spec.target))
            : fi::TargetProfile{});
    u64 bad = 0;
    const std::size_t n = round.journal.verdicts.size();
    for (unsigned k = 0; k < sample && n; ++k) {
        const store::JournalVerdict &jv =
            round.journal.verdicts[(k * 7919u) % n];
        bad += runner.verdictLine(jv.idx) !=
               store::formatVerdictLine(jv.idx, jv.verdict);
    }
    return bad;
}

// --- output ---------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, u64 attempted, u64 failed,
            const std::vector<Metric> &metrics)
{
    std::string out = strfmt(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false", (unsigned long long)attempted,
        (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += strfmt("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
    out += "}}";
    std::printf("%s\n", out.c_str());
}

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned faults = 0; ///< 0 = the workload's campaign size
    unsigned rounds = 0; ///< 0 = as many as fit in --seconds
    std::string traceOut = "trace.json";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            fatal("campaignbench: %s needs a value", arg.c_str());
        const char *v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v, nullptr, 0);
        else if (arg == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (arg == "--faults")
            a.faults = static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        else if (arg == "--rounds")
            a.rounds = static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        else if (arg == "--trace-out")
            a.traceOut = v;
        else
            fatal("campaignbench: unknown argument '%s'", arg.c_str());
    }
    return a;
}

const Spec &
specNamed(const std::string &name)
{
    for (const Spec &s : kSpecs)
        if (name == s.name)
            return s;
    fatal("campaignbench: unknown workload '%s'", name.c_str());
}

Round
runRound(const Spec &spec, u64 seed, unsigned faults, unsigned idx,
         Golden &golden)
{
    // The previous round's golden goes first, so that peak RSS holds
    // one golden and its ladder, as a single campaign does.
    golden = {};
    golden = buildGolden(spec, spec.rungs);
    const std::string journal = strfmt("round%u.jsonl", idx);
    return spec.dispatch
               ? runDispatch(spec, golden, golden.seconds, seed, faults,
                             journal)
               : runLocal(spec, golden, golden.seconds, seed, faults,
                          journal);
}

/**
 * Machine-readable deterministic counts for the determinism test
 * (printed before the result line).
 */
void
printCounts(const Spec &spec, const Round &round, const Golden &golden,
            u64 canonDigest, u64 statsDig)
{
    const Counts c = countsOf(round.journal, golden.run);
    std::printf(
        "{\"counts\": {\"workload\": \"%s\", \"sim_cycles\": %llu, "
        "\"ff_cycles\": %llu, \"verdicts\": %llu, \"leases\": %llu, "
        "\"canonical_digest\": \"%s\", \"golden_digest\": \"%s\", "
        "\"stats_digest\": \"%s\", \"window\": %llu}}\n",
        spec.name, (unsigned long long)c.simCycles,
        (unsigned long long)c.ffCycles, (unsigned long long)c.verdicts,
        (unsigned long long)round.dispatch.leasesGranted,
        hex64(canonDigest).c_str(),
        hex64(soc::archStateDigest(golden.run.checkpoint.view())).c_str(),
        hex64(statsDig).c_str(),
        (unsigned long long)golden.run.windowCycles);
}

int
runUntraced(const Spec &spec, const Args &args)
{
    const unsigned faults = args.faults ? args.faults : spec.faults;
    const unsigned minRounds = args.rounds ? args.rounds : 2;
    Failures fail;
    std::vector<Round> rounds;
    Golden golden;
    const auto start = Clock::now();
    while (rounds.size() < minRounds ||
           (!args.rounds && secondsSince(start) < args.seconds)) {
        const unsigned idx = static_cast<unsigned>(rounds.size());
        rounds.push_back(
            runRound(spec, roundSeed(args.seed, idx), faults, idx, golden));
        checkGolden(spec, golden.run, fail);
        fail.add(indexFailures(rounds.back().journal, faults),
                 strfmt("round %u fault indices missing or repeated", idx));
        fail.add(rounds.back().errors,
                 strfmt("round %u threads threw or left the campaign "
                        "unfinished", idx));
    }
    // Read before the untimed work below builds more goldens.
    const double peakRss = peakRssMb();
    // Set-up is repeated at least three times per run so its median is
    // not a single sample.
    std::vector<double> setups;
    for (const Round &r : rounds)
        setups.push_back(r.setupS);
    while (setups.size() < 3)
        setups.push_back(buildGolden(spec, spec.rungs).seconds);

    // Correctness, untimed: stats digest, a verdict sample re-run one
    // fault at a time, and (dispatch) the canonical journal against a
    // local run of the same campaign.
    const u64 statsDig = statsDigest(golden.run);
    if (statsDig != spec.statsDigest)
        fail.add(1, "golden stats digest " + hex64(statsDig) +
                        ", expected " + hex64(spec.statsDigest));
    fail.add(verdictMismatches(spec, golden.run, rounds.back(), 4),
             "verdicts differ from a single-fault re-run");
    const Round &first = rounds.front();
    const std::string canon = canonicalBytes(first.journal, "canon0.jsonl");
    if (spec.dispatch) {
        Golden g = buildGolden(spec, spec.rungs);
        const Round local = runLocal(spec, g, 0, first.seed, faults,
                                     "local0.jsonl");
        if (canonicalBytes(local.journal, "local0.canon.jsonl") != canon)
            fail.add(faults, "dispatch canonical journal differs from "
                             "the local campaign");
    }
    printCounts(spec, first, golden, fnv1a(canon), statsDig);

    u64 attempted = 0, verdicts = 0, simCycles = 0;
    double cpu = 0;
    std::vector<double> walls, verdictMs;
    for (const Round &r : rounds) {
        attempted += r.faults;
        verdicts += r.journal.verdicts.size();
        simCycles += countsOf(r.journal, golden.run).simCycles;
        cpu += r.faultyCpuS;
        walls.push_back(r.wallS);
        for (const store::JournalVerdict &jv : r.journal.verdicts)
            verdictMs.push_back(double(jv.prov.wallMicros) / 1000.0);
    }
    std::sort(verdictMs.begin(), verdictMs.end());
    // The tail is p90, not the highest percentile with ten samples
    // beyond it (p99 here): about 1% of verdicts are stretched by a
    // preempted worker or a rare slow outcome, and p99 sat on their
    // edge, spreading 31% over ten seeds.
    constexpr double tailPct = 90;
    std::fprintf(stderr,
                 "campaignbench: %s seed %llu: %zu round(s), %llu "
                 "verdicts, tail = p%g of n=%zu\n",
                 spec.name, (unsigned long long)args.seed, rounds.size(),
                 (unsigned long long)verdicts, tailPct, verdictMs.size());

    const u64 failed = std::min(attempted, fail.count);
    const std::vector<Metric> metrics = {
        {"verdicts_per_core_s", double(verdicts) / cpu, "1/s"},
        {"campaign_wall_s", median(walls), "s"},
        {"setup_s", median(setups), "s"},
        {"sim_mcycles_per_core_s", double(simCycles) / cpu / 1e6,
         "Mcycles/s"},
        {"verdict_ms_p50", percentile(verdictMs, 50), "ms"},
        {"verdict_ms_tail", percentile(verdictMs, tailPct), "ms"},
        {"peak_rss_mb", peakRss, "MB"},
    };
    printResult(fail.count == 0, attempted, failed, metrics);
    return fail.count == 0 ? 0 : 1;
}

// --- traced run -----------------------------------------------------

/** Window delta of a counter-like snapshot entry. */
double
delta(const stats::Snapshot &a, const stats::Snapshot &b,
      const std::string &path)
{
    const stats::SnapshotEntry *x = a.find(path);
    const stats::SnapshotEntry *y = b.find(path);
    if (!x || !y)
        fatal("campaignbench: no stat '%s'", path.c_str());
    return y->value - x->value;
}

/** Heap bytes in use: small-block arenas plus mmapped chunks. */
std::size_t
heapInUse()
{
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

/** Bytes the allocator hands out while `fn` runs and keeps alive. */
double
heapGrowthMb(const std::function<void()> &fn)
{
    const std::size_t before = heapInUse();
    fn();
    return double(heapInUse() - before) / (1024.0 * 1024.0);
}

int
runTraced(const Spec &spec, const Args &args)
{
    const unsigned faults = args.faults ? args.faults : spec.faults;
    Failures fail;
    Tracer tracer;
    std::vector<Metric> m;
    auto add = [&](const std::string &name, double v, const char *unit) {
        m.push_back({name, v, unit});
    };

    // Untraced reference campaign: the counts and the journal the
    // traced work is checked against.
    const u64 seed = roundSeed(args.seed, 0);
    Golden golden = buildGolden(spec, spec.rungs);
    checkGolden(spec, golden.run, fail);
    const Round local =
        runLocal(spec, golden, golden.seconds, seed, faults, "local.jsonl");
    fail.add(indexFailures(local.journal, faults),
             "fault indices missing or repeated");
    std::optional<Round> dispatch;
    if (spec.dispatch) {
        dispatch = runDispatch(spec, golden, golden.seconds, seed, faults,
                               "dispatch.jsonl");
        fail.add(indexFailures(dispatch->journal, faults),
                 "dispatch fault indices missing or repeated");
        fail.add(dispatch->errors,
                 "dispatch threads threw or left the campaign unfinished");
        if (canonicalBytes(dispatch->journal, "dispatch.canon.jsonl") !=
            canonicalBytes(local.journal, "local.canon.jsonl"))
            fail.add(faults, "dispatch canonical journal differs");
    }
    gTracer = &tracer;

    // isa + fi set-up layers.
    const Golden plain = buildGolden(spec, 0);
    const obs::profiler::Totals prof1 = obs::profiler::snapshot();
    const Golden laddered = buildGolden(spec, spec.rungs);
    const obs::profiler::Totals rung =
        obs::profiler::snapshot().since(prof1);
    checkGolden(spec, plain.run, fail);
    checkGolden(spec, laddered.run, fail);
    const fi::GoldenRun &g = laddered.run;
    const fi::TargetRef target =
        fi::targetByName(g.checkpoint.view(), spec.target);
    fi::TargetProfile profile;
    {
        Span span("fi.prune_profile");
        profile = fi::profileTargetAccesses(g, target);
    }

    // Faulty pass: the campaign's faults on kThreads threads of this
    // file, once untraced and once with a span per fault, under one
    // seed. Both must reproduce the campaign journal's verdicts;
    // trace_overhead_frac compares their CPU throughputs.
    {
        const FaultRunner runner(spec, g, seed, profile);
        auto pass = [&] {
            std::vector<std::string> lines(faults);
            std::atomic<u64> next{0};
            const double cpu0 = cpuSeconds();
            std::vector<std::thread> pool;
            for (unsigned t = 0; t < kThreads; ++t)
                pool.emplace_back([&] {
                    for (u64 i; (i = next++) < faults;) {
                        Span span("fi.fault", i + 1);
                        lines[i] = runner.verdictLine(i);
                    }
                });
            for (std::thread &t : pool)
                t.join();
            const double rate =
                double(faults) / std::max(1e-9, cpuSeconds() - cpu0);
            u64 bad = 0;
            for (const store::JournalVerdict &jv : local.journal.verdicts)
                bad += jv.idx >= faults ||
                       lines[jv.idx] !=
                           store::formatVerdictLine(jv.idx, jv.verdict);
            fail.add(bad, strfmt("%s verdicts differ from the campaign "
                                 "journal",
                                 gTracer ? "traced" : "untraced"));
            return rate;
        };
        gTracer = nullptr;
        const double untracedRate = pass();
        gTracer = &tracer;
        const double tracedRate = pass();
        add("trace_overhead_frac", untracedRate / tracedRate - 1, "ratio");
    }

    // soc: tick rate over the golden window, restore and converge.
    const double window = double(g.windowCycles);
    stats::Snapshot runStats;
    u64 runDigest = 0;
    {
        soc::System sys = g.checkpoint.restore();
        const u64 t0 = tracer.nowNs();
        {
            Span span("soc.run");
            sys.run(g.windowCycles + 1);
        }
        add("soc.tick_ns", double(tracer.nowNs() - t0) / window, "ns");
        runStats = sys.statsSnapshot();
        runDigest = soc::archStateDigest(sys);
    }
    {
        // Step the same window, timing the calls System::tick makes.
        soc::System sys = g.checkpoint.restore();
        stats::Snapshot startStats = sys.statsSnapshot();
        u64 cpuNs = 0, accelNs = 0, cycles = 0;
        {
            Span span("soc.step");
            for (;;) {
#ifndef MARVEL_OBS_DISABLED
                if (obs::enabled())
                    obs::setNow(sys.totalCycles);
#endif
                const u64 a = tracer.nowNs();
                sys.cpu.cycle(sys.memory, sys);
                const u64 b = tracer.nowNs();
                sys.cluster.cycle(sys.memory.dram(), sys.totalCycles);
                const u64 c = tracer.nowNs();
                for (std::size_t i = 0; i < sys.cluster.size(); ++i)
                    sys.irqCtrl.setLine(static_cast<unsigned>(i),
                                        sys.cluster.unitC(i).irq());
                ++sys.totalCycles;
                cpuNs += b - a;
                accelNs += c - b;
                ++cycles;
                if (sys.exited || sys.cpu.crashed() ||
                    sys.cluster.errored() || cycles > g.windowCycles)
                    break;
                if (sys.cpu.checkpointRequest)
                    sys.cpu.checkpointRequest = false;
                if (sys.cpu.switchCpuRequest) {
                    sys.cpu.switchCpuRequest = false;
                    break;
                }
            }
        }
        const stats::Snapshot endStats = sys.statsSnapshot();
        if (cycles != g.windowCycles ||
            soc::archStateDigest(sys) != runDigest ||
            stats::formatJson(endStats) != stats::formatJson(runStats))
            fail.add(1, "stepped window ends in a different state than "
                        "System::run");
        // Each timed call also pays for one clock read; take that out.
        u64 clockNs = tracer.nowNs();
        for (u64 i = 0; i < cycles; ++i)
            (void)tracer.nowNs();
        clockNs = tracer.nowNs() - clockNs;
        auto perCycle = [&](u64 ns) {
            return std::max(0.0, double(ns) - double(clockNs)) /
                   double(cycles);
        };
        add("cpu.cycle_ns", perCycle(cpuNs), "ns");
        add("accel.cycle_ns", perCycle(accelNs), "ns");

        const double cyc = delta(startStats, endStats, "system.cpu.cycles");
        add("cpu.ipc",
            delta(startStats, endStats, "system.cpu.committed_insts") / cyc,
            "inst/cycle");
        const stats::SnapshotEntry *h0 =
            startStats.find("system.cpu.commit.width_used");
        const stats::SnapshotEntry *h1 =
            endStats.find("system.cpu.commit.width_used");
        if (!h0 || !h1 || h1->buckets.empty())
            fatal("campaignbench: no commit width histogram");
        const double idle = double(h1->buckets[0] - h0->buckets[0]);
        const double samples = double(h1->samples - h0->samples);
        add("cpu.idle_cycle_share", samples ? idle / samples : 0, "ratio");
        for (const char *cache : {"l1d", "l2"}) {
            const std::string p = std::string("system.") + cache;
            const double misses = delta(startStats, endStats, p + ".misses");
            const double hits = delta(startStats, endStats, p + ".hits");
            add(std::string("mem.") + cache + "_miss_rate",
                hits + misses ? misses / (hits + misses) : 0, "ratio");
        }
    }
    constexpr int kReps = 16;
    std::vector<double> restoreUs, convergeUs;
    for (int i = 0; i < kReps; ++i) {
        const u64 t0 = tracer.nowNs();
        {
            Span span("soc.restore");
            soc::System sys = g.checkpoint.restore();
            (void)sys;
        }
        restoreUs.push_back(double(tracer.nowNs() - t0) / 1000.0);
    }
    {
        const soc::System &ref =
            g.ladder.empty() ? g.checkpoint.view() : g.ladder.back()
                                                         .checkpoint.view();
        const soc::System copy(ref);
        for (int i = 0; i < kReps; ++i) {
            const u64 t0 = tracer.nowNs();
            bool same;
            {
                Span span("soc.converge");
                same = soc::stateConverged(copy, ref);
            }
            convergeUs.push_back(double(tracer.nowNs() - t0) / 1000.0);
            fail.add(!same, "a system copy does not converge with itself");
        }
    }
    add("soc.restore_us", median(restoreUs), "us");
    add("soc.converge_us", median(convergeUs), "us");
    std::optional<soc::System> held;
    const double stateMb =
        heapGrowthMb([&] { held.emplace(g.checkpoint.restore()); });
    held.reset();
    add("soc.state_mb", stateMb, "MB");
    add("soc.ladder_mb", stateMb * double(g.ladder.size()), "MB");

    // fi counts and shortcut outcomes of the untraced campaign.
    {
        const Counts c = countsOf(local.journal, golden.run);
        const double n = double(std::max<u64>(1, c.verdicts));
        add("isa.compile_ms", median([&] {
                std::vector<double> v;
                for (double ns : tracer.selfNs("isa.compile"))
                    v.push_back(ns / 1e6);
                return v;
            }()), "ms");
        add("fi.golden_ms", median(tracer.selfNs("fi.golden")) / 1e6, "ms");
        add("fi.rung_capture_ms",
            double(rung.nanos[unsigned(obs::profiler::Phase::RungCapture)]) /
                1e6,
            "ms");
        add("fi.prune_profile_ms",
            median(tracer.selfNs("fi.prune_profile")) / 1e6, "ms");
        add("fi.sim_cycles_per_verdict", double(c.simCycles) / n, "cycles");
        add("fi.ff_cycles_per_verdict", double(c.ffCycles) / n, "cycles");
        add("fi.timeout_cycle_share",
            c.simCycles ? double(c.timeoutCycles) / double(c.simCycles) : 0,
            "ratio");
        add("fi.early_stop_frac", double(c.earlyStops) / n, "ratio");
        add("fi.early_term_frac", double(c.earlyTerms) / n, "ratio");
        add("fi.pruned_frac", double(c.pruned) / n, "ratio");
        add("fi.verdict_ms",
            median(tracer.selfNs("fi.fault")) / 1e6, "ms");
    }

    // sched: the local campaign's worker telemetry.
    {
        const obs::CampaignTelemetry &t = local.telemetry;
        double busy = 0;
        for (const obs::WorkerTelemetry &w : t.workers)
            busy += w.busySeconds;
        const double denom = t.wallSeconds * double(t.workers.size());
        add("sched.busy_frac", denom > 0 ? busy / denom : 0, "ratio");
        add("sched.tail_idle_s", t.totalIdleSeconds(), "s");
    }

    // store: replay the campaign's verdicts into a fresh journal.
    {
        store::JournalWriter writer;
        const std::string path = "replay.jsonl";
        writer.create(path, local.journal.meta, 1u << 30);
        std::vector<double> appendUs, commitMs;
        std::size_t k = 0;
        for (const store::JournalVerdict &jv : local.journal.verdicts) {
            u64 t0 = tracer.nowNs();
            {
                Span span("store.append", jv.idx + 1);
                writer.append(jv.idx, jv.verdict, jv.prov);
            }
            appendUs.push_back(double(tracer.nowNs() - t0) / 1000.0);
            if (++k % 32 == 0) {
                t0 = tracer.nowNs();
                {
                    Span span("store.commit");
                    writer.commit();
                }
                commitMs.push_back(double(tracer.nowNs() - t0) / 1e6);
            }
        }
        writer.close();
        add("store.append_us", median(appendUs), "us");
        add("store.commit_ms", median(commitMs), "ms");
        std::vector<double> readMs;
        for (int i = 0; i < 5; ++i) {
            const u64 t0 = tracer.nowNs();
            store::Journal j;
            {
                Span span("store.read");
                j = store::readJournal("local.jsonl");
            }
            readMs.push_back(double(tracer.nowNs() - t0) / 1e6);
            fail.add(j.verdicts.size() != local.journal.verdicts.size(),
                     "journal re-read lost verdicts");
        }
        add("store.read_ms", median(readMs), "ms");
    }

    // net: frame codec round trip of the campaign's verdicts.
    {
        std::vector<net::VerdictChunk> chunks;
        for (std::size_t i = 0; i < local.journal.verdicts.size(); i += 16) {
            net::VerdictChunk c;
            c.lease = i / 16 + 1;
            const std::size_t end =
                std::min(i + 16, local.journal.verdicts.size());
            c.verdicts.assign(local.journal.verdicts.begin() + long(i),
                              local.journal.verdicts.begin() + long(end));
            chunks.push_back(std::move(c));
        }
        u64 bytes = 0, mismatched = 0;
        const u64 t0 = tracer.nowNs();
        for (int rep = 0; rep < 20; ++rep) {
            std::string wire;
            {
                Span span("net.encode");
                for (const net::VerdictChunk &c : chunks)
                    net::encodeFrame({net::MsgType::VerdictChunk,
                                      net::encodeVerdictChunk(c)},
                                     wire);
            }
            bytes += wire.size();
            Span span("net.decode");
            net::FrameReader reader;
            reader.feed(wire.data(), wire.size());
            net::Frame frame;
            std::size_t k = 0;
            while (reader.next(frame)) {
                net::VerdictChunk back;
                if (!net::decodeVerdictChunk(frame.payload, back) ||
                    k >= chunks.size() ||
                    back.verdicts.size() != chunks[k].verdicts.size())
                    ++mismatched;
                ++k;
            }
            mismatched += k != chunks.size();
        }
        fail.add(mismatched, "frame codec round trip lost chunks");
        const double s = double(tracer.nowNs() - t0) / 1e9;
        add("net.codec_mb_s", double(bytes) / 1e6 / s, "MB/s");
    }
    {
        const obs::DispatchTelemetry *d =
            dispatch ? &dispatch->dispatch : nullptr;
        add("net.leases", d ? double(d->leasesGranted) : 0, "count");
        add("net.requeued",
            d ? double(d->leasesRequeued + d->leasesExpired) : 0, "count");
        add("net.socket_wait_s", dispatch ? dispatch->socketWaitS : 0, "s");
        add("net.dispatch_overhead_frac",
            dispatch ? dispatch->faultyWallS / local.faultyWallS - 1 : 0,
            "ratio");
    }

    gTracer = nullptr;
    tracer.write(args.traceOut);
    std::sort(m.begin(), m.end(),
              [](const Metric &a, const Metric &b) { return a.name < b.name; });
    const u64 failed = std::min<u64>(faults, fail.count);
    printResult(fail.count == 0, faults, failed, m);
    return fail.count == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        const Spec &spec = specNamed(args.workload);
        return args.trace ? runTraced(spec, args) : runUntraced(spec, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaignbench: %s\n", e.what());
        return 2;
    }
}
